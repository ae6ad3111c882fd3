#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout's sources and runs it
# from the repository root. Every build artifact, cache and scratch file
# stays under .bench_build/ at the root.
#
#   bash perfbench/run.sh --workload oltp|fleet|rebuild|global --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload all [--seed N] [--seconds S] [--trace 0|1]
#
# "all" runs the workloads BENCHMARK.json lists, one process each, and
# exits non-zero if any of them fails its verdict or accounting checks.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"

workload=""
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	--workload=*) workload="${1#*=}"; shift ;;
	*) args+=("$1"); shift ;;
	esac
done

if [ "$workload" != "all" ]; then
	exec "$out/perfbench" --workload "$workload" "${args[@]+"${args[@]}"}"
fi
status=0
for w in oltp fleet rebuild; do
	"$out/perfbench" --workload "$w" "${args[@]+"${args[@]}"}" || status=1
done
exit $status
