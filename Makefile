# Developer entry points. `make ci` is what the build gate runs.

GO ?= go

# Per-target budget for the fuzz smoke pass (native Go fuzzing syntax).
FUZZTIME ?= 30s

.PHONY: ci fmt vet build test race check bench fuzz-smoke bench-compare cache-gate bench-rebuild chaos-gate bench-faults liveness-gate agg-gate bench-agg compile-gate crash-gate perfbench-test

ci: fmt vet build test race check liveness-gate cache-gate chaos-gate agg-gate compile-gate crash-gate perfbench-test fuzz-smoke bench-compare

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The monitor's global-context path, the trace recorder and the build
# graph's scheduler/cache are exercised from many goroutines; keep them
# provably race-free. The second line repeats the global lazy-«init» tests:
# another thread's first event must not reach the global store before the
# «init» it depends on, and a handler re-entering the monitor during that
# «init» must not deadlock (the timeout turns a hang into a failure). It also
# repeats TestCoverageConcurrentThreads: two threads counting coverage in
# their own stores at once, merged by Monitor.Coverage after the join.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -timeout 120s ./internal/monitor -run 'TestGlobalLazyInit|TestCoverageConcurrentThreads'

# The static checker over the demo programs: safe.c and liveness.c must
# pass (exit 0), doomed.c must be rejected (exit 1); the -json reports
# must match the golden files byte for byte (regenerate with
# `go test ./examples/staticcheck -update`).
check: build
	$(GO) run ./cmd/tesla-check examples/staticcheck/testdata/safe.c
	! $(GO) run ./cmd/tesla-check examples/staticcheck/testdata/doomed.c
	$(GO) run ./cmd/tesla-check examples/staticcheck/testdata/liveness.c
	@for n in safe liveness; do \
		$(GO) run ./cmd/tesla-check -json examples/staticcheck/testdata/$$n.c \
			| diff - examples/staticcheck/testdata/$$n.golden.json \
			|| { echo "check: $$n.c JSON drifted from golden"; exit 1; }; \
	done
	@$(GO) run ./cmd/tesla-check -json examples/staticcheck/testdata/doomed.c \
		| diff - examples/staticcheck/testdata/doomed.golden.json \
		|| { echo "check: doomed.c JSON drifted from golden"; exit 1; }

# Soundness differential for the liveness refinement: every corpus
# program is executed under the real VM/monitor across an input range; a
# liveness-PROVABLY-SAFE assertion must never record a runtime violation,
# and its hooks must actually be elided.
liveness-gate:
	$(GO) test -count=1 ./internal/staticcheck -run 'TestLivenessGate|TestVerdictSoundness'
	$(GO) test -count=1 ./examples/staticcheck -run 'TestJSONGoldens'

bench:
	$(GO) run ./cmd/tesla-bench -fig elide -files 8

# The §5.1 rebuild matrix on the build graph: cold vs warm vs one-file
# incremental, sequential vs parallel.
bench-rebuild:
	$(GO) run ./cmd/tesla-bench -fig rebuild -files 12

# Cache-correctness gate: build the example program twice against the same
# on-disk cache. The second build must do zero stage work (built=0 in the
# summary line) and both linked-IR dumps must be byte-identical.
CACHEGATE := /tmp/tesla-cache-gate
cache-gate: build
	@rm -rf $(CACHEGATE) && mkdir -p $(CACHEGATE)
	$(GO) run ./cmd/tesla-build -cache $(CACHEGATE)/cache -o $(CACHEGATE)/a.ir \
		examples/buildgraph/testdata/*.c
	$(GO) run ./cmd/tesla-build -cache $(CACHEGATE)/cache -o $(CACHEGATE)/b.ir \
		examples/buildgraph/testdata/*.c | tee $(CACHEGATE)/second.out
	@grep -q 'built=0' $(CACHEGATE)/second.out || \
		{ echo "cache-gate: warm build rebuilt nodes"; exit 1; }
	cmp $(CACHEGATE)/a.ir $(CACHEGATE)/b.ir
	@echo "cache-gate: warm build fully cached, IR byte-identical"

# Fault-injection gate: the chaos property suite (deterministic seeded
# injector, fixed seed matrix baked into the tests) under the race detector.
# Covers oracle-vs-production parity (per-thread store and the striped
# global store at 1-16 stripes) under injected allocation failures at
# 1%/10%/50%, cross-class quarantine isolation, exact suppression and
# handler-panic accounting, and concurrent no-deadlock/no-corruption
# invariants — plus the injector's own determinism tests and the monitor's
# supervision passthrough.
chaos-gate:
	$(GO) test -race -count=1 ./internal/faultinject
	$(GO) test -race -count=1 ./internal/core -run 'TestChaos'
	$(GO) test -race -count=1 ./internal/monitor -run 'TestSupervision|TestHealth'

# Supervision-policy cost ladder on the striped global store (drop-new vs
# evict-oldest vs quarantine vs injected faults); target <3% per rung.
bench-faults:
	$(GO) run ./cmd/tesla-bench -fig faults

# Fleet-aggregation gate: the in-process fleet smoke under the race
# detector (concurrent producers, one mid-stream disconnect, exact
# ingested + dropped == sent accounting, and TestAggBatchedProducer:
# forced ring loss under a live AppendCut publisher, every recorded event
# ingested or counted as dropped) plus the built-binary end-to-end
# (tesla-agg serve on a unix socket, three tesla-run -agg producers,
# tesla-agg query).
agg-gate: build
	$(GO) test -race -count=1 ./internal/agg
	$(GO) test -count=1 ./cmd/tesla-agg -run 'TestAggEndToEnd'

# Fleet ingestion throughput ladder (2..16 concurrent producers) with the
# exact-accounting column asserted per rung.
bench-agg:
	$(GO) run ./cmd/tesla-bench -fig agg

# Compiled-engine gate: the schedule-exploring differential under the race
# detector. The test oracle (the interpreted walk over a per-thread store's
# single table) is compared after every event with both production bodies:
# the per-thread store in every schedule and the striped global store at
# 1/2/4/8/16 stripes in turn. TestDifferentialShardedVsReference and
# TestEngineDifferential sweep 2,450 seeded schedules between them
# (supervision matrix: overflow policies, quarantine/re-arm, strict and
# required symbols, resets), TestEngineDifferentialInjected 450 more
# under injected allocation failures, and TestDifferentialSingleStripe 100 at
# one stripe. Then the automaton-level lowering / image round-trip /
# corrupt-image-rejection suite and the build graph's per-class engine cache
# cutoffs. Every schedule also compares each store's Coverage with the
# oracle's and with the counts rebuilt from the oracle's notes after every
# event; the TestEngineDifferential* sweeps add a lean twin of every store (a
# CountingHandler, so no lifecycle notes) and splice in re-registrations.
compile-gate:
	$(GO) test -race -count=1 ./internal/core -run 'TestDifferentialShardedVsReference|TestEngineDifferential|TestDifferentialSingleStripe|TestTransitionSet|TestInitTransition'
	$(GO) test -race -count=1 ./internal/automata -run 'TestEngine|TestAttachEngine|TestStepUnifiedContract'
	$(GO) test -race -count=1 ./internal/build -run 'TestEngineNode|TestAssertionEditRelowersOneClass|TestBodyEditKeepsEngines'

# Crash-consistency gate: the WAL spool's torn-tail recovery unit suite,
# the in-process randomized crash schedules (producer/server kills and
# restarts, snapshot restore, seq dedup — exact-accounting invariants
# asserted after every schedule), and the process-level gate that
# SIGKILLs real tesla-run / tesla-agg binaries at randomized points:
# every recovered -trace-spool must be a verbatim prefix of an uncrashed
# run, and fleet counts must come out exactly once across producer
# crash, two resends and a server kill/restart in between.
crash-gate: build
	$(GO) test -count=1 ./internal/trace -run 'TestSpool|TestWAL'
	$(GO) test -count=1 ./internal/agg -run 'TestCrashSchedules|TestSnapshot|TestDurableAcks|TestResendDeduplicated'
	$(GO) test -count=1 ./cmd/tesla-agg -run 'TestCrashGate'

# The end-to-end benchmark's self-tests. perfbench is a module of its own
# (perfbench/go.mod), so `make test` does not reach them, yet its verdict
# and spool-accounting checks drive the recorder -> spool -> agg path end
# to end.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Short fuzz pass over the binary/JSON trace codec, the streaming frame
# reader, the WAL spool's segment repair, the csub front end and the
# oracle-vs-production step differential ($(FUZZTIME) per target); saved crashers land in testdata/fuzz and fail
# `make test` from then on.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzFrameStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzSpoolRecover$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/csub -run '^$$' -fuzz '^FuzzCsubParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzCompiledStep$$' -fuzztime $(FUZZTIME)

# Store benchmark: one keyed check event on the test oracle, the per-thread
# store, and the global store at 1 stripe and at GOMAXPROCS stripes. It
# fails when the per-thread store's compiled body is under 1.5x the oracle's
# interpreted walk; -v prints the measured ratio.
bench-compare:
	$(GO) test ./internal/core -run '^$$' -bench '^BenchmarkStore$$' -benchtime 0.5s -count 3 -v
