// Command perfbench is the repository's end-to-end benchmark: it generates
// a seeded csub program for a workload, builds it with the toolchain at
// tesla-run's defaults, runs it on the VM under the monitor — with the
// trace recorder, WAL spool and an in-process tesla-agg server where the
// workload calls for them — checks every verdict against the generator's
// known answer and every loss account, and prints every metric by name
// with its unit. NOTES.md says why each workload exists.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload oltp|global|fleet|rebuild --seed N --seconds S --trace 0|1 [--out file]
//
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 runs the per-layer ladder and the wrapped seams and reports
// the per-layer metrics. The last line of standard output is one JSON
// object; a host record precedes it. The exit status is 1 on any verdict
// or accounting mismatch, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric. moves says which end-to-end
// metric, on which workload, a change in a per-layer metric should move.
type metricDef struct {
	name, unit, better, moves string
	bound                     float64
}

// cpuBound is the bound of cpu_us_per_tx, which the traced run's ladder
// consistency check also uses.
const cpuBound = 0.25

// endToEndMetrics are reported with --trace 0, on every workload.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "tx_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_tx", unit: "us", better: "lower", bound: cpuBound},
	{name: "overhead_us_per_tx", unit: "us", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "rebuild_body_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "rebuild_assert_ms", unit: "ms", better: "lower", bound: 0.25},
}

// perLayerMetrics are reported with --trace 1, on every workload.
var perLayerMetrics = []metricDef{
	{name: "vm.plain_us_per_tx", better: "lower", unit: "us", moves: "cpu_us_per_tx on oltp, global, fleet; never overhead_us_per_tx"},
	{name: "monitor.us_per_tx", better: "lower", unit: "us", moves: "overhead_us_per_tx on oltp, global"},
	{name: "trace.record_us_per_tx", better: "lower", unit: "us", moves: "cpu_us_per_tx, tx_per_s on fleet only"},
	{name: "trace.spool_us_per_tx", better: "lower", unit: "us", moves: "cpu_us_per_tx, tx_per_s on fleet only"},
	{name: "agg.ship_us_per_tx", better: "lower", unit: "us", moves: "cpu_us_per_tx, tx_per_s on fleet only"},
	{name: "ladder.e2e_gap", better: "lower", unit: "ratio", moves: "nothing: |workload rung / end-to-end cpu_us_per_tx - 1|, must stay within cpu_us_per_tx's bound"},
	{name: "bench.tracing_overhead_us_per_tx", better: "lower", unit: "us", moves: "nothing: traced minus untraced top rung"},
	{name: "handler.ns_per_event", better: "lower", unit: "ns", moves: "overhead_us_per_tx on oltp"},
	{name: "trace.tap_ns_per_event", better: "lower", unit: "ns", moves: "overhead_us_per_tx on fleet; nothing on oltp (no tap)"},
	{name: "trace.cut_ms_per_flush", better: "lower", unit: "ms", moves: "cpu_us_per_tx on fleet"},
	{name: "trace.spool_flush_ms_p99", better: "lower", unit: "ms", moves: "cpu_us_per_tx on fleet"},
	{name: "agg.wire_bytes_per_event", better: "lower", unit: "B", moves: "tx_per_s on fleet"},
	{name: "agg.drain_ms", better: "lower", unit: "ms", moves: "tx_per_s on fleet"},
	{name: "agg.verdict_lag_ms_p50", better: "lower", unit: "ms", moves: "fleet delivery latency (flush interval bound)"},
	{name: "agg.verdict_lag_ms_p99", better: "lower", unit: "ms", moves: "fleet delivery latency (flush interval bound)"},
	{name: "agg.verdict_lag_samples", better: "higher", unit: "count", moves: "nothing: sample count behind the lag percentiles"},
	{name: "vm.hook_steps_per_tx", better: "lower", unit: "count", moves: "overhead_us_per_tx on oltp, global"},
	{name: "instrument.hooks", better: "lower", unit: "count", moves: "overhead_us_per_tx on oltp, global"},
	{name: "monitor.events_per_tx", better: "lower", unit: "count", moves: "overhead_us_per_tx on oltp, global"},
	{name: "core.allocs_per_event", better: "lower", unit: "count", moves: "cpu_us_per_tx on oltp, global"},
	{name: "runtime.gc_cpu_share", better: "lower", unit: "ratio", moves: "cpu_us_per_tx on oltp, global"},
	{name: "core.scaling_2vm", better: "higher", unit: "ratio", moves: "tx_per_s on global"},
	{name: "core.degraded_events", better: "lower", unit: "count", moves: "failed events (lost share) on every runtime workload"},
	{name: "trace.ring_dropped", better: "lower", unit: "count", moves: "failed events (lost share) on fleet"},
	{name: "agg.dropped_events", better: "lower", unit: "count", moves: "failed events (lost share) on fleet"},
	{name: "trace.lost_event_ratio", better: "lower", unit: "ratio", moves: "failed events (lost share) on fleet"},
	{name: "trace.spool_bytes_per_event", better: "lower", unit: "B", moves: "cpu_us_per_tx on fleet"},
	{name: "build.graph_cold_ms", better: "lower", unit: "ms", moves: "setup_s on every workload"},
	{name: "build.sequential_cold_ms", better: "lower", unit: "ms", moves: "nothing: reference rung for build.graph_cold_ms"},
	{name: "build.nodes_built_body", better: "lower", unit: "count", moves: "rebuild_body_ms"},
	{name: "build.nodes_built_assert", better: "lower", unit: "count", moves: "rebuild_assert_ms"},
	{name: "build.engines_lowered_assert", better: "lower", unit: "count", moves: "rebuild_assert_ms, setup_s"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: oltp, global, fleet or rebuild")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := flag.String("out", "", "also write the host record and result to this file")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments\n")
		flag.Usage()
		return 2
	}

	dir := filepath.Join(".bench_build", fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	budget := time.Duration(*seconds) * time.Second
	defs := endToEndMetrics
	var res result
	var err error
	if *traced == 1 {
		defs = perLayerMetrics
		res, err = perLayer(w, *seed, budget, dir)
	} else {
		res, err = endToEnd(w, *seed, budget, dir)
	}
	host := hostRecord()
	host["workload"], host["seed"], host["trace"] = w.name, *seed, *traced
	line := resultLine{Correct: err == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	if err == nil {
		for _, d := range defs {
			v, ok := res.metrics[d.name]
			if !ok {
				err = fmt.Errorf("metric %s was not measured", d.name)
				break
			}
			line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %v\n", w.name, err)
		line.Correct = false
	}
	printTable(w.name, defs, res.metrics)
	hostJSON, _ := json.Marshal(map[string]any{"host": host})
	resJSON, _ := json.Marshal(line)
	fmt.Println(string(hostJSON))
	fmt.Println(string(resJSON))
	if *out != "" {
		rec, _ := json.MarshalIndent(map[string]any{"host": host, "result": line}, "", "  ")
		if werr := os.WriteFile(*out, append(rec, '\n'), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", werr)
			return 1
		}
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// printTable writes the metrics, with units and (per layer) what each
// should move, to standard error for people.
func printTable(workload string, defs []metricDef, got map[string]float64) {
	fmt.Fprintf(os.Stderr, "perfbench %s:\n", workload)
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.name, v, d.unit)
		if d.moves != "" {
			line += "  moves: " + d.moves
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
