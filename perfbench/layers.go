package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"tesla/internal/toolchain"
)

// Shares of a traced run's time: the ladder, then the traced (span) runs,
// then the 1-VM/2-VM scaling pair.
const (
	ladderShare  = 0.55
	spansShare   = 0.25
	buildRepsCmp = 3 // cold builds per variant for the graph/sequential pair
)

// ladderRungs is the additive ladder, bottom to top.
var ladderRungs = []layer{layerPlain, layerMonitor, layerRecorder, layerSpool, layerAgg}

// rungStats accumulates one rung's runs. Like the end-to-end run it
// reports totals over its runs, which weigh the host's slow and fast
// phases alike.
type rungStats struct {
	runs []runResult
}

func (s *rungStats) add(r runResult) { s.runs = append(s.runs, r) }

// cpuPerTx is the rung's total CPU over its total transactions, in µs.
func (s *rungStats) cpuPerTx() float64 {
	return s.sum(func(r runResult) float64 { return float64(r.cpu) / 1e3 }) /
		s.sum(func(r runResult) float64 { return float64(r.tx) })
}

// txPerS is the rung's total transactions over its total wall time.
func (s *rungStats) txPerS() float64 {
	return s.sum(func(r runResult) float64 { return float64(r.tx) }) /
		s.sum(func(r runResult) float64 { return r.wall.Seconds() })
}

// sum totals a field over the rung's runs.
func (s *rungStats) sum(f func(runResult) float64) float64 {
	var t float64
	for _, r := range s.runs {
		t += f(r)
	}
	return t
}

func usPerTx(d time.Duration, tx int64) float64 { return float64(d) / 1e3 / float64(tx) }

// perLayer runs the traced measurement of a workload: the additive ladder,
// interleaved round by round with the end-to-end measurement (so drift hits
// every rung and it alike), the top rung again with every seam wrapped,
// the 1-VM/2-VM pair, and the build graph's counts. It returns every
// per-layer metric.
func perLayer(w workload, seed int64, budget time.Duration, dir string) (result, error) {
	p := w.gen(seed, w.traceTx)
	res := result{metrics: map[string]float64{}}
	m := res.metrics
	if err := buildLayer(p, m); err != nil {
		return res, err
	}

	r, err := newRig(p, filepath.Join(dir, "ladder"))
	if err != nil {
		return res, err
	}
	if err := r.calibrate(); err != nil {
		return res, fmt.Errorf("calibration: %w", err)
	}
	for _, l := range ladderRungs {
		if _, err := r.run(l, p.vms, nil); err != nil {
			return res, fmt.Errorf("warm-up %s: %w", l, err)
		}
	}

	// The end-to-end measurement, with its own build, runs and totals.
	e2e, err := newPairs(w, w.gen(seed, w.tx), filepath.Join(dir, "e2e"))
	if err != nil {
		return res, err
	}

	start := time.Now()
	rungs := make([]rungStats, len(ladderRungs))
	for i := 0; i < minPairs || time.Since(start) < time.Duration(float64(budget)*ladderShare); i++ {
		for j, l := range ladderRungs {
			out, err := r.run(l, p.vms, nil)
			if err != nil {
				return res, fmt.Errorf("ladder %s: %w", l, err)
			}
			rungs[j].add(out)
			// A pair of the end-to-end measurement right after the rung
			// of its configuration, so both see the same moment of the
			// host.
			if l == w.config {
				if err := e2e.step(); err != nil {
					return res, fmt.Errorf("end-to-end: %w", err)
				}
			}
		}
	}

	sp := &spans{}
	var traced rungStats
	var wire uint64
	for i := 0; i < minPairs || time.Since(start) < time.Duration(float64(budget)*(ladderShare+spansShare)); i++ {
		out, err := r.run(layerAgg, p.vms, sp)
		if err != nil {
			return res, fmt.Errorf("traced %s: %w", layerAgg, err)
		}
		wire += out.wireB
		traced.add(out)
	}

	var one, two rungStats
	for i := 0; i < minPairs || time.Since(start) < budget; i++ {
		a, err := r.run(layerMonitor, 1, nil)
		if err != nil {
			return res, fmt.Errorf("1 VM: %w", err)
		}
		one.add(a)
		b, err := r.run(layerMonitor, 2, nil)
		if err != nil {
			return res, fmt.Errorf("2 VMs: %w", err)
		}
		two.add(b)
	}

	// The ladder: each rung's CPU over the one below is one layer's cost.
	cpu := func(l layer) float64 { return rungs[l].cpuPerTx() }
	m["vm.plain_us_per_tx"] = cpu(layerPlain)
	m["monitor.us_per_tx"] = cpu(layerMonitor) - cpu(layerPlain)
	m["trace.record_us_per_tx"] = cpu(layerRecorder) - cpu(layerMonitor)
	m["trace.spool_us_per_tx"] = cpu(layerSpool) - cpu(layerRecorder)
	m["agg.ship_us_per_tx"] = cpu(layerAgg) - cpu(layerSpool)
	// Consistency: the ladder's rung for the workload's configuration must
	// agree with the end-to-end measurement's cpu_us_per_tx.
	e2eMetrics := map[string]float64{}
	e2e.report(e2eMetrics)
	e2eCPU := e2eMetrics["cpu_us_per_tx"]
	gap := math.Abs(cpu(w.config)/e2eCPU - 1)
	m["ladder.e2e_gap"] = gap
	m["bench.tracing_overhead_us_per_tx"] = traced.cpuPerTx() - cpu(layerAgg)

	// Spans at the public seams (traced top-rung runs).
	m["handler.ns_per_event"] = perCount(sp.handlerNs.Load(), sp.handlerN.Load())
	m["trace.tap_ns_per_event"] = perCount(sp.tapNs.Load(), sp.tapN.Load())
	m["trace.cut_ms_per_flush"] = mean(sp.cutMs)
	m["trace.spool_flush_ms_p99"] = quantile(sp.spoolMs, 0.99)
	tracedEvents := traced.sum(func(r runResult) float64 { return float64(r.events) })
	m["agg.wire_bytes_per_event"] = float64(wire) / tracedEvents
	m["agg.drain_ms"] = median(sp.drainMs)
	m["agg.verdict_lag_ms_p50"] = quantile(sp.lagMs, 0.5)
	m["agg.verdict_lag_ms_p99"] = quantile(sp.lagMs, 0.99)
	m["agg.verdict_lag_samples"] = float64(len(sp.lagMs))

	// Counts.
	plain, mon, top := &rungs[layerPlain], &rungs[layerMonitor], &rungs[layerAgg]
	steps := func(s *rungStats) float64 {
		return s.sum(func(r runResult) float64 { return float64(r.steps) }) / float64(len(s.runs))
	}
	m["vm.hook_steps_per_tx"] = (steps(mon) - steps(plain)) / float64(p.txPerRep)
	m["instrument.hooks"] = float64(r.inst.Stats.Hooks)
	m["monitor.events_per_tx"] = float64(r.progEvents*uint64(p.vms)) / float64(p.txPerRep)
	allocs := func(s *rungStats) float64 {
		return s.sum(func(r runResult) float64 { return float64(r.allocs) }) / float64(len(s.runs))
	}
	m["core.allocs_per_event"] = (allocs(mon) - allocs(plain)) / float64(r.progEvents*uint64(p.vms))
	cfg := &rungs[w.config]
	m["runtime.gc_cpu_share"] = cfg.sum(func(r runResult) float64 { return r.gcCPU }) /
		cfg.sum(func(r runResult) float64 { return r.cpu.Seconds() })
	m["core.scaling_2vm"] = two.txPerS() / one.txPerS()
	m["core.degraded_events"] = cfg.sum(func(r runResult) float64 { return float64(r.degraded) }) / float64(len(cfg.runs))
	topEvents := top.sum(func(r runResult) float64 { return float64(r.events) })
	m["trace.ring_dropped"] = top.sum(func(r runResult) float64 { return float64(r.ringLost) }) / float64(len(top.runs))
	m["agg.dropped_events"] = top.sum(func(r runResult) float64 { return float64(r.aggLost) }) / float64(len(top.runs))
	m["trace.lost_event_ratio"] = top.sum(func(r runResult) float64 { return float64(r.lost) }) / topEvents
	spool := &rungs[layerSpool]
	m["trace.spool_bytes_per_event"] = spool.sum(func(r runResult) float64 { return float64(r.spoolB) }) /
		spool.sum(func(r runResult) float64 { return float64(r.events) })

	for _, r := range cfg.runs {
		res.attempted += r.events
		res.failed += r.lost
	}
	if gap > cpuBound {
		return res, fmt.Errorf("ladder inconsistent: the %s rung reads %.3f us/tx, the end-to-end path %.3f us/tx (gap %.1f%% > bound %.0f%%)",
			w.config, cpu(w.config), e2eCPU, 100*gap, 100*cpuBound)
	}
	return res, nil
}

func perCount(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// buildLayer measures the build graph on the workload's codebase: cold
// graph builds against the sequential reference, and what one body edit
// and one assertion edit rebuild.
func buildLayer(p *program, m map[string]float64) error {
	src := p.sources(0, 0)
	var graph, seq []float64
	for i := 0; i < buildRepsCmp; i++ {
		g, err := timeIt(func() error { _, err := buildAt(src, true, nil); return err })
		if err != nil {
			return err
		}
		s, err := timeIt(func() error {
			_, err := toolchain.BuildSequential(src, toolchain.BuildOptions{Instrument: true})
			return err
		})
		if err != nil {
			return err
		}
		graph = append(graph, float64(g.wall)/1e6)
		seq = append(seq, float64(s.wall)/1e6)
	}
	m["build.graph_cold_ms"] = median(graph)
	m["build.sequential_cold_ms"] = median(seq)
	rb, err := newRebuilder(p, true)
	if err != nil {
		return err
	}
	b, err := rb.next(editBody)
	if err != nil {
		return err
	}
	a, err := rb.next(editAssert)
	if err != nil {
		return err
	}
	m["build.nodes_built_body"] = float64(nodesBuilt(b.b))
	m["build.nodes_built_assert"] = float64(nodesBuilt(a.b))
	m["build.engines_lowered_assert"] = float64(a.b.Graph.Engines.Lowered)
	return nil
}
