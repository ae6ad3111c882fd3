package main

import (
	"fmt"
	"path/filepath"
	"time"

	"tesla/internal/toolchain"
)

// Workload sizes: transactions per run in the end-to-end run and (where
// the ladder's top rungs are slower) in the traced run. Every runtime
// workload's count is a multiple of the generator's period, so the known
// answer is exact.
const (
	setupWarm  = 5    // untimed set-ups first: the Go runtime's own warm-up
	minSetups  = 41   // fewest set-ups setup_s rests on
	buildShare = 0.25 // share of a runtime workload's time spent on set-ups and rebuilds
	minPairs   = 3    // fewest timed run pairs a result rests on
)

// workload is one seeded benchmark input and the configuration its
// end-to-end metrics are measured in.
type workload struct {
	name string
	// gen builds the workload's program from a seed, sized to tx
	// transactions per run.
	gen         func(seed, tx int64) *program
	tx, traceTx int64
	// config is the layer stack of the end-to-end run; runtime is false
	// for the rebuild workload, whose transaction is one warm rebuild.
	config  layer
	runtime bool
}

var workloads = []workload{
	{name: "oltp", config: layerMonitor, runtime: true, tx: 64 * 128, traceTx: 64 * 128,
		gen: func(seed, tx int64) *program { return kernelProgram(seed, tx, 8, 0, 2, 2) }},
	{name: "global", config: layerMonitor, runtime: true, tx: 64 * 512, traceTx: 64 * 32,
		gen: func(seed, tx int64) *program { return globalProgram(seed, tx/2) }},
	{name: "fleet", config: layerAgg, runtime: true, tx: 64 * 16, traceTx: 64 * 16,
		gen: func(seed, tx int64) *program { return kernelProgram(seed, tx, 2, 500, 10, 6) }},
	{name: "rebuild", config: layerMonitor, tx: 4096, traceTx: 4096,
		gen: func(seed, tx int64) *program { return codebaseProgram(seed, int(tx)) }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what one benchmark run reports.
type result struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
}

// newRig builds both variants of the program.
func newRig(p *program, dir string) (*rig, error) {
	inst, err := buildAt(p.sources(0, 0), true, nil)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	plain, err := buildAt(p.sources(0, 0), false, nil)
	if err != nil {
		return nil, fmt.Errorf("plain build: %w", err)
	}
	return &rig{prog: p, inst: inst, plain: plain, dir: dir}, nil
}

// setups times set-ups one at a time, so that the measuring loops can
// spread them over a whole phase: a burst of set-ups lasting a fraction
// of a second would fall into whatever phase the host happens to be in.
type setups struct {
	p     *program
	fleet bool
	dir   string
	n     int
	xs    []float64 // seconds
}

func newSetups(w workload, p *program, dir string) *setups {
	return &setups{p: p, fleet: w.config >= layerAgg, dir: dir}
}

// once makes one set-up; the first setupWarm are not timed.
func (s *setups) once() error {
	d, err := setupOnce(s.p, s.fleet, filepath.Join(s.dir, fmt.Sprintf("setup-%d", s.n)))
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if s.n++; s.n > setupWarm {
		s.xs = append(s.xs, d.Seconds())
	}
	return nil
}

// median tops the sample up to minSetups and returns its median.
func (s *setups) median() (float64, error) {
	for len(s.xs) < minSetups {
		if err := s.once(); err != nil {
			return 0, err
		}
	}
	return median(s.xs), nil
}

// endToEnd runs a workload with tracing off and returns every end-to-end
// metric.
func endToEnd(w workload, seed int64, budget time.Duration, dir string) (result, error) {
	p := w.gen(seed, w.tx)
	if w.runtime {
		return runtimeEndToEnd(w, p, budget, dir)
	}
	return rebuildEndToEnd(w, p, budget, dir)
}

// runtimeEndToEnd first alternates set-ups with warm rebuilds of the
// workload's codebase, then measures the program in the workload's own
// configuration against the same program uninstrumented. peak_rss_mb
// covers the second phase only.
func runtimeEndToEnd(w workload, p *program, budget time.Duration, dir string) (result, error) {
	res := result{metrics: map[string]float64{}}
	buildBudget := time.Duration(float64(budget) * buildShare)
	if err := buildPhase(w, p, buildBudget, dir, res.metrics); err != nil {
		return res, err
	}

	if err := resetPeakRSS(); err != nil {
		return res, err
	}
	e, err := newPairs(w, p, dir)
	if err != nil {
		return res, err
	}
	deadline := time.Now().Add(budget - buildBudget)
	for n := 0; n < minPairs || time.Now().Before(deadline); n++ {
		if err := e.step(); err != nil {
			return res, err
		}
	}
	e.report(res.metrics)
	res.attempted, res.failed = e.attempted, e.failed
	rss, err := peakRSSMB()
	res.metrics["peak_rss_mb"] = rss
	return res, err
}

// pairs is the end-to-end measurement of a runtime workload: its own
// configuration against the same program and inputs uninstrumented, run
// in alternating pairs so that drift hits both alike.
type pairs struct {
	r           *rig
	config      layer
	plain, inst span
	tx          int64
	attempted   uint64
	failed      uint64
}

// newPairs builds the program and makes one untimed pair, which lets the
// heap reach steady state.
func newPairs(w workload, p *program, dir string) (*pairs, error) {
	r, err := newRig(p, dir)
	if err != nil {
		return nil, err
	}
	if err := r.calibrate(); err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	for _, l := range []layer{layerPlain, w.config} {
		if _, err := r.run(l, p.vms, nil); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", l, err)
		}
	}
	return &pairs{r: r, config: w.config}, nil
}

// step times one more pair.
func (e *pairs) step() error {
	p0, err := e.r.run(layerPlain, e.r.prog.vms, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", layerPlain, err)
	}
	i0, err := e.r.run(e.config, e.r.prog.vms, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", e.config, err)
	}
	e.plain.wall, e.plain.cpu = e.plain.wall+p0.wall, e.plain.cpu+p0.cpu
	e.inst.wall, e.inst.cpu = e.inst.wall+i0.wall, e.inst.cpu+i0.cpu
	e.tx += i0.tx
	e.attempted += i0.events
	e.failed += i0.lost
	return nil
}

// report writes the runtime metrics. They are totals over every timed
// pair, not medians of runs: the host's speed drifts over seconds, and a
// total weighs every moment alike where a median jumps between slow and
// fast phases.
func (e *pairs) report(m map[string]float64) {
	m["tx_per_s"] = float64(e.tx) / e.inst.wall.Seconds()
	m["cpu_us_per_tx"] = usPerTx(e.inst.cpu, e.tx)
	m["overhead_us_per_tx"] = usPerTx(e.inst.cpu-e.plain.cpu, e.tx)
}

// buildPhase alternates set-ups with body and assertion edits of the
// codebase against a warm cache for the budget, and writes setup_s and
// the median rebuild times.
func buildPhase(w workload, p *program, budget time.Duration, dir string, m map[string]float64) error {
	su := newSetups(w, p, dir)
	rb, err := newRebuilder(p, true)
	if err != nil {
		return err
	}
	var bs, as []float64
	deadline := time.Now().Add(budget)
	for len(bs) < minPairs || time.Now().Before(deadline) {
		if err := su.once(); err != nil {
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
		bs = append(bs, float64(b.wall)/1e6)
		as = append(as, float64(a.wall)/1e6)
	}
	m["rebuild_body_ms"] = median(bs)
	m["rebuild_assert_ms"] = median(as)
	m["setup_s"], err = su.median()
	return err
}

// rebuildEndToEnd is the rebuild workload's measurement: a transaction is
// one warm rebuild. Each cycle makes a body edit and an assertion edit with
// TESLA, checks the edited program's verdict, and makes the same two edits
// to a Default (uninstrumented) build, whose CPU is the overhead baseline
// of figure 10's incremental rows. A set-up starts each cycle.
func rebuildEndToEnd(w workload, p *program, budget time.Duration, dir string) (result, error) {
	res := result{metrics: map[string]float64{}}
	if err := resetPeakRSS(); err != nil {
		return res, err
	}
	su := newSetups(w, p, dir)
	tesla, err := newRebuilder(p, true)
	if err != nil {
		return res, err
	}
	dflt, err := newRebuilder(p, false)
	if err != nil {
		return res, err
	}
	var bodyMs, assertMs, walls, cpus, overheads []float64
	deadline := time.Now().Add(budget)
	for len(walls) < minPairs || time.Now().Before(deadline) {
		if err := su.once(); err != nil {
			return res, err
		}
		tb, err := tesla.next(editBody)
		if err != nil {
			return res, err
		}
		ta, err := tesla.next(editAssert)
		if err != nil {
			return res, err
		}
		if err := checkCodebaseVerdict(p, ta.b, tesla.body, tesla.assert, dir); err != nil {
			return res, err
		}
		db, err := dflt.next(editBody)
		if err != nil {
			return res, err
		}
		da, err := dflt.next(editAssert)
		if err != nil {
			return res, err
		}
		bodyMs = append(bodyMs, float64(tb.wall)/1e6)
		assertMs = append(assertMs, float64(ta.wall)/1e6)
		walls = append(walls, (tb.wall + ta.wall).Seconds())
		cpus = append(cpus, usPerTx(tb.cpu+ta.cpu, 2))
		overheads = append(overheads, usPerTx(tb.cpu+ta.cpu-db.cpu-da.cpu, 2))
		res.attempted += 2
	}
	res.metrics["rebuild_body_ms"] = median(bodyMs)
	res.metrics["rebuild_assert_ms"] = median(assertMs)
	res.metrics["tx_per_s"] = 2 / median(walls)
	res.metrics["cpu_us_per_tx"] = median(cpus)
	res.metrics["overhead_us_per_tx"] = median(overheads)
	if res.metrics["setup_s"], err = su.median(); err != nil {
		return res, err
	}
	res.metrics["peak_rss_mb"], err = peakRSSMB()
	return res, err
}

// checkCodebaseVerdict runs an edited codebase once and compares its
// violations with the known answer of that assertion version.
func checkCodebaseVerdict(p *program, b *toolchain.Build, body, assert int, dir string) error {
	one := *p
	one.calls = 1
	one.txPerRep = 1
	src := p.sources(body, assert)
	want := codebaseWant(src, assert)
	one.want = func(int) map[string]int { return want }
	r := &rig{prog: &one, inst: b, plain: b, dir: dir}
	if _, err := r.run(layerMonitor, 1, nil); err != nil {
		return fmt.Errorf("rebuild assertion version %d: %w", assert, err)
	}
	return nil
}
