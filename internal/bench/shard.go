package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"tesla/internal/core"
)

// FigShard measures the global store's lock striping on an OLTP-shaped
// workload: a pool of keyed sessions (mirroring the SysBench transaction mix
// of figure 11b, where every transaction drives events for one connection's
// binding) updated from a growing number of goroutines, with a required
// assertion-site event every few transactions. Both rungs run the production
// path — the compiled striped body with plans lowered once — and differ only
// in stripe count: one stripe is §3.2's single explicit lock, which
// serialises every event; eight stripes let events for unrelated keys run in
// parallel. Per-event work (O(1) census-driven index lookups) is the same in
// both, so the gap is the cost of serialisation alone.

const (
	// shardFigSessions is the live-session pool; it is deliberately much
	// smaller than shardFigLimit, as in the kernel workloads where instance
	// limits are sized for the worst case.
	shardFigSessions = 128
	shardFigLimit    = 1024
	shardFigKeysPerG = 16
	// shardFigMinEvents is the least number of events one measurement
	// drives, here and in the faults figure.
	shardFigMinEvents = 400000
)

// shardFigPlans lowers the session automaton once: «init» binds the
// connection (slot 0), work events toggle it between two mid states, and the
// required site event self-loops — reaching the assertion site with a live
// session is the success path.
func shardFigPlans(cls *core.Class) (enter, work, site *core.SymbolPlan) {
	enter = core.NewSymbolPlan(cls, "enter", 0, core.TransitionSet{{From: 0, To: 1, Flags: core.TransInit, KeyMask: 1}})
	work = core.NewSymbolPlan(cls, "work", 0, core.TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 1}})
	site = core.NewSymbolPlan(cls, "site", core.SymRequired, core.TransitionSet{{From: 1, To: 1, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}})
	return
}

// shardFigRun builds a store from opts, opens shardFigSessions sessions and
// drives total events through it from g goroutines on disjoint key ranges,
// returning events/sec.
func shardFigRun(opts core.StoreOpts, g, total int) float64 {
	cls := &core.Class{Name: "session", States: 8, Limit: shardFigLimit}
	s := core.NewStoreOpts(opts)
	s.Register(cls)
	enter, work, site := shardFigPlans(cls)
	for k := 0; k < shardFigSessions; k++ {
		s.UpdateStatePlan(enter, core.NewKey(core.Value(k)))
	}

	perG := total / g
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < g; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			base := (t * shardFigKeysPerG) % shardFigSessions
			for i := 0; i < perG; i++ {
				key := core.NewKey(core.Value(base + i%shardFigKeysPerG))
				if i%8 == 7 {
					s.UpdateStatePlan(site, key)
				} else {
					s.UpdateStatePlan(work, key)
				}
			}
		}(t)
	}
	wg.Wait()
	return float64(perG*g) / time.Since(start).Seconds()
}

// FigShard prints events/sec against goroutine count for the global store at
// one stripe and at eight. The two stores are measured in
// interleaved rounds per goroutine count so scheduler drift does not bias
// either side; the best round is reported, as is conventional for
// throughput.
func FigShard(w io.Writer, iters int) error {
	// The compiled path runs millions of events per second; shorter runs
	// would time set-up and scheduler noise rather than events.
	total := iters * 8
	if total < shardFigMinEvents {
		total = shardFigMinEvents
	}
	// The striped rung's stripe count is fixed at 8 across the ladder so
	// the figure varies exactly one thing (goroutines); 0 would track
	// GOMAXPROCS and confound the comparison on small hosts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	fmt.Fprintln(w, "Figure shard: global store throughput, 1 stripe vs 8 stripes (OLTP sessions)")
	fmt.Fprintf(w, "  %-12s %14s %14s %10s\n", "goroutines", "1-stripe ev/s", "8-stripe ev/s", "speedup")
	const rounds = 3
	for _, g := range []int{1, 2, 4, 8} {
		var one, eight float64
		for r := 0; r < rounds; r++ {
			if v := shardFigRun(core.StoreOpts{Context: core.Global, Shards: 1}, g, total); v > one {
				one = v
			}
			if v := shardFigRun(core.StoreOpts{Context: core.Global, Shards: 8}, g, total); v > eight {
				eight = v
			}
		}
		fmt.Fprintf(w, "  %-12d %14.0f %14.0f %9.2fx\n", g, one, eight, eight/one)
	}
	fmt.Fprintln(w, "  reproduction shape: both rungs do the same per-event work, so at one")
	fmt.Fprintln(w, "  goroutine they match within noise; as goroutines are added the single")
	fmt.Fprintln(w, "  stripe serialises every event while eight stripes keep unrelated keys")
	fmt.Fprintln(w, "  apart, so the speedup grows with goroutines")
	fmt.Fprintln(w)
	return nil
}
