package trace

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// TestCutPrefixProperty runs a cutter against 8 recording threads and
// concurrent lifecycle handlers. Every
// cut must be strictly ascending and start above the previous cut's last
// Seq, and over the run delivered + Dropped must equal EventCount. With
// rings large enough to lose nothing, each cut must be exactly the next
// consecutive Seq range: the exact-prefix property, for any thread count.
func TestCutPrefixProperty(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ringCap int
	}{
		{"lossless", 1 << 16},
		{"overwriting", 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			autos := []*automata.Automaton{{Name: "a"}}
			cls := &core.Class{Name: "a", States: 4, Limit: 4}
			rec := NewRecorder(autos, tc.ringCap)

			const threads, handlers, rounds = 8, 2, 400
			var recording sync.WaitGroup
			var done atomic.Bool
			for g := 0; g < threads; g++ {
				tap := rec.ThreadTap(g)
				recording.Add(1)
				go func(g int) {
					defer recording.Done()
					for i := 0; i < rounds; i++ {
						tap.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgCall, Fn: "f", Vals: []core.Value{core.Value(g)}})
					}
				}(g)
			}
			for h := 0; h < handlers; h++ {
				recording.Add(1)
				go func(h int) {
					defer recording.Done()
					for i := 0; i < rounds; i++ {
						inst := &core.Instance{Key: core.NewKey(core.Value(h*rounds + i))}
						rec.Transition(cls, inst, 0, 1, "sym")
						rec.Accept(cls, inst)
					}
				}(h)
			}

			var cut *Cut
			var delivered, dropped, last uint64
			cuts := 0
			check := func() {
				tr, next := rec.CutSince(cut)
				cut = next
				cuts++
				for i, ev := range tr.Events {
					if ev.Seq <= last {
						t.Fatalf("cut %d event %d: seq %d not above %d", cuts, i, ev.Seq, last)
					}
					if tr.Dropped == 0 && ev.Seq != last+1 {
						t.Fatalf("cut %d: seq %d follows %d with nothing dropped", cuts, ev.Seq, last)
					}
					last = ev.Seq
				}
				delivered += uint64(len(tr.Events))
				dropped += tr.Dropped
				if last > delivered+dropped {
					t.Fatalf("cut %d: reached seq %d but accounted for only %d events", cuts, last, delivered+dropped)
				}
			}
			go func() {
				recording.Wait()
				done.Store(true)
			}()
			for !done.Load() {
				check()
			}
			check()
			if got := delivered + dropped; got != rec.EventCount() {
				t.Fatalf("delivered %d + dropped %d = %d, EventCount %d", delivered, dropped, got, rec.EventCount())
			}
			if tc.ringCap >= 1<<16 && dropped != 0 {
				t.Fatalf("%d events dropped from rings that never filled", dropped)
			}
			if cuts < 2 {
				t.Fatalf("only %d cuts: the cutter never overlapped recording", cuts)
			}
		})
	}
}

// TestCutAllocs pins the cut's cost model: one exactly-sized result and a
// fixed set of small allocations, so the allocation count of a cut does
// not depend on how many events it carries, nor on how many rings merge.
func TestCutAllocs(t *testing.T) {
	cls := &core.Class{Name: "a", States: 4, Limit: 4}
	for _, threads := range []int{1, 8} {
		rec := NewRecorder([]*automata.Automaton{{Name: "a"}}, 1<<13)
		taps := make([]monitor.ThreadTap, threads)
		for i := range taps {
			taps[i] = rec.ThreadTap(i)
		}
		inst := &core.Instance{}
		record := func(n int) {
			for i := 0; i < n; i++ {
				if i%3 == 0 {
					rec.Transition(cls, inst, 0, 1, "sym")
				} else {
					taps[i%threads].ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgCall, Fn: "f"})
				}
			}
		}
		// Fill every ring once so the measured cuts see no chunk allocation.
		record(3 * threads << 13)
		_, cut := rec.CutSince(nil)

		perCut := map[int]float64{}
		for _, n := range []int{1, 64, 4096} {
			perCut[n] = testing.AllocsPerRun(20, func() {
				record(n)
				_, cut = rec.CutSince(cut)
			})
		}
		if perCut[1] != perCut[64] || perCut[1] != perCut[4096] {
			t.Fatalf("%d thread(s): allocations per cut vary with delta size: %v", threads, perCut)
		}
	}
}

// TestRecorderIdleMemory: ring bounds are not allocated up front, so a
// recorder with 16 thread rings allocates almost nothing before its
// first event.
func TestRecorderIdleMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := NewRecorder([]*automata.Automaton{{Name: "a"}}, 0)
	for i := 0; i < 16; i++ {
		rec.ThreadTap(i)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("NewRecorder + 16 ThreadTaps allocated %d bytes before any event", n)
	}
	runtime.KeepAlive(rec)
}

// TestMergeRuns checks the k-way merge on interleaved, disjoint and
// single-event runs across 1..12 rings.
func TestMergeRuns(t *testing.T) {
	for k := 1; k <= 12; k++ {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			// Deal Seqs 1..n to k rings in a pattern that mixes long
			// single-ring stretches with strict interleaving.
			rings := make([]*ring, k)
			for i := range rings {
				rings[i] = newRing(0)
			}
			n := 0
			for block := 0; block < 50; block++ {
				owner := (block * 7) % k
				width := 1 + block%4
				if block%3 == 0 {
					width = 1
					owner = block % k
				}
				for j := 0; j < width; j++ {
					n++
					*rings[owner].next() = Event{Seq: uint64(n)}
				}
			}
			var runs []run
			for _, rg := range rings {
				if rg.pushed > 0 {
					runs = append(runs, run{rg: rg, end: rg.pushed, seq: rg.at(0).Seq})
				}
			}
			dst := make([]Event, n)
			mergeRuns(dst, runs)
			for i, ev := range dst {
				if ev.Seq != uint64(i+1) {
					t.Fatalf("position %d: seq %d", i, ev.Seq)
				}
			}
		})
	}
}
