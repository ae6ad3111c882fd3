package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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
			// The cutter alternates the two cut paths: CutSince, and
			// AppendCut decoded back with Read. Both must keep every
			// assertion below.
			var buf []byte
			check := func() {
				var tr *Trace
				var next *Cut
				if cuts%2 == 0 {
					tr, next = rec.CutSince(cut)
				} else {
					var events int
					var dropped uint64
					buf, next, events, dropped = rec.AppendCut(buf[:0], cut)
					var err error
					if tr, err = Read(bytes.NewReader(buf)); err != nil {
						t.Fatalf("cut %d: AppendCut bytes do not decode: %v", cuts, err)
					}
					if len(tr.Events) != events || tr.Dropped != dropped {
						t.Fatalf("cut %d: AppendCut reported %d events, %d dropped; decoded %d, %d", cuts, events, dropped, len(tr.Events), tr.Dropped)
					}
				}
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

		// AppendCut into a warm buffer allocates nothing per event: the
		// encoding goes straight from the ring slots into dst.
		var dst []byte
		record(10000)
		dst, cut, _, _ = rec.AppendCut(dst, cut)
		perAppend := map[int]float64{}
		for _, n := range []int{10, 10000} {
			perAppend[n] = testing.AllocsPerRun(20, func() {
				record(n)
				dst, cut, _, _ = rec.AppendCut(dst[:0], cut)
			})
		}
		if perAppend[10] != perAppend[10000] {
			t.Fatalf("%d thread(s): allocations per AppendCut vary with delta size: %v", threads, perAppend)
		}
	}
}

// TestAppendCutMatchesWrite holds the encoding cut to its reference on a
// quiesced recorder: for lossless rings, overwriting rings and injected
// DropFault drops, AppendCut(prev) yields exactly the bytes
// Write(CutSince(prev)) does, the same counts and the same watermark.
// The deltas run from empty to several times Write's 64 KiB chunk.
func TestAppendCutMatchesWrite(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ringCap int
		drop    bool
	}{
		{"lossless", 1 << 16, false},
		{"overwriting", 100, false},
		{"injected", 1 << 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			rec := NewRecorder([]*automata.Automaton{{Name: "a"}, {Name: "b"}}, tc.ringCap)
			if tc.drop {
				rec.DropFault = func() bool { return r.Intn(5) == 0 }
			}
			taps := []monitor.ThreadTap{rec.ThreadTap(0), rec.ThreadTap(1), rec.ThreadTap(2)}
			cls := &core.Class{Name: "a", States: 4, Limit: 4}
			fns := []string{"open", "close", "read", ""}
			var cut *Cut
			var dst []byte
			var lost uint64
			for round, n := range []int{0, 1, 7, 300, 5000, 0, 20000, 64} {
				for i := 0; i < n; i++ {
					switch v := core.Value(r.Intn(1000)); r.Intn(4) {
					case 0:
						rec.Transition(cls, &core.Instance{Key: core.NewKey(v)}, 0, uint32(r.Intn(4)), fns[r.Intn(len(fns))])
					case 1:
						rec.Fail(&core.Violation{Class: cls, Kind: core.VerdictBadTransition, Key: core.Key{}.Set(2, v), Symbol: fns[r.Intn(len(fns))]})
					default:
						taps[r.Intn(len(taps))].ProgramEvent(monitor.ProgramEvent{
							Kind: monitor.ProgReturn, Fn: fns[r.Intn(len(fns))], Vals: []core.Value{v, -v}, Ret: v, HasRet: true, Time: int64(i),
						})
					}
				}
				tr, wantNext := rec.CutSince(cut)
				var want bytes.Buffer
				if err := Write(&want, tr); err != nil {
					t.Fatal(err)
				}
				var events int
				var dropped uint64
				var next *Cut
				dst, next, events, dropped = rec.AppendCut(dst[:0], cut)
				if !bytes.Equal(dst, want.Bytes()) {
					t.Fatalf("round %d: AppendCut bytes (%d) differ from Write(CutSince) (%d)", round, len(dst), want.Len())
				}
				if events != len(tr.Events) || dropped != tr.Dropped || !reflect.DeepEqual(next, wantNext) {
					t.Fatalf("round %d: AppendCut reported %d events, %d dropped, cut %+v; CutSince %d, %d, %+v",
						round, events, dropped, next, len(tr.Events), tr.Dropped, wantNext)
				}
				lost += dropped
				cut = next
			}
			if tc.ringCap < 1<<16 || tc.drop {
				if lost == 0 {
					t.Fatal("nothing was lost: the loss accounting went untested")
				}
			} else if lost != 0 {
				t.Fatalf("%d events lost from rings that never filled", lost)
			}
		})
	}
}

// chunkWriter records the size of every Write it receives.
type chunkWriter struct {
	bytes.Buffer
	writes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestWriteChunks: Write hands its writer the encoding in writeChunk-sized
// pieces (each ends at the first event boundary past the chunk size), so
// a long trace reaches the writer in a few large writes, and a short one
// in one.
func TestWriteChunks(t *testing.T) {
	tr := &Trace{FormatVersion: Version, Automata: []string{"a"}}
	for i := 0; i < 40000; i++ {
		tr.Events = append(tr.Events, Event{Seq: uint64(i + 1), Kind: KindProgram, Fn: "f", Vals: []core.Value{core.Value(i)}})
	}
	var w chunkWriter
	if err := Write(&w, tr); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) < 2 {
		t.Fatalf("%d-byte trace reached the writer in %d write(s)", w.Len(), len(w.writes))
	}
	for i, n := range w.writes[:len(w.writes)-1] {
		if n < writeChunk || n > writeChunk+64 {
			t.Fatalf("write %d: %d bytes, want one event past %d", i, n, writeChunk)
		}
	}
	got, err := Read(&w.Buffer)
	if err != nil || !reflect.DeepEqual(got, tr) {
		t.Fatalf("chunked trace does not round-trip: %v", err)
	}
	var short chunkWriter
	if err := Write(&short, &Trace{FormatVersion: Version, Events: tr.Events[:10]}); err != nil {
		t.Fatal(err)
	}
	if len(short.writes) != 1 {
		t.Fatalf("10-event trace reached the writer in %d writes", len(short.writes))
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
			var dst []Event
			mergeRuns(runs, func(ev *Event) { dst = append(dst, *ev) })
			if len(dst) != n {
				t.Fatalf("merged %d events, want %d", len(dst), n)
			}
			for i, ev := range dst {
				if ev.Seq != uint64(i+1) {
					t.Fatalf("position %d: seq %d", i, ev.Seq)
				}
			}
		})
	}
}
