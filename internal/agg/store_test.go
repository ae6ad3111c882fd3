package agg

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"tesla/internal/core"
	"tesla/internal/dtrace"
	"tesla/internal/trace"
)

// randomLifecycleTrace builds a trace of lifecycle events over a few
// classes — the multi-process merging corpus. seqBase keeps sequence
// numbers distinct across simulated processes.
func randomLifecycleTrace(r *rand.Rand, seqBase uint64, n int) *trace.Trace {
	classes := []string{"alpha", "beta", "gamma"}
	symbols := []string{"open", "close", "check", ""}
	verdicts := []core.VerdictKind{core.VerdictNoInstance, core.VerdictBadTransition}
	tr := &trace.Trace{FormatVersion: trace.Version, Automata: classes}
	for i := 0; i < n; i++ {
		ev := trace.Event{Seq: seqBase + uint64(i) + 1, Thread: -1}
		switch r.Intn(5) {
		case 0, 1:
			ev.Kind = trace.KindTransition
			ev.Class = classes[r.Intn(len(classes))]
			ev.From = uint32(r.Intn(3))
			ev.To = uint32(r.Intn(3))
			ev.Symbol = symbols[r.Intn(3)]
		case 2:
			ev.Kind = trace.KindAccept
			ev.Class = classes[r.Intn(len(classes))]
		case 3:
			ev.Kind = trace.KindFail
			ev.Class = classes[r.Intn(len(classes))]
			ev.Symbol = symbols[r.Intn(len(symbols))]
			ev.Verdict = verdicts[r.Intn(len(verdicts))]
		case 4:
			// Noise the aggregator must count but not aggregate.
			ev.Kind = trace.KindInit
			ev.Class = classes[r.Intn(len(classes))]
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

// TestSummarizeParity is the multi-trace merging differential: ingesting
// N processes' traces into the fleet store and then asking it to
// Summarize must equal dtrace.Summarize over the concatenation of those
// traces — same keys, same counts, byte for byte. Fleet aggregation is
// dtrace scaled out, not a second opinion.
func TestSummarizeParity(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		store := NewStore(StoreOpts{Stripes: 1 + r.Intn(8), Seed: int64(round)})
		merged := &trace.Trace{FormatVersion: trace.Version}
		nProcs := 1 + r.Intn(6)
		for p := 0; p < nProcs; p++ {
			tr := randomLifecycleTrace(r, uint64(p)*100000, r.Intn(400))
			store.IngestTrace(procName(p), tr)
			merged.Events = append(merged.Events, tr.Events...)
		}
		want := dtrace.Summarize(merged)
		got := store.Summarize()
		for _, pair := range []struct {
			name      string
			want, got *dtrace.Aggregation
		}{
			{"transitions", want.Transitions, got.Transitions},
			{"accepts", want.Accepts, got.Accepts},
			{"failures", want.Failures, got.Failures},
		} {
			w, g := pair.want.Snapshot(), pair.got.Snapshot()
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("round %d: %s diverge\ndtrace: %v\nfleet:  %v", round, pair.name, w, g)
			}
		}
	}
}

func procName(p int) string { return string(rune('a'+p)) + "-proc" }

// TestFleetCounts checks the fleet rollup arithmetic and orderings.
func TestFleetCounts(t *testing.T) {
	store := NewStore(StoreOpts{})
	t1 := &trace.Trace{Events: []trace.Event{
		{Seq: 1, Kind: trace.KindTransition, Class: "c", From: 0, To: 1, Symbol: "s"},
		{Seq: 2, Kind: trace.KindFail, Class: "c", Symbol: "site", Verdict: core.VerdictNoInstance},
	}, Dropped: 3}
	t2 := &trace.Trace{Events: []trace.Event{
		{Seq: 1, Kind: trace.KindFail, Class: "c", Symbol: "site", Verdict: core.VerdictNoInstance},
		{Seq: 2, Kind: trace.KindAccept, Class: "c"},
	}}
	store.IngestTrace("p1", t1)
	store.IngestTrace("p2", t2)
	store.IngestTrace("p2", t1) // p2 sends a second frame

	sum := store.Fleet()
	if sum.TotalFrames != 3 || sum.TotalEvents != 6 {
		t.Fatalf("fleet totals: frames=%d events=%d", sum.TotalFrames, sum.TotalEvents)
	}
	if sum.RingDropped != 6 {
		t.Fatalf("ring dropped = %d, want 6", sum.RingDropped)
	}
	if sum.TotalFailures != 3 || sum.FailureSites != 2 {
		t.Fatalf("failures: total=%d sites=%d", sum.TotalFailures, sum.FailureSites)
	}
	if len(sum.Producers) != 2 || sum.Producers[0].Process != "p1" || sum.Producers[1].Events != 4 {
		t.Fatalf("producers: %+v", sum.Producers)
	}

	fails := store.Failures()
	if len(fails) != 1 {
		t.Fatalf("failure sites: %+v", fails)
	}
	f := fails[0]
	if f.Class != "c" || f.Total != 3 || len(f.PerProcess) != 2 {
		t.Fatalf("failure site: %+v", f)
	}
	if f.PerProcess[0].Process != "p2" || f.PerProcess[0].Count != 2 {
		t.Fatalf("per-process not count-descending: %+v", f.PerProcess)
	}

	top := store.TopK("c", 10)
	if len(top) != 1 || top[0].Site != "0->1 @ s" || top[0].Count != 2 {
		t.Fatalf("topk: %+v", top)
	}
}

// TestReservoirSamples: below the cap every failure window is kept with
// its leading context; above the cap the reservoir stays at the cap.
func TestReservoirSamples(t *testing.T) {
	store := NewStore(StoreOpts{SampleCap: 3, Window: 2, Seed: 1})
	var evs []trace.Event
	for i := 0; i < 40; i++ {
		evs = append(evs, trace.Event{Seq: uint64(i*2 + 1), Kind: trace.KindTransition, Class: "c", From: 0, To: 1, Symbol: "t"})
		evs = append(evs, trace.Event{Seq: uint64(i*2 + 2), Kind: trace.KindFail, Class: "c", Symbol: "site", Verdict: core.VerdictNoInstance})
	}
	store.IngestTrace("p", &trace.Trace{Events: evs})
	samples := store.Samples("c")
	if len(samples) != 3 {
		t.Fatalf("reservoir size %d, want cap 3", len(samples))
	}
	for _, s := range samples {
		last := s.Events[len(s.Events)-1]
		if last.Kind != trace.KindFail {
			t.Fatalf("sample does not end at the failure: %+v", s.Events)
		}
		if len(s.Events) > 3 {
			t.Fatalf("sample window exceeds Window+1: %d", len(s.Events))
		}
	}

	// Two failures only, cap 3: full capture, context preserved in order.
	store2 := NewStore(StoreOpts{SampleCap: 3, Window: 4})
	store2.IngestTrace("p", &trace.Trace{Events: []trace.Event{
		{Seq: 1, Kind: trace.KindTransition, Class: "c", Symbol: "a"},
		{Seq: 2, Kind: trace.KindFail, Class: "c", Symbol: "x", Verdict: core.VerdictNoInstance},
	}})
	got := store2.Samples("")
	if len(got) != 1 || len(got[0].Events) != 2 || got[0].Events[0].Symbol != "a" {
		t.Fatalf("context window wrong: %+v", got)
	}
}

// TestHealthRollup: latest-wins per producer, summed fleet-wide.
func TestHealthRollup(t *testing.T) {
	store := NewStore(StoreOpts{})
	store.MergeHealth("p1", []HealthRow{{Class: "c", Overflows: 1, Live: 2}})
	store.MergeHealth("p1", []HealthRow{{Class: "c", Overflows: 5, Live: 1}}) // cumulative update
	store.MergeHealth("p2", []HealthRow{{Class: "c", Overflows: 2, Quarantined: true}})
	hs := store.Health()
	if len(hs) != 1 || hs[0].Overflows != 7 || hs[0].Live != 1 || hs[0].Quarantined != 1 {
		t.Fatalf("health rollup: %+v", hs)
	}
}

// slidingWindowSamples is the reference failure-sample rule: a window of
// the last `window` events slid along the frame one event at a time, each
// failure sampled as the window's contents plus the failing event.
func slidingWindowSamples(events []trace.Event, window int) [][]trace.Event {
	var out [][]trace.Event
	var win []trace.Event
	for _, ev := range events {
		if ev.Kind == trace.KindFail {
			out = append(out, append(append([]trace.Event(nil), win...), ev))
		}
		if len(win) == window {
			win = win[1:]
		}
		win = append(win, ev)
	}
	return out
}

// TestIngestSampleWindow pins the failure samples IngestFrame takes while
// it decodes to the sliding-window rule, at the edges of its Window+1
// ring: failures at index 0 (no context), at Window-1 (one event short of
// a full window), at Window and Window+1 (the first full windows, the
// second after the ring wraps), back to back, and at the frame end. A
// frame whose decode dies mid-way still aggregates and counts the events
// before the break, and is marked bad.
func TestIngestSampleWindow(t *testing.T) {
	for _, window := range []int{1, 2, 8, 40} {
		n := window + 12
		fails := map[int]bool{0: true, window - 1: true, window: true, window + 1: true,
			window + 5: true, window + 6: true, n - 1: true}
		var events []trace.Event
		for i := 0; i < n; i++ {
			ev := trace.Event{Seq: uint64(i + 1), Thread: -1, Kind: trace.KindTransition, Class: "c", Symbol: "s"}
			switch {
			case fails[i]:
				ev.Kind, ev.Verdict = trace.KindFail, core.VerdictBadTransition
			case i%4 == 1:
				ev = trace.Event{Seq: uint64(i + 1), Kind: trace.KindProgram, Fn: "f", Vals: []core.Value{core.Value(i)}}
			}
			events = append(events, ev)
		}
		encode := func(evs []trace.Event) []byte {
			var enc bytes.Buffer
			if err := trace.Write(&enc, &trace.Trace{FormatVersion: trace.Version, Automata: []string{"c"}, Events: evs}); err != nil {
				t.Fatal(err)
			}
			return enc.Bytes()
		}
		checkSamples := func(store *Store, evs []trace.Event) {
			t.Helper()
			got := store.Samples("c")
			want := slidingWindowSamples(evs, window)
			if len(got) != len(want) {
				t.Fatalf("window %d: %d samples, want %d", window, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].Events, want[i]) {
					t.Fatalf("window %d, sample %d:\n got %v\nwant %v", window, i, got[i].Events, want[i])
				}
			}
		}
		payload := append(binary.AppendUvarint(nil, uint64(n)), encode(events)...)

		store := NewStore(StoreOpts{Window: window, SampleCap: len(fails)})
		if err := store.IngestFrame("p", payload); err != nil {
			t.Fatal(err)
		}
		checkSamples(store, events)

		// Cut the frame one byte into event k. Every count here encodes
		// in one byte, so the encoding of events[:k] ends exactly where
		// event k starts in the full frame.
		k := window + 3
		torn := payload[:1+len(encode(events[:k]))+1]
		store = NewStore(StoreOpts{Window: window, SampleCap: len(fails)})
		if err := store.IngestFrame("p", torn); err == nil {
			t.Fatalf("window %d: torn frame accepted", window)
		}
		checkSamples(store, events[:k])
		f := store.Fleet()
		if len(f.Producers) != 1 || f.Producers[0].Events != uint64(k) || f.Producers[0].BadFrames != 1 || f.TotalEvents != uint64(k) {
			t.Fatalf("window %d: torn frame accounted as %+v, want %d events and one bad frame", window, f.Producers, k)
		}
	}
}
