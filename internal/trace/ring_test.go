package trace

import (
	"testing"
	"unsafe"
)

// held returns the events r still holds, oldest first, and how many it
// has overwritten.
func held(r *ring) ([]Event, uint64) {
	from, lost := r.since(0)
	var out []Event
	for p := from; p < r.pushed; p++ {
		out = append(out, *r.at(p))
	}
	return out, lost
}

// TestRingChunkEdges pins the demand-paged layout at its edges: a bound
// below one chunk, a bound that is not a multiple of the chunk size (so
// the last chunk is short), and wrap-around across chunk boundaries. In
// every case the ring must keep exactly the newest min(pushed, cap)
// events in push order, count the rest as overwritten, and allocate a
// chunk only once a slot in it is written.
func TestRingChunkEdges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cap    int
		pushes int
	}{
		{"cap below chunk, not full", 10, 7},
		{"cap below chunk, wrapped", 10, 37},
		{"one exact chunk, wrapped", ringChunk, ringChunk + 5},
		{"short last chunk, not full", 2*ringChunk + 100, 2*ringChunk + 50},
		{"short last chunk, exactly full", 2*ringChunk + 100, 2*ringChunk + 100},
		{"short last chunk, wrapped past a chunk boundary", 2*ringChunk + 100, 3*ringChunk + 300},
		{"wrapped several times", 3*ringChunk + 1, 10*ringChunk + 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing(tc.cap)
			if want := (tc.cap + ringChunk - 1) / ringChunk; len(r.chunks) != want {
				t.Fatalf("%d chunk slots, want %d", len(r.chunks), want)
			}
			for _, c := range r.chunks {
				if c != nil {
					t.Fatal("chunk allocated before any push")
				}
			}
			for i := 1; i <= tc.pushes; i++ {
				*r.next() = Event{Seq: uint64(i)}
			}
			kept := min(tc.pushes, tc.cap)
			got, lost := held(r)
			if len(got) != kept || lost != uint64(tc.pushes-kept) {
				t.Fatalf("held %d, lost %d; want %d, %d", len(got), lost, kept, tc.pushes-kept)
			}
			for i, ev := range got {
				if want := uint64(tc.pushes - kept + i + 1); ev.Seq != want {
					t.Fatalf("position %d: seq %d, want %d", i, ev.Seq, want)
				}
			}
			slots := 0
			for c, chunk := range r.chunks {
				touched := c*ringChunk < kept
				if (chunk != nil) != touched {
					t.Fatalf("chunk %d allocated=%v, written=%v", c, chunk != nil, touched)
				}
				slots += len(chunk)
			}
			if kept == tc.cap && slots != tc.cap {
				t.Fatalf("full ring allocated %d slots for a bound of %d", slots, tc.cap)
			}
		})
	}
}

// TestRingSinceWatermarks checks the delta arithmetic a cut relies on: a
// watermark still inside the ring loses nothing, one the ring has passed
// loses exactly the overwritten positions.
func TestRingSinceWatermarks(t *testing.T) {
	r := newRing(ringChunk + 3)
	for i := 1; i <= 2*ringChunk; i++ {
		*r.next() = Event{Seq: uint64(i)}
	}
	oldest := uint64(2*ringChunk - (ringChunk + 3))
	for _, prev := range []uint64{0, oldest - 1, oldest, oldest + 1, r.pushed} {
		from, lost := r.since(prev)
		wantFrom := max(prev, oldest)
		if from != wantFrom || lost != wantFrom-prev {
			t.Fatalf("since(%d) = %d, %d; want %d, %d", prev, from, lost, wantFrom, wantFrom-prev)
		}
		if from < r.pushed && r.at(from).Seq != from+1 {
			t.Fatalf("since(%d): first held seq %d, want %d", prev, r.at(from).Seq, from+1)
		}
	}
}

// TestEventSize pins the ring slot. Every recorded event costs one slot:
// zeroed when its chunk is allocated, written once by the recording
// thread, and copied once more per Snapshot. The field order packs the
// one-byte fields with From, To and State; regrowing the struct should
// be a deliberate choice.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 280 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d bytes, want 280", got)
	}
}
