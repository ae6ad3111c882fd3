package trace

// ring is a bounded append-only event buffer that overwrites its oldest
// entries when full, counting what it loses. Bounding memory per thread is
// what makes always-on tracing viable in the kernel configurations the
// paper targets: a hot thread can emit millions of events, but debugging a
// violation only ever needs the recent window that led to it.
//
// The capacity is a bound, not an allocation: storage comes in fixed
// ringChunk-event chunks, each allocated the first time one of its slots
// is written, so a ring's memory follows the events it has retained. A
// recorder with many mostly idle threads, or a short run under a large
// bound, never touches the memory the bound would allow.
type ring struct {
	chunks [][]Event // chunk c holds slots [c*ringChunk, (c+1)*ringChunk); nil until first written
	cap    int
	// pushed counts every event ever pushed, including those since
	// overwritten: it is the ring's logical write position. The event
	// pushed at position p lives in slot p % cap until position p+cap
	// overwrites it, so the ring holds the last min(pushed, cap)
	// positions and has overwritten the rest. A cut (Recorder.AppendCut) takes
	// exactly the events after a watermark position and accounts exactly
	// for the ones the ring overwrote in between.
	pushed uint64
}

// defaultRingCap bounds each ring when the caller does not choose a size.
const defaultRingCap = 1 << 16

// ringChunk is the ring's allocation unit, in events.
const ringChunk = 1024

func newRing(capacity int) *ring {
	if capacity <= 0 {
		capacity = defaultRingCap
	}
	return &ring{chunks: make([][]Event, (capacity+ringChunk-1)/ringChunk), cap: capacity}
}

// next claims the slot for the next position, overwriting the oldest
// event when the ring is full, and returns it for the caller to fill.
// Callers assign a whole Event so nothing of an overwritten one survives.
func (r *ring) next() *Event {
	i := int(r.pushed % uint64(r.cap))
	r.pushed++
	c := r.chunks[i/ringChunk]
	if c == nil {
		// Slots are first written in order, so this is the chunk's first
		// slot; the last chunk holds only what is left of the bound.
		c = make([]Event, min(ringChunk, r.cap-i))
		r.chunks[i/ringChunk] = c
	}
	return &c[i%ringChunk]
}

// at returns the event at logical position p, which must still be held.
func (r *ring) at(p uint64) *Event {
	i := int(p % uint64(r.cap))
	return &r.chunks[i/ringChunk][i%ringChunk]
}

// since returns the held positions after the prevPushed watermark,
// [from, r.pushed), and the count of positions after the watermark that
// were already overwritten — exactly the loss a delta consumer must
// account for. Push order, not sequence order, defines the watermark, so
// an event can never land behind a cut and be skipped silently.
func (r *ring) since(prevPushed uint64) (from, lost uint64) {
	from = prevPushed
	if oldest := r.pushed - min(r.pushed, uint64(r.cap)); from < oldest {
		lost = oldest - from
		from = oldest
	}
	return from, lost
}
