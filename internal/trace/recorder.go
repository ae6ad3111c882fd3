package trace

import (
	"sync"
	"sync/atomic"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// Recorder captures a live run into ring buffers. It plugs into the runtime
// at both notification layers:
//
//   - as a monitor.Tap it sees every raw program event per thread, before
//     dispatch, and records it in that thread's own ring;
//   - as a core.Handler it sees every automaton lifecycle event and records
//     it in a shared lifecycle ring (handlers run store-side, where the
//     originating thread is unknown for the global context; those events
//     carry Thread == -1).
//
// One atomic sequence counter spans all rings, so a program event always
// carries a smaller Seq than the lifecycle events it causes. An event takes
// its Seq under the lock of the ring it goes into, so every ring holds its
// events in ascending Seq order and every cut (Snapshot, CutSince,
// AppendCut) merges the rings into one totally-ordered trace without
// sorting. Install it with:
//
//	rec := trace.NewRecorder(build.Autos, 0)
//	rt, err := build.NewRuntime(monitor.Options{Tap: rec, Handler: rec})
//	...
//	tr := rec.Snapshot()
type Recorder struct {
	names []string
	cap   int

	// DropFault, when non-nil, is consulted for every lifecycle event;
	// returning true drops the event (counted in the trace's Dropped
	// total) as if the ring had overflowed. It is the fault-injection
	// seam used by internal/faultinject. Set before recording starts.
	DropFault func() bool

	seq atomic.Uint64

	mu    sync.Mutex // guards sinks (growth), life and injected
	life  *ring
	sinks []*threadSink // append-only: a sink's index is its place in a Cut
	// injected counts DropFault rejections separately from ring
	// overwrites, so a cut can attribute per-cut losses exactly.
	injected uint64
}

// threadSink is one thread's ring. Its mutex is uncontended during normal
// recording (only the owning thread pushes); it exists so a cut can read
// concurrently with live threads without a race, and an event takes its
// Seq and its ring slot under it in one step.
type threadSink struct {
	rec *Recorder
	id  int

	mu   sync.Mutex
	ring *ring
}

// NewRecorder creates a recorder for a run over the given automata.
// perThreadCap bounds each thread's ring (and the shared lifecycle ring);
// <= 0 selects the default (65536 events). The bound is not allocated up
// front: a ring's memory grows in 1024-event chunks as it fills.
func NewRecorder(autos []*automata.Automaton, perThreadCap int) *Recorder {
	names := make([]string, len(autos))
	for i, a := range autos {
		names[i] = a.Name
	}
	return &Recorder{
		names: names,
		cap:   perThreadCap,
		life:  newRing(perThreadCap),
	}
}

// ThreadTap implements monitor.Tap.
func (r *Recorder) ThreadTap(threadID int) monitor.ThreadTap {
	s := &threadSink{rec: r, id: threadID, ring: newRing(r.cap)}
	r.mu.Lock()
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
	return s
}

// ProgramEvent implements monitor.ThreadTap. The event's slices are
// borrowed from the caller, so they are copied here, before the lock.
func (s *threadSink) ProgramEvent(ev monitor.ProgramEvent) {
	var vals []core.Value
	if len(ev.Vals) > 0 {
		vals = append([]core.Value(nil), ev.Vals...)
	}
	var inStack []int
	if len(ev.InStack) > 0 {
		inStack = append([]int(nil), ev.InStack...)
	}
	s.mu.Lock()
	*s.ring.next() = Event{
		Seq:     s.rec.seq.Add(1),
		Thread:  s.id,
		Kind:    KindProgram,
		Time:    ev.Time,
		Prog:    ev.Kind,
		Fn:      ev.Fn,
		Field:   ev.Field,
		Op:      ev.Op,
		Auto:    ev.Auto,
		Sym:     ev.Sym,
		Slot:    ev.Slot,
		Ret:     ev.Ret,
		HasRet:  ev.HasRet,
		Vals:    vals,
		InStack: inStack,
	}
	s.mu.Unlock()
}

// lifeEvent stamps and records one lifecycle event. Handlers are dispatched
// after the store has released its locks, so this only has to serialise
// against other recorder users. DropFault, when set, can reject the event
// before it reaches the ring — the fault-injection seam for simulated ring
// drops (counted like real ones; the event still consumes its Seq).
func (r *Recorder) lifeEvent(ev Event) {
	ev.Thread = -1
	r.mu.Lock()
	ev.Seq = r.seq.Add(1)
	if r.DropFault != nil && r.DropFault() {
		r.injected++
	} else {
		*r.life.next() = ev
	}
	r.mu.Unlock()
}

// InstanceNew implements core.Handler.
func (r *Recorder) InstanceNew(cls *core.Class, inst *core.Instance) {
	r.lifeEvent(Event{Kind: KindInit, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// InstanceClone implements core.Handler.
func (r *Recorder) InstanceClone(cls *core.Class, parent, clone *core.Instance) {
	r.lifeEvent(Event{Kind: KindClone, Class: cls.Name, Key: clone.Key, ParentKey: parent.Key, State: clone.State})
}

// Transition implements core.Handler.
func (r *Recorder) Transition(cls *core.Class, inst *core.Instance, from, to uint32, symbol string) {
	r.lifeEvent(Event{Kind: KindTransition, Class: cls.Name, Key: inst.Key, From: from, To: to, Symbol: symbol})
}

// Accept implements core.Handler.
func (r *Recorder) Accept(cls *core.Class, inst *core.Instance) {
	r.lifeEvent(Event{Kind: KindAccept, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// Fail implements core.Handler.
func (r *Recorder) Fail(v *core.Violation) {
	r.lifeEvent(Event{Kind: KindFail, Class: v.Class.Name, Key: v.Key, State: v.State, Symbol: v.Symbol, Verdict: v.Kind})
}

// Overflow implements core.Handler.
func (r *Recorder) Overflow(cls *core.Class, key core.Key) {
	r.lifeEvent(Event{Kind: KindOverflow, Class: cls.Name, Key: key})
}

// Evict implements core.Handler.
func (r *Recorder) Evict(cls *core.Class, inst *core.Instance) {
	r.lifeEvent(Event{Kind: KindEvict, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// Quarantine implements core.Handler.
func (r *Recorder) Quarantine(cls *core.Class, on bool) {
	r.lifeEvent(Event{Kind: KindQuarantine, Class: cls.Name, On: on})
}

// EventCount returns how many events have been recorded so far, including
// any that ring overflow has since discarded.
func (r *Recorder) EventCount() uint64 { return r.seq.Load() }

// Snapshot merges all rings into one Seq-ordered trace: the whole run so
// far, as CutSince(nil) sees it. It may be called while threads are still
// recording.
func (r *Recorder) Snapshot() *Trace {
	tr, _ := r.CutSince(nil)
	return tr
}

// Cut is a watermark over every ring of a Recorder, as returned by
// CutSince and AppendCut. The zero value (or nil) means "the beginning of
// the run".
type Cut struct {
	life     uint64
	injected uint64
	sinks    []uint64 // push positions, in sink registration order
}

// CutSince returns the events recorded after prev (nil for the start of
// the run) as a delta trace, plus the new watermark to pass next time.
// The delta's Dropped field counts only what was lost since prev — ring
// overwrites of not-yet-cut events and injected drops — so a consumer
// summing delta lengths and delta Dropped fields accounts for every
// event the run emitted, exactly once.
//
// CutSince copies each event once, out of its ring into a result sized
// exactly from the watermarks. It serves Snapshot and anything else that
// needs events in memory; a flusher that only ships the delta uses
// AppendCut, which encodes straight from the rings.
func (r *Recorder) CutSince(prev *Cut) (*Trace, *Cut) {
	tr := &Trace{FormatVersion: Version, Automata: append([]string(nil), r.names...)}
	next := r.cut(prev, func(events int, dropped uint64) {
		tr.Dropped = dropped
		tr.Events = make([]Event, 0, events)
	}, func(ev *Event) {
		tr.Events = append(tr.Events, *ev)
	})
	return tr, next
}

// AppendCut appends the binary encoding of the delta since prev — the
// bytes Write would produce for CutSince(prev)'s trace — to dst, and
// returns the extended buffer, the new watermark, and the delta's event
// count and loss. Each event is encoded straight from its ring slot; no
// event is copied. This is the producer side of live streaming, to the
// WAL trace spool and to an aggregation service: flush deltas while the
// run is hot, with loss explicit, never silent. A flusher that keeps dst
// across flushes allocates the same per cut whatever the cut's size.
func (r *Recorder) AppendCut(dst []byte, prev *Cut) (out []byte, next *Cut, events int, dropped uint64) {
	enc := newEncoder(dst)
	next = r.cut(prev, func(n int, lost uint64) {
		events, dropped = n, lost
		enc.header(lost, r.names, n)
	}, enc.event)
	return enc.buf, next, events, dropped
}

// cut is the one barrier every cut goes through. It locks every ring
// before reading any, so the watermark captures one instant, then calls
// begin with the delta's event count and loss, hands emit every event
// after prev in ascending Seq order, and returns the new watermark. The
// events passed to emit are the ring slots themselves, valid only until
// emit returns.
//
// Because an event takes its Seq under the lock of the ring it goes into,
// every Seq handed out before the barrier's instant is already in its
// ring and every later one is not: each cut is an exact Seq-prefix of the
// run, for any number of threads — the property the WAL trace spool's
// crash-recovery invariant ("a recovered spool is a verbatim prefix of
// the uncrashed run") rests on. Reading one ring at a time instead would
// let an event land in a not-yet-read ring while a causally-later event
// in an already-read ring is missed, punching a Seq hole through the
// final, never-followed-up cut of a killed process.
func (r *Recorder) cut(prev *Cut, begin func(events int, dropped uint64), emit func(*Event)) *Cut {
	if prev == nil {
		prev = &Cut{}
	}

	// Lock order: r.mu, then every sink. Push paths take a single sink
	// lock (never r.mu under it) and lifeEvent takes r.mu alone, so this
	// cannot deadlock against recording.
	r.mu.Lock()
	for _, s := range r.sinks {
		s.mu.Lock()
	}
	next := &Cut{life: r.life.pushed, injected: r.injected, sinks: make([]uint64, len(r.sinks))}
	dropped := r.injected - prev.injected
	runs := make([]run, 0, len(r.sinks)+1)
	total := 0
	addRun := func(rg *ring, prevPushed uint64) {
		from, lost := rg.since(prevPushed)
		dropped += lost
		if from < rg.pushed {
			runs = append(runs, run{rg: rg, p: from, end: rg.pushed, seq: rg.at(from).Seq})
			total += int(rg.pushed - from)
		}
	}
	addRun(r.life, prev.life)
	for i, s := range r.sinks {
		var prevPushed uint64
		if i < len(prev.sinks) {
			prevPushed = prev.sinks[i]
		}
		addRun(s.ring, prevPushed)
		next.sinks[i] = s.ring.pushed
	}
	begin(total, dropped)
	mergeRuns(runs, emit)
	for _, s := range r.sinks {
		s.mu.Unlock()
	}
	r.mu.Unlock()
	return next
}

// run is one ring's part of a cut: positions [p, end), ascending by Seq;
// seq is the Seq of the event at p.
type run struct {
	rg     *ring
	p, end uint64
	seq    uint64
}

// mergeRuns k-way-merges Seq-ascending runs into emit. Each step scans
// for the run with the smallest head Seq and emits from it until its Seq
// passes the next-smallest head, so long single-ring stretches cost one
// selection, not one per event. A cut has one run per recording thread
// plus the lifecycle ring, so each scan covers only a handful of runs.
func mergeRuns(runs []run, emit func(*Event)) {
	for len(runs) > 0 {
		i := 0
		for k := 1; k < len(runs); k++ {
			if runs[k].seq < runs[i].seq {
				i = k
			}
		}
		bound := ^uint64(0)
		for k := range runs {
			if k != i {
				bound = min(bound, runs[k].seq)
			}
		}
		ru := &runs[i]
		for ru.p < ru.end {
			ev := ru.rg.at(ru.p)
			if ev.Seq > bound {
				break
			}
			emit(ev)
			ru.p++
		}
		if ru.p < ru.end {
			ru.seq = ru.rg.at(ru.p).Seq
		} else {
			last := len(runs) - 1
			runs[i] = runs[last]
			runs = runs[:last]
		}
	}
}
