package core

// The compiled transition engine: the one event body of each store layout.
// An interpreted walk pays a per-event "interpreter tax" that is constant
// per (class, symbol): it rescans the transition set for every candidate
// instance, recomputes HasCleanup and the «init» selection, and walks Key
// comparison bit by bit. A SymbolPlan hoists all of that out of the event
// loop at automaton-link time — internal/automata lowers each class into a
// StepEngine holding one plan per alphabet symbol — leaving monomorphic
// bodies whose per-event work is O(candidates) table lookups:
//
//   - a dense state→transition array (next) replaces the first-match scan
//     over the TransitionSet, with a 64-bit From-state bitmask in front of
//     it so the common no-edge case is one shift-and-test;
//   - the «init» transition and the cleanup flag are picked once, not once
//     per event;
//   - Key compatibility is unrolled for TESLA_KEY_SIZE = 4 into a branchless
//     mismatch mask, and clone-key unions skip the redundant compatibility
//     re-check the generic path pays;
//   - the per-thread candidate snapshot and exact-key probe stop as soon as
//     every live instance has been seen instead of walking the whole
//     preallocated block.
//
// Production runs two bodies: updateRefEngineLocked over a per-thread
// store's single table and updateShardedEngineBody over a Global store's
// striped table. The interpreted walk lives on only in the tests, as the
// oracle both bodies are checked against after every event
// (oracle_test.go, differential_test.go, FuzzCompiledStep).

import (
	"math/bits"
	"sync"
)

// The key-comparison unrolling below is only valid while TESLA_KEY_SIZE is
// 4; force a compile error if KeySize ever changes so the engine is revised
// rather than silently miscompiled.
const _ = uint(KeySize-4) + uint(4-KeySize)

// notePool recycles notification buffers. A noteBuf's inline array is
// several KB, and a buffer that escapes into the handler interface is
// heap-allocated; at millions of events per second that allocation — and
// the GC work of scanning it — is a large share of the per-event cost.
// UpdateStatePlan draws buffers from this pool instead, so the steady-state
// event path allocates nothing. Safe because notes are delivered to
// handlers by pointer valid only for the duration of the callback
// (supervise.go: instances are copied because slots may be reused once the
// locks drop — the same contract covers the buffer itself).
var notePool = sync.Pool{New: func() any { return new(noteBuf) }}

// reset clears the used prefix — dropping class/violation references so a
// pooled buffer cannot pin them — and returns nb to its zero state.
func (nb *noteBuf) reset() {
	for i := 0; i < nb.n; i++ {
		nb.arr[i] = note{}
	}
	nb.n = 0
	nb.spill = nil
}

// refFail records one violation in a per-thread store.
func (s *Store) refFail(cs *classState, nb *noteBuf, failStop bool, firstErr *error, v *Violation) {
	cs.health.Violations++
	nb.add(note{kind: noteFail, cls: cs.cls, v: v})
	if failStop && *firstErr == nil {
		*firstErr = v
	}
}

// shardedFail is refFail over the striped layout.
func (s *Store) shardedFail(sc *shardedClass, nb *noteBuf, failStop bool, firstErr *error, v *Violation) {
	sc.health.violations.Add(1)
	nb.add(note{kind: noteFail, cls: sc.cls, v: v})
	if failStop && *firstErr == nil {
		*firstErr = v
	}
}

// SymbolPlan is the compiled form of one (class, symbol) pair: everything
// UpdateState derives from the TransitionSet per event, derived once.
type SymbolPlan struct {
	// Cls, Symbol, Flags and TS are the arguments the equivalent
	// UpdateState call takes; the test oracle walks TS directly.
	Cls    *Class
	Symbol string
	Flags  SymbolFlags
	TS     TransitionSet

	// next[q] is the index in TS of the transition taken from state q
	// (first match wins, like the interpreted scan), or -1. The table
	// covers every From state in TS, so an out-of-range state provably has
	// no edge.
	next []int32
	// fromMask caches bit q of "state q has an edge" for states < 64 — a
	// branch-free prefilter for the common no-edge candidate.
	fromMask uint64
	// init is the index in TS of the first «init» transition, or -1.
	init int32
	// edge[i] is TS[i]'s class-wide coverage slot (Class.edgeSlot), the
	// counter a store bumps when an instance takes that transition.
	edge []int32
	// cleanup is TS.HasCleanup().
	cleanup bool
	// det and keyed classify the plan's shape (see Shape).
	det   bool
	keyed bool
}

// NewSymbolPlan lowers one (class, symbol) transition set into its engine
// plan. ts is retained (not copied); callers must not mutate it afterwards.
func NewSymbolPlan(cls *Class, symbol string, flags SymbolFlags, ts TransitionSet) *SymbolPlan {
	states := cls.States
	for i := range ts {
		if ts[i].From >= states {
			states = ts[i].From + 1
		}
	}
	p := &SymbolPlan{
		Cls:    cls,
		Symbol: symbol,
		Flags:  flags,
		TS:     ts,
		next:   make([]int32, states),
		init:   -1,
		edge:   make([]int32, len(ts)),
		det:    true,
	}
	for q := range p.next {
		p.next[q] = -1
	}
	for i := range ts {
		p.edge[i] = cls.edgeSlot(ts[i].From, ts[i].To, symbol)
		q := ts[i].From
		if p.next[q] >= 0 {
			// A second edge from the same state: the interpreted scan
			// takes the first, so the plan keeps it and the shape is
			// nondeterministic.
			p.det = false
			continue
		}
		p.next[q] = int32(i)
		if q < 64 {
			p.fromMask |= 1 << q
		}
		if ts[i].KeyMask != 0 {
			p.keyed = true
		}
	}
	if p.init < 0 {
		for i := range ts {
			if ts[i].Init() {
				p.init = int32(i)
				break
			}
		}
	}
	p.cleanup = ts.HasCleanup()
	return p
}

// NewSymbolPlanFromTables rebuilds a plan from precomputed tables (a decoded
// engine image from the build cache). The tables are validated against the
// transition set — a corrupt or stale image is rejected so the caller can
// fall back to fresh lowering — and the derived flags are recomputed from
// ts, which is authoritative.
func NewSymbolPlanFromTables(cls *Class, symbol string, flags SymbolFlags, ts TransitionSet, next []int32) (*SymbolPlan, error) {
	fresh := NewSymbolPlan(cls, symbol, flags, ts)
	if len(next) != len(fresh.next) {
		return nil, &EngineImageError{Class: cls.Name, Symbol: symbol, Reason: "state table length mismatch"}
	}
	for q, i := range next {
		if i != fresh.next[q] {
			return nil, &EngineImageError{Class: cls.Name, Symbol: symbol, Reason: "state table drifted from transition set"}
		}
	}
	return fresh, nil
}

// EngineImageError reports a cached engine image that does not match the
// automaton it was attached to.
type EngineImageError struct {
	Class, Symbol, Reason string
}

func (e *EngineImageError) Error() string {
	return "core: engine image for " + e.Class + "/" + e.Symbol + ": " + e.Reason
}

// Next exposes the dense state→transition table (index into TS per state,
// -1 for no edge) for serialisation by the build layer.
func (p *SymbolPlan) Next() []int32 { return p.next }

// HasInit reports whether the plan carries an «init» transition.
func (p *SymbolPlan) HasInit() bool { return p.init >= 0 }

// HasCleanup reports whether the plan finalises instances.
func (p *SymbolPlan) HasCleanup() bool { return p.cleanup }

// Deterministic reports whether every state has at most one edge.
func (p *SymbolPlan) Deterministic() bool { return p.det }

// Keyed reports whether any transition binds key slots.
func (p *SymbolPlan) Keyed() bool { return p.keyed }

// Shape names the plan's place in the engine's shape taxonomy — which
// specialisations apply — for diagnostics and the engine dump.
func (p *SymbolPlan) Shape() string {
	s := "det"
	if !p.det {
		s = "nondet"
	}
	if p.keyed {
		s += "+keyed"
	} else {
		s += "+unkeyed"
	}
	if p.init >= 0 {
		s += "+init"
	}
	if p.cleanup {
		s += "+cleanup"
	}
	return s
}

// find returns the index in TS of the transition taken from state q, or -1.
// One shift-and-test rejects edge-less states; the table lookup handles the
// rest.
func (p *SymbolPlan) find(q uint32) int32 {
	if q < 64 {
		if p.fromMask&(1<<q) == 0 {
			return -1
		}
		return p.next[q]
	}
	if q < uint32(len(p.next)) {
		return p.next[q]
	}
	return -1
}

// initTr returns the hoisted «init» transition, or nil.
func (p *SymbolPlan) initTr() *Transition {
	if p.init < 0 {
		return nil
	}
	return &p.TS[p.init]
}

// fired accounts one edge an instance took: always in the store's coverage
// counters cc, and as Transition and Accept notes when the handler reads
// them. inst is the instance after the edge; slot is the edge's coverage
// slot.
func (nb *noteBuf) fired(cc *covCounts, cls *Class, inst *Instance, tr *Transition, slot int32, symbol string) {
	cc.fire(slot, tr.Cleanup())
	if !nb.life {
		return
	}
	nb.add(note{kind: noteTransition, cls: cls, inst: *inst, from: tr.From, to: tr.To, symbol: symbol})
	if tr.Cleanup() {
		nb.add(note{kind: noteAccept, cls: cls, inst: *inst})
	}
}

// compatible4 is Key.Compatible unrolled for KeySize = 4: compare all four
// slots unconditionally into a mismatch mask, then test it against the slots
// bound in both keys. No per-slot branches, no loop.
func compatible4(k, o Key) bool {
	var bad uint32
	if k.Data[0] != o.Data[0] {
		bad = 1
	}
	if k.Data[1] != o.Data[1] {
		bad |= 2
	}
	if k.Data[2] != o.Data[2] {
		bad |= 4
	}
	if k.Data[3] != o.Data[3] {
		bad |= 8
	}
	return k.Mask&o.Mask&bad == 0
}

// union4 merges two keys known to be compatible (the engine body established
// it via compatible4), skipping Union's redundant re-check and panic guard.
func union4(k, o Key) Key {
	if o.Mask&1 != 0 {
		k.Data[0] = o.Data[0]
	}
	if o.Mask&2 != 0 {
		k.Data[1] = o.Data[1]
	}
	if o.Mask&4 != 0 {
		k.Data[2] = o.Data[2]
	}
	if o.Mask&8 != 0 {
		k.Data[3] = o.Data[3]
	}
	k.Mask |= o.Mask
	return k
}

// findExactFast returns the active instance with exactly the given key, or
// nil, stopping once every live instance has been seen.
func (cs *classState) findExactFast(key Key) *Instance {
	seen := 0
	for i := range cs.insts {
		if !cs.insts[i].Active {
			continue
		}
		if cs.insts[i].Key == key {
			return &cs.insts[i]
		}
		if seen++; seen >= cs.live {
			break
		}
	}
	return nil
}

// UpdateStatePlan drives one program event through a compiled plan, with
// the lifecycle and error contract documented on UpdateState. It runs the
// compiled body of the store's layout.
func (s *Store) UpdateStatePlan(p *SymbolPlan, key Key) error {
	hc := s.hv.Load()
	nb := notePool.Get().(*noteBuf)
	nb.life = hc.life
	var err error
	if s.nshards > 0 {
		sc := s.shardedClassOf(p.Cls)
		if sc == nil {
			s.Register(p.Cls)
			sc = s.shardedClassOf(p.Cls)
		}
		err = s.updateShardedEngine(sc, p, key, nb)
	} else {
		err = s.updateRefEngine(p, key, nb)
	}
	s.dispatch(hc.h, nb)
	nb.reset()
	notePool.Put(nb)
	return err
}

// updateRefEngine resolves the class in a per-thread store, registering it
// on first use, and runs the compiled body.
func (s *Store) updateRefEngine(p *SymbolPlan, key Key, nb *noteBuf) error {
	cs := s.classes[p.Cls]
	if cs == nil {
		s.Register(p.Cls)
		cs = s.classes[p.Cls]
	}
	return s.updateRefEngineLocked(cs, p, key, nb)
}

// updateRefEngineLocked is the compiled event body over a per-thread
// store's single table. Every divergence in behaviour from the test oracle's
// interpreted walk is a bug the differential gate exists to catch.
func (s *Store) updateRefEngineLocked(cs *classState, p *SymbolPlan, key Key, nb *noteBuf) error {
	cls := cs.cls
	if s.refQuarGate(cs, nb) {
		return nil
	}

	// Direct calls to the policy machinery (refFail/refClaim), not
	// closures: a closure would force nb onto the heap per event.
	var firstErr error
	failStop := cs.pol.failureIn(s) == FailStop

	// Snapshot the instances live before this event, stopping at the live
	// count instead of walking the whole preallocated block.
	var candArr [DefaultInstanceLimit]refCand
	live := candArr[:0]
	for i, n := 0, cs.live; i < len(cs.insts) && len(live) < n; i++ {
		if cs.insts[i].Active {
			live = append(live, refCand{idx: i, birth: cs.insts[i].birth})
		}
	}

	matched := false
	for _, c := range live {
		inst := &cs.insts[c.idx]
		if !inst.Active || inst.birth != c.birth {
			// Evicted or expunged mid-event (the slot may already
			// hold a new occupant, which this event must not drive).
			continue
		}
		if !compatible4(inst.Key, key) {
			continue
		}

		ti := p.find(inst.State)
		if ti < 0 {
			switch {
			case p.cleanup:
				// The bound is ending but this instance is stuck in
				// a non-accepting state: an `eventually` obligation
				// was never satisfied.
				s.refFail(cs, nb, failStop, &firstErr, &Violation{Class: cls, Kind: VerdictIncomplete, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
			case p.Flags&SymStrict != 0:
				s.refFail(cs, nb, failStop, &firstErr, &Violation{Class: cls, Kind: VerdictBadTransition, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
				inst.Active = false
				cs.live--
			}
			continue
		}
		tr := &p.TS[ti]

		if key.Mask&^inst.Key.Mask != 0 {
			// The event binds variables this instance has not seen
			// (compatibility already established): clone a more
			// specific instance and leave the parent. If that instance
			// exists, it is processed on its own terms.
			newKey := union4(inst.Key, key)
			if cs.findExactFast(newKey) != nil {
				matched = true
				continue
			}
			// Copy the parent before allocating: eviction may free
			// and immediately reuse the parent's own slot.
			parent := *inst
			clone := s.refClaim(cs, nb, failStop, &firstErr, newKey)
			if clone == nil {
				continue
			}
			cs.birthClock++
			*clone = Instance{State: tr.To, Key: newKey, Active: true, birth: cs.birthClock}
			cs.commit()
			if nb.life {
				nb.add(note{kind: noteClone, cls: cls, parent: parent, inst: *clone})
			}
			nb.fired(&cs.cov, cls, clone, tr, p.edge[ti], p.Symbol)
			matched = true
			continue
		}

		inst.State = tr.To
		nb.fired(&cs.cov, cls, inst, tr, p.edge[ti], p.Symbol)
		matched = true
	}

	if !matched && !cs.quarantined {
		if init := p.initTr(); init != nil {
			initKey := key.project(init.KeyMask)
			if cs.findExactFast(initKey) == nil {
				if inst := s.refClaim(cs, nb, failStop, &firstErr, initKey); inst != nil {
					cs.birthClock++
					*inst = Instance{State: init.To, Key: initKey, Active: true, birth: cs.birthClock}
					cs.commit()
					if nb.life {
						nb.add(note{kind: noteNew, cls: cls, inst: *inst})
					}
					nb.fired(&cs.cov, cls, inst, init, p.edge[p.init], p.Symbol)
					matched = true
				}
			}
		} else if p.Flags&SymRequired != 0 && cs.live > 0 {
			// Execution reached the assertion site with bindings for
			// which no instance exists: the events the assertion
			// requires never happened (fig. 9 “Error”). With no live
			// instances at all the event arrived outside the bound, and
			// libtesla ignores events until the next «init».
			s.refFail(cs, nb, failStop, &firstErr, &Violation{Class: cls, Kind: VerdictNoInstance, Key: key, Symbol: p.Symbol})
		}
	}

	if p.cleanup && !cs.quarantined {
		// A cleanup transition resets the class: all instances are
		// expunged and events are ignored until the next «init».
		cs.expunge()
	}

	return firstErr
}

// updateShardedEngine runs one event over the striped layout: the
// quarantine gate, then the lock set the event needs. It re-plans under the
// locks, because another thread may have activated an instance whose mask
// widens the set between planning and locking; after one miss it escalates
// to every stripe, so the loop terminates. Cleanup expunges the whole class
// and takes every stripe up front.
func (s *Store) updateShardedEngine(sc *shardedClass, p *SymbolPlan, key Key, nb *noteBuf) error {
	if s.shardedQuarGate(sc, nb) {
		return nil
	}

	set, scan := sc.plan(key, p.initTr())
	if p.cleanup {
		set = sc.allMask()
	}
	for tries := 0; ; tries++ {
		sc.lockShards(set)
		need, nscan := sc.plan(key, p.initTr())
		if need&^set == 0 {
			scan = nscan
			break
		}
		sc.unlockShards(set)
		if tries >= 1 {
			set = sc.allMask()
		} else {
			set |= need
		}
	}
	defer sc.unlockShards(set)
	return s.updateShardedEngineBody(sc, p, key, nb, set, scan)
}

// updateShardedEngineBody is the compiled event body over the striped
// layout. The caller holds the stripe locks in set, which must cover the
// event's planned need; scan selects the all-stripes candidate walk.
func (s *Store) updateShardedEngineBody(sc *shardedClass, p *SymbolPlan, key Key, nb *noteBuf, set uint64, scan bool) error {
	if sc.needsFlush.Load() && set == sc.allMask() {
		// Deferred quarantine expunge: plan() escalates to every stripe
		// while the flag is set, so the first event through after re-arm
		// lands here holding the full set. (A concurrent entry can raise
		// the flag after our plan — then this event proceeds as if
		// linearised before the quarantine and the next one flushes.)
		sc.expungeLocked()
		sc.needsFlush.Store(false)
	}

	// As in the per-thread body: direct shardedFail/shardedClaim calls so
	// nothing per-event escapes to the heap.
	var firstErr error
	failStop := sc.pol.failureIn(s) == FailStop
	// Coverage is counted in the lowest stripe the event holds: its lock
	// serialises the counters with no atomic on the event path.
	cc := &sc.shards[bits.TrailingZeros64(set)].cov

	// Collect the compatible instances live before this event (so clones
	// made below are not driven by the same event). With no out-of-mask
	// masks live, every compatible instance is a projection of the key: a
	// handful of O(1) index lookups replaces a scan over the whole block.
	var candBuf [DefaultInstanceLimit]shardCand
	cand := candBuf[:0]
	if scan {
		for si := range sc.shards {
			for _, e := range sc.shards[si].table {
				if e == 0 {
					continue
				}
				if slot := int32(e - 1); compatible4(sc.insts[slot].Key, key) {
					cand = append(cand, shardCand{slot: slot, birth: sc.insts[slot].birth})
				}
			}
		}
	} else {
		for m := uint32(0); m <= keyMaskAll; m++ {
			if m&^key.Mask != 0 || sc.masks[m].Load() == 0 {
				continue
			}
			k := key.project(m)
			if slot := sc.findIn(&sc.shards[sc.shardOf(k)], k); slot >= 0 {
				cand = append(cand, shardCand{slot: slot, birth: sc.insts[slot].birth})
			}
		}
	}
	// Process in slot order, as the single-table layout does. Insertion
	// sort: candidate lists are short and sort.Slice would allocate.
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && cand[j].slot < cand[j-1].slot; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}

	matched := false
	for _, c := range cand {
		if sc.quarantined.Load() {
			// The class went out of service mid-event; the single-table
			// expunge leaves no candidate to process either.
			break
		}
		inst := &sc.insts[c.slot]
		if !inst.Active || inst.birth != c.birth {
			// Evicted mid-event (the slot may already hold a new
			// occupant, which this event must not drive).
			continue
		}

		ti := p.find(inst.State)
		if ti < 0 {
			switch {
			case p.cleanup:
				s.shardedFail(sc, nb, failStop, &firstErr, &Violation{Class: sc.cls, Kind: VerdictIncomplete, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
			case p.Flags&SymStrict != 0:
				s.shardedFail(sc, nb, failStop, &firstErr, &Violation{Class: sc.cls, Kind: VerdictBadTransition, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
				sc.deactivate(c.slot)
			}
			continue
		}
		tr := &p.TS[ti]

		if key.Mask&^inst.Key.Mask != 0 {
			// Clone. For in-plan parents the union is the event key
			// itself, whose stripe is locked; scan-mode parents run
			// under every stripe lock.
			newKey := union4(inst.Key, key)
			if sc.findIn(&sc.shards[sc.shardOf(newKey)], newKey) >= 0 {
				matched = true
				continue
			}
			parent := *inst
			nslot := s.shardedClaim(sc, nb, failStop, &firstErr, set, newKey)
			if nslot < 0 {
				continue
			}
			clone := sc.activate(nslot, tr.To, newKey)
			if nb.life {
				nb.add(note{kind: noteClone, cls: sc.cls, parent: parent, inst: *clone})
			}
			nb.fired(cc, sc.cls, clone, tr, p.edge[ti], p.Symbol)
			matched = true
			continue
		}

		inst.State = tr.To
		nb.fired(cc, sc.cls, inst, tr, p.edge[ti], p.Symbol)
		matched = true
	}

	if !matched && !sc.quarantined.Load() {
		if init := p.initTr(); init != nil {
			initKey := key.project(init.KeyMask)
			if sc.findIn(&sc.shards[sc.shardOf(initKey)], initKey) < 0 {
				if slot := s.shardedClaim(sc, nb, failStop, &firstErr, set, initKey); slot >= 0 {
					inst := sc.activate(slot, init.To, initKey)
					if nb.life {
						nb.add(note{kind: noteNew, cls: sc.cls, inst: *inst})
					}
					nb.fired(cc, sc.cls, inst, init, p.edge[p.init], p.Symbol)
					matched = true
				}
			}
		} else if p.Flags&SymRequired != 0 && sc.live.Load() > 0 {
			s.shardedFail(sc, nb, failStop, &firstErr, &Violation{Class: sc.cls, Kind: VerdictNoInstance, Key: key, Symbol: p.Symbol})
		}
	}

	if p.cleanup && !sc.quarantined.Load() {
		sc.expungeLocked()
	}

	return firstErr
}
