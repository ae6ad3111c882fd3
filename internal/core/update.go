package core

// UpdateState drives one program event through an automaton class,
// implementing the instance lifecycle of §4.4.1:
//
//   - «init»: an event whose transition set carries TransInit creates a new
//     instance when no existing instance consumed the event.
//   - clone: an event that specialises a live instance's key (binds new
//     variables) forks a copy; the more general parent instance remains so
//     that other bindings can fork later.
//   - update: an event matching an instance's key and state moves it along.
//   - error: a required event (SymRequired, e.g. reaching the assertion
//     site) that no instance can accept is a violation, as is a strict
//     automaton instance observing an event its state cannot accept.
//   - «cleanup»: an event whose set carries TransCleanup finalises the
//     class; instances that cannot take a cleanup transition have unmet
//     obligations (eventually-style violations) and all instances are
//     expunged afterwards.
//
// symbol names the driving event for notification purposes. key carries the
// variable bindings the event provides. ts is the set of class transitions
// this event can drive, assembled statically by the event translator.
//
// Handler notifications are buffered during the critical section and
// dispatched after every lock is released (see supervise.go), so handlers
// may block, or even call back into the store, without stalling monitored
// threads.
//
// The returned error is non-nil only when the class's effective failure
// action is FailStop (FailDefault defers to Store.FailFast) and a violation
// or overflow occurred; the store's Handler is notified of every outcome
// regardless.
func (s *Store) UpdateState(cls *Class, symbol string, flags SymbolFlags, key Key, ts TransitionSet) error {
	if s.nshards > 0 {
		sc := s.shardedClassOf(cls)
		if sc == nil {
			// Implicit registration keeps one-off uses simple; hot
			// paths should Register up front so this branch never
			// runs.
			s.Register(cls)
			sc = s.shardedClassOf(cls)
		}
		return s.updateSharded(sc, symbol, flags, key, ts)
	}

	var nb noteBuf
	err := s.updateRef(cls, symbol, flags, key, ts, &nb)
	s.dispatch(&nb)
	return err
}

// refCand is one pre-event live instance in the reference store's candidate
// snapshot. The birth stamp detects a slot that was evicted and reused by
// this same event: the new occupant must not be driven by it.
type refCand struct {
	idx   int
	birth uint64
}

// updateRef is the reference (single-mutex) event body. Notifications are
// accumulated in nb for the caller to dispatch after the lock is released.
func (s *Store) updateRef(cls *Class, symbol string, flags SymbolFlags, key Key, ts TransitionSet, nb *noteBuf) error {
	s.lock()
	defer s.unlock()

	cs := s.classes[cls]
	if cs == nil {
		s.unlock()
		s.Register(cls)
		s.lock()
		cs = s.classes[cls]
	}
	return s.updateRefLocked(cs, symbol, flags, key, ts, nb)
}

// refQuarGate runs the quarantine fast path for one event over the reference
// store: re-arm when due (so the event that brings the class back is itself
// processed normally), otherwise count the suppression and report true so the
// caller skips the event. The store lock must be held.
func (s *Store) refQuarGate(cs *classState, nb *noteBuf) bool {
	if !cs.quarantined {
		return false
	}
	if cs.quar.rearmDue(cs.pol, s.sv.now) {
		cs.quarantined = false
		cs.quar = quarState{}
		nb.add(note{kind: noteQuarantine, cls: cs.cls, on: false})
		return false
	}
	cs.quar.suppressed++
	cs.health.Suppressed++
	return true
}

// refAllocator builds the reference store's policy-driven slot claimer as a
// closure for the interpreted event body below. The compiled engine body
// (engine.go) calls refClaim directly — same policy machinery, no per-event
// closure allocation — so both paths degrade identically.
func (s *Store) refAllocator(cs *classState, nb *noteBuf, failStop bool, firstErr *error) func(Key) *Instance {
	return func(k Key) *Instance {
		return s.refClaim(cs, nb, failStop, firstErr, k)
	}
}

// refClaim claims one instance slot under the class's overflow policy. It
// consults the fault injector first; on overflow it records one Overflow
// note, then degrades: DropNew drops, EvictOldest sacrifices the oldest
// instance and retries once (the retry consults the injector again; a second
// failure drops silently), QuarantineClass counts the streak and past the
// threshold takes the class out of service. nil means the caller must drop
// the would-be instance.
func (s *Store) refClaim(cs *classState, nb *noteBuf, failStop bool, firstErr *error, k Key) *Instance {
	cls := cs.cls
	if cs.quarantined {
		// Entered quarantine earlier in this same event.
		return nil
	}
	var slot *Instance
	if s.sv.allocFail == nil || !s.sv.allocFail(cls) {
		slot = cs.alloc()
	}
	if slot == nil {
		cs.health.Overflows++
		nb.add(note{kind: noteOverflow, cls: cls, key: k})
		switch cs.pol.overflow {
		case EvictOldest:
			// Prefer the oldest victim bound like the incoming
			// instance: a plain class-wide minimum would sacrifice
			// the unkeyed parent first (it is the oldest by
			// construction), killing the clone source for every
			// later binding in the bound.
			victim, anyVictim := -1, -1
			for i := range cs.insts {
				if !cs.insts[i].Active {
					continue
				}
				if anyVictim < 0 || cs.insts[i].birth < cs.insts[anyVictim].birth {
					anyVictim = i
				}
				if cs.insts[i].Key.Mask == k.Mask && (victim < 0 || cs.insts[i].birth < cs.insts[victim].birth) {
					victim = i
				}
			}
			if victim < 0 {
				victim = anyVictim
			}
			if victim >= 0 {
				ev := cs.insts[victim]
				cs.insts[victim].Active = false
				cs.live--
				cs.health.Evictions++
				nb.add(note{kind: noteEvict, cls: cls, inst: ev})
				if s.sv.allocFail == nil || !s.sv.allocFail(cls) {
					slot = cs.alloc()
				}
			}
		case QuarantineClass:
			cs.quar.streak++
			if cs.quar.streak >= cs.pol.quarantineAfter {
				cs.expunge()
				cs.quarantined = true
				cs.health.Quarantines++
				cs.quar.enter(cs.pol, s.sv.now)
				nb.add(note{kind: noteQuarantine, cls: cls, on: true})
			}
		}
	}
	if slot == nil {
		if failStop && *firstErr == nil {
			*firstErr = ErrOverflow
		}
		return nil
	}
	cs.quar.streak = 0
	return slot
}

// updateRefLocked is the event body proper. The store lock must be held and
// cs registered. This is the interpreted (table-driven)
// walk; the compiled engine body in engine.go replaces its linear scans with
// precomputed plans, and the differential gate pins the two equal.
func (s *Store) updateRefLocked(cs *classState, symbol string, flags SymbolFlags, key Key, ts TransitionSet, nb *noteBuf) error {
	cls := cs.cls

	// Quarantine fast path. The re-arm check runs before suppression so
	// the event that brings the class back is itself processed normally.
	if s.refQuarGate(cs, nb) {
		return nil
	}

	var firstErr error
	failStop := cs.pol.failureIn(s) == FailStop
	fail := func(v *Violation) {
		cs.health.Violations++
		nb.add(note{kind: noteFail, cls: cls, v: v})
		if failStop && firstErr == nil {
			firstErr = v
		}
	}
	alloc := s.refAllocator(cs, nb, failStop, &firstErr)

	cleanup := ts.HasCleanup()

	// Snapshot the instances that were live before this event so that
	// clones created below are not themselves driven by the same event.
	var candArr [DefaultInstanceLimit]refCand
	live := candArr[:0]
	for i := range cs.insts {
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
		if !inst.Key.Compatible(key) {
			continue
		}

		var tr *Transition
		for j := range ts {
			if ts[j].From == inst.State {
				tr = &ts[j]
				break
			}
		}

		if tr == nil {
			switch {
			case cleanup:
				// The bound is ending but this instance is stuck
				// in a non-accepting state: an `eventually`
				// obligation was never satisfied.
				fail(&Violation{Class: cls, Kind: VerdictIncomplete, Key: inst.Key, State: inst.State, Symbol: symbol})
			case flags&SymStrict != 0:
				fail(&Violation{Class: cls, Kind: VerdictBadTransition, Key: inst.Key, State: inst.State, Symbol: symbol})
				inst.Active = false
				cs.live--
			}
			continue
		}

		if inst.Key.Specializes(key) {
			// The event binds variables this instance has not seen:
			// clone a more specific instance and leave the parent.
			newKey := inst.Key.Union(key)
			if cs.findExact(newKey) != nil {
				// The specific instance already exists and is
				// processed (or was) on its own terms.
				matched = true
				continue
			}
			// Copy the parent before allocating: eviction may free
			// and immediately reuse the parent's own slot.
			parent := *inst
			clone := alloc(newKey)
			if clone == nil {
				continue
			}
			cs.birthClock++
			*clone = Instance{State: tr.To, Key: newKey, Active: true, birth: cs.birthClock}
			cs.commit()
			nb.add(note{kind: noteClone, cls: cls, parent: parent, inst: *clone})
			nb.add(note{kind: noteTransition, cls: cls, inst: *clone, from: tr.From, to: tr.To, symbol: symbol})
			matched = true
			if tr.Cleanup() {
				nb.add(note{kind: noteAccept, cls: cls, inst: *clone})
			}
			continue
		}

		from := inst.State
		inst.State = tr.To
		nb.add(note{kind: noteTransition, cls: cls, inst: *inst, from: from, to: tr.To, symbol: symbol})
		matched = true
		if tr.Cleanup() {
			nb.add(note{kind: noteAccept, cls: cls, inst: *inst})
		}
	}

	if !matched && !cs.quarantined {
		if init := initTransition(ts); init != nil {
			initKey := key.project(init.KeyMask)
			if cs.findExact(initKey) == nil {
				if inst := alloc(initKey); inst != nil {
					cs.birthClock++
					*inst = Instance{State: init.To, Key: initKey, Active: true, birth: cs.birthClock}
					cs.commit()
					nb.add(note{kind: noteNew, cls: cls, inst: *inst})
					nb.add(note{kind: noteTransition, cls: cls, inst: *inst, from: init.From, to: init.To, symbol: symbol})
					matched = true
					if init.Cleanup() {
						nb.add(note{kind: noteAccept, cls: cls, inst: *inst})
					}
				}
			}
		} else if flags&SymRequired != 0 && cs.live > 0 {
			// Execution reached the assertion site with bindings for
			// which no instance exists: the events the assertion
			// requires never happened (fig. 9 “Error”). With no live
			// instances at all the automaton was never initialised —
			// the event arrived outside the assertion's bound — and
			// libtesla ignores events until the next «init».
			fail(&Violation{Class: cls, Kind: VerdictNoInstance, Key: key, Symbol: symbol})
		}
	}

	if cleanup && !cs.quarantined {
		// A cleanup transition resets the class: all instances are
		// expunged and events are ignored until the next «init».
		cs.expunge()
	}

	return firstErr
}

// initTransition returns the first init transition in ts, or nil.
func initTransition(ts TransitionSet) *Transition {
	for i := range ts {
		if ts[i].Init() {
			return &ts[i]
		}
	}
	return nil
}

// project restricts a key to the slots in mask.
func (k Key) project(mask uint32) Key {
	var out Key
	out.Mask = k.Mask & mask
	for i := 0; i < KeySize; i++ {
		if out.Mask&(1<<uint(i)) != 0 {
			out.Data[i] = k.Data[i]
		}
	}
	return out
}
