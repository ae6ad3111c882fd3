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
//
// UpdateState lowers a fresh SymbolPlan on every call and caches nothing, so
// it suits one-off events and tests. Hot paths lower each (class, symbol)
// once — NewSymbolPlan, or the automaton's StepEngine — and call
// UpdateStatePlan, the one event path both store layouts run.
func (s *Store) UpdateState(cls *Class, symbol string, flags SymbolFlags, key Key, ts TransitionSet) error {
	return s.UpdateStatePlan(NewSymbolPlan(cls, symbol, flags, ts), key)
}

// refCand is one pre-event live instance in a per-thread store's candidate
// snapshot. The birth stamp detects a slot that was evicted and reused by
// this same event: the new occupant must not be driven by it.
type refCand struct {
	idx   int
	birth uint64
}

// refQuarGate runs the quarantine fast path for one event over a per-thread
// store: re-arm when due (so the event that brings the class back is itself
// processed normally), otherwise count the suppression and report true so the
// caller skips the event.
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
