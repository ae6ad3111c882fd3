package core

// The test oracle: the interpreted, table-driven event walk. Production
// runs only the compiled bodies (engine.go). The oracle runs over a
// per-thread store's single table, so it shares the store's registration, supervision
// and introspection code with production, and only its event entry points
// differ. Every differential test (differential_test.go, chaos_test.go,
// FuzzCompiledStep) checks both production bodies against it after each
// event, and store_bench_test.go holds the engine to at least 1.5× its
// speed.

// oracle is a per-thread store whose events take the interpreted walk. It
// counts coverage too, interning each edge it fires, so Coverage can be
// compared across all three bodies.
type oracle struct{ *Store }

// newOracle builds an oracle from store options; the context is forced to
// PerThread, the layout the walk runs over.
func newOracle(o StoreOpts) *oracle {
	o.Context = PerThread
	return &oracle{NewStoreOpts(o)}
}

// UpdateState is Store.UpdateState through the interpreted walk.
func (r *oracle) UpdateState(cls *Class, symbol string, flags SymbolFlags, key Key, ts TransitionSet) error {
	hc := r.hv.Load()
	nb := noteBuf{life: hc.life}
	err := r.updateRef(cls, symbol, flags, key, ts, &nb)
	r.dispatch(hc.h, &nb)
	return err
}

// UpdateStatePlan walks the plan's transition set, ignoring its tables.
func (r *oracle) UpdateStatePlan(p *SymbolPlan, key Key) error {
	return r.UpdateState(p.Cls, p.Symbol, p.Flags, key, p.TS)
}

// updateRef resolves the class, registering it on first use, and runs the
// interpreted walk. Notifications are accumulated in nb for the caller to
// dispatch.
func (s *Store) updateRef(cls *Class, symbol string, flags SymbolFlags, key Key, ts TransitionSet, nb *noteBuf) error {
	cs := s.classes[cls]
	if cs == nil {
		s.Register(cls)
		cs = s.classes[cls]
	}
	return s.updateRefLocked(cs, symbol, flags, key, ts, nb)
}

// refAllocator builds the single table's policy-driven slot claimer as a
// closure for the interpreted walk below. The compiled body (engine.go)
// calls refClaim directly — same policy machinery, no per-event closure
// allocation — so both paths degrade identically.
func (s *Store) refAllocator(cs *classState, nb *noteBuf, failStop bool, firstErr *error) func(Key) *Instance {
	return func(k Key) *Instance {
		return s.refClaim(cs, nb, failStop, firstErr, k)
	}
}

// updateRefLocked is the interpreted (table-driven) walk over a per-thread
// store's single table; cs must be registered. The compiled bodies in
// engine.go replace its linear scans with precomputed plans, and the
// differential harness pins them equal to it.
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
			if nb.life {
				nb.add(note{kind: noteClone, cls: cls, parent: parent, inst: *clone})
			}
			nb.fired(&cs.cov, cls, clone, tr, cls.edgeSlot(tr.From, tr.To, symbol), symbol)
			matched = true
			continue
		}

		inst.State = tr.To
		nb.fired(&cs.cov, cls, inst, tr, cls.edgeSlot(tr.From, tr.To, symbol), symbol)
		matched = true
	}

	if !matched && !cs.quarantined {
		if init := initTransition(ts); init != nil {
			initKey := key.project(init.KeyMask)
			if cs.findExact(initKey) == nil {
				if inst := alloc(initKey); inst != nil {
					cs.birthClock++
					*inst = Instance{State: init.To, Key: initKey, Active: true, birth: cs.birthClock}
					cs.commit()
					if nb.life {
						nb.add(note{kind: noteNew, cls: cls, inst: *inst})
					}
					nb.fired(&cs.cov, cls, inst, init, cls.edgeSlot(init.From, init.To, symbol), symbol)
					matched = true
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

// findExact returns the active instance with exactly the given key, or nil,
// scanning the whole block.
func (cs *classState) findExact(key Key) *Instance {
	for i := range cs.insts {
		if cs.insts[i].Active && cs.insts[i].Key == key {
			return &cs.insts[i]
		}
	}
	return nil
}
