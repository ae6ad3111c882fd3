package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tesla/internal/faultinject"
)

// Compiled-vs-interpreted differential: a store driving events through the
// compiled engine bodies (UpdateStatePlan) must be
// observationally equivalent to a NoEngine store fed the identical schedule
// through the interpreted table-driven walk — identical verdicts, live
// counts, instance sets, quarantine state, health counters and notification
// multisets after every event. Schedules are the randomised supervision
// sweeps from differential_test.go (overflow policies, quarantine/re-arm,
// strict and required symbols, resets), swept across the single-mutex
// reference store and every sharded stripe count, with and without injected
// allocation failures. This is the `make compile-gate` suite.

// planCache memoizes one schedule's lowered plans per (symbol, flags): the
// engine contract is link-time lowering, one plan reused for every event of
// that symbol — allocating per event would hide staleness bugs.
type planCache map[string]*SymbolPlan

func (pc planCache) plan(cls *Class, symbol string, flags SymbolFlags, ts TransitionSet) *SymbolPlan {
	id := symbol + string(rune('0'+flags))
	p, ok := pc[id]
	if !ok {
		p = NewSymbolPlan(cls, symbol, flags, ts)
		pc[id] = p
	}
	return p
}

// runEngineDifferential drives one schedule through a NoEngine store (the
// interpreted reference) and an engine store, both via UpdateStatePlan — the
// NoEngine store's UpdateStatePlan is literally the UpdateState fallback, so
// the differential also pins the dispatch switch itself.
func runEngineDifferential(t *testing.T, seed int64, shards int, failFast bool, rate float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cls := &Class{
		Name: "enginediff", States: 8, Limit: 2 + rng.Intn(8),
		Overflow:        []OverflowPolicy{DropNew, EvictOldest, QuarantineClass}[rng.Intn(3)],
		QuarantineAfter: 1 + rng.Intn(3),
		RearmEvents:     1 + rng.Intn(8),
	}
	states := uint32(3 + rng.Intn(3))

	injRef := faultinject.New(uint64(seed))
	injEng := faultinject.New(uint64(seed))
	if rate > 0 {
		injRef.SetRate(faultinject.SiteAlloc, rate)
		injEng.SetRate(faultinject.SiteAlloc, rate)
	}

	href := &noteHandler{}
	heng := &noteHandler{}
	ref := NewStoreOpts(StoreOpts{
		Context: Global, Handler: href, Shards: shards, NoEngine: true,
		AllocFail: func(c *Class) bool { return injRef.Should(faultinject.SiteAlloc, c.Name) },
	})
	eng := NewStoreOpts(StoreOpts{
		Context: Global, Handler: heng, Shards: shards,
		AllocFail: func(c *Class) bool { return injEng.Should(faultinject.SiteAlloc, c.Name) },
	})
	ref.FailFast = failFast
	eng.FailFast = failFast
	ref.Register(cls)
	eng.Register(cls)
	if ref.EngineEnabled() || !eng.EngineEnabled() {
		t.Fatalf("engine selection broken: ref=%v eng=%v", ref.EngineEnabled(), eng.EngineEnabled())
	}

	plans := planCache{}
	for i, ev := range randSchedule(rng, states, 48) {
		var errRef, errEng error
		switch ev.op {
		case "reset":
			ref.Reset()
			eng.Reset()
		case "resetclass":
			ref.ResetClass(cls)
			eng.ResetClass(cls)
		default:
			p := plans.plan(cls, ev.symbol, ev.flags, ev.ts)
			errRef = ref.UpdateStatePlan(p, ev.key)
			errEng = eng.UpdateStatePlan(p, ev.key)
		}
		if (errRef == nil) != (errEng == nil) {
			t.Fatalf("seed %d shards %d event %d (%s %s): verdict diverged: interpreted=%v engine=%v",
				seed, shards, i, ev.symbol, ev.key, errRef, errEng)
		}
		if lr, le := ref.LiveCount(cls), eng.LiveCount(cls); lr != le {
			t.Fatalf("seed %d shards %d event %d (%s %s): live diverged: interpreted=%d engine=%d",
				seed, shards, i, ev.symbol, ev.key, lr, le)
		}
		if ir, ie := instSet(ref, cls), instSet(eng, cls); !reflect.DeepEqual(ir, ie) {
			t.Fatalf("seed %d shards %d event %d (%s %s): instances diverged:\ninterpreted: %v\nengine:      %v",
				seed, shards, i, ev.symbol, ev.key, ir, ie)
		}
		if qr, qe := ref.Quarantined(cls), eng.Quarantined(cls); qr != qe {
			t.Fatalf("seed %d shards %d event %d: quarantine diverged: interpreted=%v engine=%v",
				seed, shards, i, qr, qe)
		}
		if hr, he := healthOf(ref, cls), healthOf(eng, cls); hr != he {
			t.Fatalf("seed %d shards %d event %d: health diverged:\ninterpreted: %v\nengine:      %v",
				seed, shards, i, hr, he)
		}
		if nr, ne := href.sorted(), heng.sorted(); !reflect.DeepEqual(nr, ne) {
			t.Fatalf("seed %d shards %d event %d (%s %s): notifications diverged:\ninterpreted: %v\nengine:      %v",
				seed, shards, i, ev.symbol, ev.key, nr, ne)
		}
	}
	if fr, fe := injRef.TotalFired(), injEng.TotalFired(); fr != fe {
		t.Fatalf("seed %d: injectors diverged: interpreted fired %d, engine %d", seed, fr, fe)
	}
}

// TestEngineDifferential sweeps ≥1000 randomised schedules over the
// single-mutex reference store (Shards: 1) and every sharded stripe count,
// both fail-fast modes.
func TestEngineDifferential(t *testing.T) {
	const schedules = 1250
	for i := 0; i < schedules; i++ {
		shards := []int{1, 2, 4, 8, 16}[i%5]
		runEngineDifferential(t, int64(40000+i), shards, i%2 == 0, 0)
	}
}

// TestEngineDifferentialInjected repeats the sweep with allocation failures
// injected at 1%, 10% and 50%: the compiled claim path must degrade —
// drop, evict, quarantine, suppress — exactly like the interpreted one.
func TestEngineDifferentialInjected(t *testing.T) {
	for _, rate := range []float64{0.01, 0.10, 0.50} {
		for i := 0; i < 150; i++ {
			shards := []int{1, 2, 4, 8, 16}[i%5]
			runEngineDifferential(t, int64(50000+i), shards, i%2 == 0, rate)
		}
	}
}
