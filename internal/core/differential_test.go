package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"tesla/internal/faultinject"
)

// Differential property harness: both production event bodies — the
// per-thread store's and the striped Global store's — must be
// observationally equivalent to the oracle (oracle_test.go), the
// interpreted walk. Identical randomised event schedules — init, update,
// clone, cleanup over random keys, ANY patterns, strict and required
// events, overflow, resets — are driven through the oracle and every
// production store, asserting identical verdicts, live counts, instance
// sets, quarantine state, health counters, coverage counts and handler
// notification multisets after every event. Notification order within one event may
// differ (slot numbering diverges once frees interleave with allocations),
// so notifications are compared as multisets, which is also the only
// meaningful comparison once the striped store runs concurrently. This is
// the `make compile-gate` suite.

// noteHandler records every notification as a serialised line, and rebuilds
// edge and accept coverage from the Transition and Accept notes.
type noteHandler struct {
	mu    sync.Mutex
	notes []string
	cov   Coverage
}

func (h *noteHandler) add(format string, args ...interface{}) {
	h.mu.Lock()
	h.notes = append(h.notes, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

func (h *noteHandler) InstanceNew(cls *Class, inst *Instance) {
	h.add("new|%s|%s|%d", cls.Name, inst.Key, inst.State)
}

func (h *noteHandler) InstanceClone(cls *Class, parent, clone *Instance) {
	h.add("clone|%s|%s|%s|%d", cls.Name, parent.Key, clone.Key, clone.State)
}

func (h *noteHandler) Transition(cls *Class, inst *Instance, from, to uint32, symbol string) {
	h.add("trans|%s|%s|%d|%d|%s", cls.Name, inst.Key, from, to, symbol)
	h.mu.Lock()
	h.cov.addEdge(TransitionEdge{Class: cls.Name, From: from, To: to, Symbol: symbol}, 1)
	h.mu.Unlock()
}

func (h *noteHandler) Accept(cls *Class, inst *Instance) {
	h.add("accept|%s|%s|%d", cls.Name, inst.Key, inst.State)
	h.mu.Lock()
	h.cov.addAccepts(cls.Name, 1)
	h.mu.Unlock()
}

func (h *noteHandler) Fail(v *Violation) {
	h.add("fail|%s|%s|%s|%d|%s", v.Class.Name, v.Kind, v.Key, v.State, v.Symbol)
}

func (h *noteHandler) Overflow(cls *Class, key Key) {
	h.add("overflow|%s|%s", cls.Name, key)
}

func (h *noteHandler) Evict(cls *Class, inst *Instance) {
	h.add("evict|%s|%s|%d", cls.Name, inst.Key, inst.State)
}

func (h *noteHandler) Quarantine(cls *Class, on bool) {
	h.add("quarantine|%s|%v", cls.Name, on)
}

// coverage returns the coverage rebuilt from the notes so far.
func (h *noteHandler) coverage() Coverage {
	h.mu.Lock()
	defer h.mu.Unlock()
	var c Coverage
	c.Merge(h.cov)
	return c
}

// fails counts the recorded violation notes.
func (h *noteHandler) fails() int {
	n := 0
	for _, line := range h.sorted() {
		if strings.HasPrefix(line, "fail|") {
			n++
		}
	}
	return n
}

// sorted returns the notification multiset in canonical order.
func (h *noteHandler) sorted() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]string(nil), h.notes...)
	sort.Strings(out)
	return out
}

// diffEvent is one step of a randomised schedule.
type diffEvent struct {
	op     string // "update", "reset", "resetclass", "restorage"
	symbol string
	flags  SymbolFlags
	key    Key
	ts     TransitionSet
}

// randKey builds a key binding 0..KeySize slots with small values, so that
// clones, exact matches, ANY patterns and collisions all occur.
func randKey(rng *rand.Rand) Key {
	k := Key{}
	for i := 0; i < KeySize; i++ {
		if rng.Intn(3) == 0 {
			k = k.Set(i, Value(rng.Intn(5)))
		}
	}
	return k
}

// randSchedule builds one schedule over the given class shape.
func randSchedule(rng *rand.Rand, states uint32, n int) []diffEvent {
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: uint32(rng.Intn(1 << KeySize))}}
	var mid TransitionSet
	for s := uint32(1); s < states; s++ {
		mid = append(mid, Transition{From: s, To: 1 + (s+1)%states, KeyMask: uint32(rng.Intn(1 << KeySize))})
	}
	site := TransitionSet{{From: 2, To: states, KeyMask: 1}}
	var exit TransitionSet
	for s := uint32(1); s <= states; s++ {
		if s == 1 || rng.Intn(2) == 0 {
			exit = append(exit, Transition{From: s, To: states + 1, Flags: TransCleanup})
		}
	}

	evs := make([]diffEvent, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(16) {
		case 0:
			evs = append(evs, diffEvent{op: "reset"})
		case 1:
			evs = append(evs, diffEvent{op: "resetclass"})
		case 2, 3:
			evs = append(evs, diffEvent{op: "update", symbol: "enter", ts: enter, key: randKey(rng)})
		case 4:
			evs = append(evs, diffEvent{op: "update", symbol: "exit", ts: exit, key: randKey(rng)})
		case 5:
			evs = append(evs, diffEvent{op: "update", symbol: "site", flags: SymRequired, ts: site, key: randKey(rng)})
		case 6:
			evs = append(evs, diffEvent{op: "update", symbol: "mid", flags: SymStrict, ts: mid, key: randKey(rng)})
		default:
			evs = append(evs, diffEvent{op: "update", symbol: "mid", ts: mid, key: randKey(rng)})
		}
	}
	return evs
}

// instSet summarises a store's live instances as sorted key→state lines.
func instSet(s *Store, cls *Class) []string {
	var out []string
	for _, in := range s.Instances(cls) {
		out = append(out, fmt.Sprintf("%s|%d", in.Key, in.State))
	}
	sort.Strings(out)
	return out
}

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

// diffStore is one store under differential test: the oracle or a
// production store, with its own handler and fault injector. A note-building
// store's handler is a noteHandler (h); a lean store's is a CountingHandler
// (counting), for which the store builds no lifecycle notes.
type diffStore struct {
	name string
	*Store
	update   func(*SymbolPlan, Key) error
	h        *noteHandler
	counting *CountingHandler
	inj      *faultinject.Injector
}

// diffRig drives one schedule through the oracle and production stores —
// the per-thread store and a Global store per requested stripe count — and
// compares every production store with the oracle after each event.
type diffRig struct {
	cls    *Class
	stores []diffStore // stores[0] is the oracle
	plans  planCache
}

// newDiffRig builds the oracle and production stores for cls. With rate > 0
// each store gets its own allocation-fault injector built from seed, so all
// of them see byte-identical fault schedules; with rate 0 no injector is
// armed, which keeps the striped layout's free-headroom lock planning in
// play. With lean set the rig also runs a lean twin of every production
// store: the same layout serving only a CountingHandler, so its events
// build no lifecycle notes.
func newDiffRig(cls *Class, seed int64, rate float64, failFast, lean bool, stripes ...int) *diffRig {
	r := &diffRig{cls: cls, plans: planCache{}}
	add := func(name string, o StoreOpts, lean bool) {
		d := diffStore{name: name, inj: faultinject.New(uint64(seed))}
		if lean {
			d.counting = NewCountingHandler()
			o.Handler = d.counting
		} else {
			d.h = &noteHandler{}
			o.Handler = d.h
		}
		if rate > 0 {
			inj := d.inj
			inj.SetRate(faultinject.SiteAlloc, rate)
			o.AllocFail = func(c *Class) bool { return inj.Should(faultinject.SiteAlloc, c.Name) }
		}
		if name == "oracle" {
			orc := newOracle(o)
			d.Store, d.update = orc.Store, orc.UpdateStatePlan
		} else {
			d.Store = NewStoreOpts(o)
			d.update = d.Store.UpdateStatePlan
		}
		d.FailFast = failFast
		d.Register(cls)
		r.stores = append(r.stores, d)
	}
	add("oracle", StoreOpts{}, false)
	add("per-thread", StoreOpts{Context: PerThread}, false)
	for _, n := range stripes {
		add(fmt.Sprintf("global/%d", n), StoreOpts{Context: Global, Shards: n}, false)
	}
	if lean {
		add("per-thread/lean", StoreOpts{Context: PerThread}, true)
		for _, n := range stripes {
			add(fmt.Sprintf("global/%d/lean", n), StoreOpts{Context: Global, Shards: n}, true)
		}
	}
	return r
}

// step applies one event to every store and fails the test at the first
// observable divergence from the oracle: verdict, live count, instance set,
// quarantine state, health counters, notification multiset (violation count
// for a lean store) or coverage. Every store's coverage, the oracle's
// included, must also equal the coverage rebuilt from the oracle's
// Transition and Accept notes. where names the event in failure messages.
func (r *diffRig) step(t *testing.T, where string, ev diffEvent) {
	t.Helper()
	errs := make([]error, len(r.stores))
	for i, d := range r.stores {
		switch ev.op {
		case "reset":
			d.Reset()
		case "resetclass":
			d.ResetClass(r.cls)
		case "restorage":
			d.RegisterWithStorage(r.cls, make([]Instance, r.cls.limit()))
		default:
			errs[i] = d.update(r.plans.plan(r.cls, ev.symbol, ev.flags, ev.ts), ev.key)
		}
	}
	o := r.stores[0]
	at := fmt.Sprintf("%s (%s %s %s)", where, ev.op, ev.symbol, ev.key)
	for i, d := range r.stores[1:] {
		if (errs[0] == nil) != (errs[i+1] == nil) {
			t.Fatalf("%s: %s verdict diverged: oracle=%v store=%v", at, d.name, errs[0], errs[i+1])
		}
		if lo, ld := o.LiveCount(r.cls), d.LiveCount(r.cls); lo != ld {
			t.Fatalf("%s: %s live count diverged: oracle=%d store=%d", at, d.name, lo, ld)
		}
		if io, id := instSet(o.Store, r.cls), instSet(d.Store, r.cls); !reflect.DeepEqual(io, id) {
			t.Fatalf("%s: %s instances diverged:\noracle: %v\nstore:  %v", at, d.name, io, id)
		}
		if qo, qd := o.Quarantined(r.cls), d.Quarantined(r.cls); qo != qd {
			t.Fatalf("%s: %s quarantine diverged: oracle=%v store=%v", at, d.name, qo, qd)
		}
		if ho, hd := healthOf(o.Store, r.cls), healthOf(d.Store, r.cls); ho != hd {
			t.Fatalf("%s: %s health diverged:\noracle: %v\nstore:  %v", at, d.name, ho, hd)
		}
		if d.h != nil {
			if no, nd := o.h.sorted(), d.h.sorted(); !reflect.DeepEqual(no, nd) {
				t.Fatalf("%s: %s notification multisets diverged:\noracle: %v\nstore:  %v", at, d.name, no, nd)
			}
		} else if fo, fd := o.h.fails(), len(d.counting.Violations()); fo != fd {
			t.Fatalf("%s: %s violations diverged: oracle=%d store=%d", at, d.name, fo, fd)
		}
	}
	want := o.h.coverage()
	for _, d := range r.stores {
		if got := d.Coverage(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s coverage diverged from the notes:\nnotes: %v\nstore: %v", at, d.name, want, got)
		}
	}
}

// finish checks that every store consulted its fault injector exactly as
// often as the oracle did.
func (r *diffRig) finish(t *testing.T, where string) {
	t.Helper()
	for _, d := range r.stores[1:] {
		if fo, fd := r.stores[0].inj.TotalFired(), d.inj.TotalFired(); fo != fd {
			t.Fatalf("%s: %s injector diverged: oracle fired %d, store %d", where, d.name, fo, fd)
		}
	}
}

// runDifferential drives one randomised 48-event schedule through the
// oracle, the per-thread store and a Global store with the given stripe
// count. With lean set it adds the lean twins and splices re-registrations
// (RegisterWithStorage) into the schedule, so coverage is also checked with
// no lifecycle notes built and across re-registration.
func runDifferential(t *testing.T, seed int64, stripes int, failFast bool, rate float64, lean bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Small limits make overflow reachable; vary them per schedule, along
	// with the overflow-degradation policy so the whole supervision matrix
	// rides the same sweep (chaos_test.go adds a second class shape).
	cls := &Class{
		Name: "diff", States: 8, Limit: 2 + rng.Intn(8),
		Overflow:        []OverflowPolicy{DropNew, EvictOldest, QuarantineClass}[rng.Intn(3)],
		QuarantineAfter: 1 + rng.Intn(3),
		RearmEvents:     1 + rng.Intn(8),
	}
	states := uint32(3 + rng.Intn(3))
	rig := newDiffRig(cls, seed, rate, failFast, lean, stripes)
	for i, ev := range randSchedule(rng, states, 48) {
		where := fmt.Sprintf("seed %d rate %v event %d", seed, rate, i)
		if lean && rng.Intn(12) == 0 {
			rig.step(t, where+" (before)", diffEvent{op: "restorage"})
		}
		rig.step(t, where, ev)
	}
	rig.finish(t, fmt.Sprintf("seed %d rate %v", seed, rate))
}

// diffStripes is the Global stripe sweep: one schedule per entry in turn.
var diffStripes = []int{1, 2, 4, 8, 16}

// TestDifferentialShardedVsReference runs 1,200 randomised schedules
// (seeds 0–1199) against the oracle, covering both fail-fast modes and
// every stripe count (including 2, where cross-shard traffic is most
// likely, and 1, which isolates the index/free-list machinery from
// striping), with the per-thread store in every schedule.
func TestDifferentialShardedVsReference(t *testing.T) {
	for i := 0; i < 1200; i++ {
		runDifferential(t, int64(i), diffStripes[i%len(diffStripes)], i%2 == 0, 0, false)
	}
}

// TestEngineDifferential sweeps 1,250 more randomised schedules (seeds
// 40000–41249) over both production bodies, the per-thread store in every
// schedule and the Global store at each stripe count in turn, in both
// fail-fast modes, each store also as a lean twin, with re-registrations
// spliced in.
func TestEngineDifferential(t *testing.T) {
	for i := 0; i < 1250; i++ {
		runDifferential(t, int64(40000+i), diffStripes[i%len(diffStripes)], i%2 == 0, 0, true)
	}
}

// TestEngineDifferentialInjected repeats the sweep, lean twins and
// re-registrations included, with allocation failures injected at 1%, 10%
// and 50%: the compiled claim paths must degrade —
// drop, evict, quarantine, suppress — exactly like the oracle.
func TestEngineDifferentialInjected(t *testing.T) {
	for _, rate := range []float64{0.01, 0.10, 0.50} {
		for i := 0; i < 150; i++ {
			runDifferential(t, int64(50000+i), diffStripes[i%len(diffStripes)], i%2 == 0, rate, true)
		}
	}
}

// TestDifferentialSingleStripe pins the Global store at one stripe against
// the oracle separately: any divergence here is in the hash index or free
// list, not the lock planning.
func TestDifferentialSingleStripe(t *testing.T) {
	for i := 0; i < 100; i++ {
		runDifferential(t, int64(10000+i), 1, false, 0, false)
	}
}

// TestDifferentialConcurrentPerKey checks linearisable per-key outcomes:
// goroutines drive disjoint key ranges concurrently into one striped global
// store; afterwards each goroutine's schedule replayed alone through the
// oracle must produce exactly the final instances the shared store
// holds for that goroutine's keys. Keys are made independent by an «init»
// transition that binds the event key directly (no shared ANY parent), so
// the decomposition is semantically exact. Run under -race this also proves
// the striped locking publishes instance state correctly.
func TestDifferentialConcurrentPerKey(t *testing.T) {
	const (
		goroutines = 4
		perG       = 400
		keysPerG   = 8
	)
	cls := &Class{Name: "conc", States: 8, Limit: goroutines*keysPerG + 8}
	sh := NewStoreOpts(StoreOpts{Context: Global, Shards: 8})
	sh.Register(cls)

	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}}
	mid := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 3, KeyMask: 1}, {From: 3, To: 2, KeyMask: 1}}
	site := TransitionSet{{From: 2, To: 4, KeyMask: 1}}

	type step struct {
		symbol string
		flags  SymbolFlags
		key    Key
		ts     TransitionSet
	}
	schedules := make([][]step, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 99))
			for i := 0; i < perG; i++ {
				key := NewKey(Value(g*keysPerG + rng.Intn(keysPerG)))
				var st step
				switch rng.Intn(8) {
				case 0:
					st = step{symbol: "enter", key: key, ts: enter}
				case 1:
					st = step{symbol: "site", flags: SymRequired, key: key, ts: site}
				default:
					st = step{symbol: "mid", key: key, ts: mid}
				}
				schedules[g] = append(schedules[g], st)
				sh.UpdateState(cls, st.symbol, st.flags, st.key, st.ts)
			}
		}(g)
	}
	wg.Wait()

	// Index the shared store's final instances by key.
	got := map[Key]uint32{}
	for _, in := range sh.Instances(cls) {
		got[in.Key] = in.State
	}

	for g := 0; g < goroutines; g++ {
		ref := newOracle(StoreOpts{})
		ref.Register(cls)
		for _, st := range schedules[g] {
			ref.UpdateState(cls, st.symbol, st.flags, st.key, st.ts)
		}
		want := map[Key]uint32{}
		for _, in := range ref.Instances(cls) {
			want[in.Key] = in.State
		}
		for k, wstate := range want {
			if gstate, ok := got[k]; !ok || gstate != wstate {
				t.Errorf("goroutine %d key %s: striped state %d (present=%v), oracle %d",
					g, k, gstate, ok, wstate)
			}
		}
		// And no phantom instances in this goroutine's key range.
		for k, gstate := range got {
			if int(k.Data[0])/keysPerG == g {
				if _, ok := want[k]; !ok {
					t.Errorf("goroutine %d: phantom instance %s state %d", g, k, gstate)
				}
			}
		}
	}
}

// TestDifferentialConcurrentInvariants hammers the cross-shard paths (ANY
// keys, cleanup, required sites, overflow) from several goroutines at once;
// exact outcomes are timing-dependent, but the structural invariants —
// LiveCount agrees with Instances, no duplicate keys, cleanup empties the
// class — must hold at every quiescent check, and -race must stay silent.
func TestDifferentialConcurrentInvariants(t *testing.T) {
	cls := &Class{Name: "stress", States: 8, Limit: 24}
	sh := NewStoreOpts(StoreOpts{Context: Global, Shards: 4})
	sh.Register(cls)

	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	mid := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 3}}
	exit := TransitionSet{{From: 1, To: 7, Flags: TransCleanup}, {From: 2, To: 7, Flags: TransCleanup}}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			for i := 0; i < 500; i++ {
				switch rng.Intn(10) {
				case 0:
					sh.UpdateState(cls, "enter", 0, AnyKey, enter)
				case 1:
					sh.UpdateState(cls, "exit", 0, AnyKey, exit)
				case 2:
					sh.UpdateState(cls, "site", SymRequired, randKey(rng), mid)
				default:
					sh.UpdateState(cls, "mid", 0, randKey(rng), mid)
				}
			}
		}(g)
	}
	wg.Wait()

	insts := sh.Instances(cls)
	if len(insts) != sh.LiveCount(cls) {
		t.Fatalf("LiveCount=%d but %d instances", sh.LiveCount(cls), len(insts))
	}
	seen := map[Key]bool{}
	for _, in := range insts {
		if seen[in.Key] {
			t.Fatalf("duplicate live key %s", in.Key)
		}
		seen[in.Key] = true
	}
	sh.UpdateState(cls, "exit", 0, AnyKey, exit)
	if n := sh.LiveCount(cls); n != 0 {
		t.Fatalf("cleanup left %d instances live", n)
	}
}
