package automata

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tesla/internal/core"
	"tesla/internal/spec"
)

func compileSrc(t *testing.T, name, src string, env *spec.Env) *Automaton {
	t.Helper()
	a, err := spec.Parse(name, src, env)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return auto
}

// runString drives a symbol string through a fresh store and reports
// (accepted, violations). Symbols carry the automaton's key semantics; this
// helper uses unbound keys throughout (pure ordering checks).
func runString(auto *Automaton, seq []int) (accepted bool, violations []*core.Violation) {
	h := core.NewCountingHandler()
	s := core.NewStore(core.PerThread, h)
	s.Register(auto.Class)
	s.UpdateState(auto.Class, auto.Symbols[boundBeginID].Name, auto.Symbols[boundBeginID].Flags, core.AnyKey, auto.Trans[boundBeginID])
	for _, sym := range seq {
		s.UpdateState(auto.Class, auto.Symbols[sym].Name, auto.Symbols[sym].Flags, core.AnyKey, auto.Trans[sym])
	}
	s.UpdateState(auto.Class, auto.Symbols[boundEndID].Name, auto.Symbols[boundEndID].Flags, core.AnyKey, auto.Trans[boundEndID])
	return s.Coverage().Accepts[auto.Name] > 0, h.Violations()
}

func TestCompileFig9Shape(t *testing.T) {
	auto := compileSrc(t, "fig9",
		`TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so) == 0)`, nil)

	if got := auto.Vars; len(got) != 1 || got[0] != "so" {
		t.Fatalf("vars = %v", got)
	}
	// Alphabet: bound begin, bound end, site, the MAC check.
	if len(auto.Symbols) != 4 {
		t.Fatalf("symbols = %v", auto.Symbols)
	}
	if auto.BoundBegin().Fn != spec.SyscallFn || auto.BoundBegin().Kind != KindBoundBegin {
		t.Errorf("bound begin = %+v", auto.BoundBegin())
	}
	if auto.Site().Flags&core.SymRequired == 0 {
		t.Error("site must be required")
	}
	check := auto.Symbols[3]
	if check.Kind != KindFuncExit || check.Fn != "mac_socket_check_poll" {
		t.Errorf("check symbol = %+v", check)
	}
	if check.Ret == nil || check.Ret.Const != 0 {
		t.Errorf("check ret = %v", check.Ret)
	}
	if check.ProvidesMask != 1 || len(check.Captures) != 1 || check.Captures[0] != (SlotCapture{Slot: 0, Src: CapArg, Index: 1}) {
		t.Errorf("check captures = %v mask=%b", check.Captures, check.ProvidesMask)
	}

	// Init creates in Start; cleanup exists from Start (bypass), from the
	// post-check state and from the post-site state.
	if len(auto.Trans[boundBeginID]) != 1 || !auto.Trans[boundBeginID][0].Init() {
		t.Errorf("init transitions = %v", auto.Trans[boundBeginID])
	}
	if len(auto.Trans[boundEndID]) < 3 {
		t.Errorf("cleanup transitions = %v", auto.Trans[boundEndID])
	}
}

func TestPreviouslyOrdering(t *testing.T) {
	auto := compileSrc(t, "prev", `TESLA_WITHIN(f, previously(check() == 0))`, nil)
	check := auto.SymbolByName("check() == 0")
	if check == nil {
		t.Fatal("check symbol missing")
	}
	site := siteSymbolID

	// check → site: accepted.
	if ok, vs := runString(auto, []int{check.ID, site}); !ok || len(vs) != 0 {
		t.Errorf("check,site: ok=%v vs=%v", ok, vs)
	}
	// site without check: NoInstance violation at the site.
	if _, vs := runString(auto, []int{site}); len(vs) != 1 || vs[0].Kind != core.VerdictNoInstance {
		t.Errorf("site alone: %v", vs)
	}
	// check after site: violation (previously means before).
	if _, vs := runString(auto, []int{check.ID, site, check.ID}); len(vs) != 0 {
		// extra check after site is irrelevant in conditional mode
		t.Errorf("check,site,check: %v", vs)
	}
	if _, vs := runString(auto, []int{site, check.ID}); len(vs) == 0 {
		t.Error("site before check must fail")
	}
	// bound without touching the site: bypass, no violation.
	if _, vs := runString(auto, nil); len(vs) != 0 {
		t.Errorf("empty bound: %v", vs)
	}
	// check alone, never reaching the site: bypass, no violation.
	if _, vs := runString(auto, []int{check.ID}); len(vs) != 0 {
		t.Errorf("check alone: %v", vs)
	}
}

func TestEventuallyOrdering(t *testing.T) {
	auto := compileSrc(t, "ev", `TESLA_WITHIN(f, eventually(audit() == 0))`, nil)
	audit := auto.SymbolByName("audit() == 0")
	site := siteSymbolID

	// site → audit: accepted.
	if ok, vs := runString(auto, []int{site, audit.ID}); !ok || len(vs) != 0 {
		t.Errorf("site,audit: ok=%v vs=%v", ok, vs)
	}
	// site, no audit before cleanup: incomplete.
	if _, vs := runString(auto, []int{site}); len(vs) != 1 || vs[0].Kind != core.VerdictIncomplete {
		t.Errorf("site alone: %v", vs)
	}
	// never reaching the site: bypass.
	if _, vs := runString(auto, nil); len(vs) != 0 {
		t.Errorf("empty: %v", vs)
	}
}

func TestSequenceSubsequenceSemantics(t *testing.T) {
	auto := compileSrc(t, "seq", `TESLA_WITHIN(f, previously(a(), b()))`, nil)
	a := auto.SymbolByName("call(a())")
	b := auto.SymbolByName("call(b())")
	if a == nil || b == nil {
		t.Fatalf("symbols: %v", auto.Symbols)
	}
	site := siteSymbolID

	cases := []struct {
		seq  []int
		pass bool
	}{
		{[]int{a.ID, b.ID, site}, true},
		{[]int{b.ID, a.ID, b.ID, site}, true}, // a,b occurs as a subsequence
		{[]int{a.ID, site}, false},
		{[]int{b.ID, site}, false},
		{[]int{b.ID, a.ID, site}, false},
		{[]int{a.ID, a.ID, b.ID, site}, true},
	}
	for i, c := range cases {
		_, vs := runString(auto, c.seq)
		if pass := len(vs) == 0; pass != c.pass {
			t.Errorf("case %d (%v): pass=%v want %v (%v)", i, c.seq, pass, c.pass, vs)
		}
	}
}

func TestOrBranches(t *testing.T) {
	// Figure 7 shape: three alternative justifications for a read.
	env := &spec.Env{Consts: map[string]int64{"IO_NOMACCHECK": 0x80}}
	auto := compileSrc(t, "fig7", `TESLA_SYSCALL(incallstack(ufs_readdir)
		|| previously(called(vn_rdwr(flags(IO_NOMACCHECK))))
		|| previously(mac_vnode_check_read() == 0))`, env)

	ics := auto.SymbolByName("incallstack(ufs_readdir)")
	rdwr := auto.SymbolByName("call(vn_rdwr(flags(0x80)))")
	mac := auto.SymbolByName("mac_vnode_check_read() == 0")
	if ics == nil || rdwr == nil || mac == nil {
		t.Fatalf("symbols: %v", auto.Symbols)
	}
	site := siteSymbolID

	// Each branch alone satisfies the assertion.
	for _, pre := range []int{ics.ID, rdwr.ID, mac.ID} {
		if _, vs := runString(auto, []int{pre, site}); len(vs) != 0 {
			t.Errorf("branch %d: %v", pre, vs)
		}
	}
	// It is not an error for two branches to fire (inclusive or).
	if _, vs := runString(auto, []int{rdwr.ID, mac.ID, site}); len(vs) != 0 {
		t.Errorf("two branches: %v", vs)
	}
	// No branch: violation at site.
	if _, vs := runString(auto, []int{site}); len(vs) != 1 || vs[0].Kind != core.VerdictNoInstance {
		t.Errorf("no branch: %v", vs)
	}
}

func TestOptional(t *testing.T) {
	auto := compileSrc(t, "opt", `TESLA_WITHIN(f, previously(a(), optional(b()), c()))`, nil)
	a := auto.SymbolByName("call(a())")
	b := auto.SymbolByName("call(b())")
	c := auto.SymbolByName("call(c())")
	site := siteSymbolID

	if _, vs := runString(auto, []int{a.ID, b.ID, c.ID, site}); len(vs) != 0 {
		t.Errorf("a,b,c: %v", vs)
	}
	if _, vs := runString(auto, []int{a.ID, c.ID, site}); len(vs) != 0 {
		t.Errorf("a,c: %v", vs)
	}
	if _, vs := runString(auto, []int{a.ID, b.ID, site}); len(vs) == 0 {
		t.Error("a,b must fail (c missing)")
	}
}

func TestATLeast(t *testing.T) {
	auto := compileSrc(t, "al", `TESLA_WITHIN(f, previously(ATLEAST(2, call(p), call(q))))`, nil)
	p := auto.SymbolByName("call(p())")
	q := auto.SymbolByName("call(q())")
	site := siteSymbolID

	cases := []struct {
		seq  []int
		pass bool
	}{
		{[]int{p.ID, q.ID, site}, true},
		{[]int{p.ID, p.ID, site}, true},
		{[]int{q.ID, p.ID, q.ID, site}, true}, // more than the minimum
		{[]int{p.ID, site}, false},
		{[]int{site}, false},
	}
	for i, c := range cases {
		_, vs := runString(auto, c.seq)
		if pass := len(vs) == 0; pass != c.pass {
			t.Errorf("case %d: pass=%v want %v (%v)", i, pass, c.pass, vs)
		}
	}
}

func TestATLeastZeroTracing(t *testing.T) {
	// ATLEAST(0, …) — the fig. 8 tracing construct: everything passes,
	// and each occurrence is an observable transition (explicit
	// self-loops survive determinisation).
	auto := compileSrc(t, "al0", `TESLA_WITHIN(f, previously(ATLEAST(0, call(p), call(q))))`, nil)
	p := auto.SymbolByName("call(p())")
	if len(auto.Trans[p.ID]) == 0 {
		t.Fatal("ATLEAST(0) must keep explicit self-loop transitions for tracing")
	}

	h := core.NewCountingHandler()
	s := core.NewStore(core.PerThread, h)
	s.Register(auto.Class)
	s.UpdateState(auto.Class, "b", 0, core.AnyKey, auto.Trans[boundBeginID])
	for i := 0; i < 5; i++ {
		s.UpdateState(auto.Class, auto.Symbols[p.ID].Name, 0, core.AnyKey, auto.Trans[p.ID])
	}
	s.UpdateState(auto.Class, "site", core.SymRequired, core.AnyKey, auto.Trans[siteSymbolID])
	s.UpdateState(auto.Class, "e", 0, core.AnyKey, auto.Trans[boundEndID])
	if len(h.Violations()) != 0 {
		t.Fatalf("violations: %v", h.Violations())
	}
	var loops uint64
	for e, n := range s.Coverage().Edges {
		if e.Symbol == "call(p())" {
			loops += n
		}
	}
	if loops != 5 {
		t.Errorf("p transitions observed = %d, want 5", loops)
	}
}

func TestStrictRejectsSurplus(t *testing.T) {
	a, err := spec.Parse("strict", `TESLA_WITHIN(f, strict(previously(a(), b())))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	sa := auto.SymbolByName("call(a())")
	sb := auto.SymbolByName("call(b())")
	if sa.Flags&core.SymStrict == 0 {
		t.Fatal("strict flag not propagated to symbols")
	}
	// In-order passes.
	if _, vs := runString(auto, []int{sa.ID, sb.ID, siteSymbolID}); len(vs) != 0 {
		t.Errorf("in-order: %v", vs)
	}
	// Out-of-order b first: strict violation.
	if _, vs := runString(auto, []int{sb.ID, sa.ID, sb.ID, siteSymbolID}); len(vs) == 0 {
		t.Error("strict must reject out-of-order events")
	}
}

func TestVarCapacityExceeded(t *testing.T) {
	a, err := spec.Parse("big", `TESLA_WITHIN(f, previously(g(v1, v2, v3, v4, v5) == 0))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(a); err == nil {
		t.Fatal("expected key-size error")
	}
}

func TestEmptyExpression(t *testing.T) {
	if _, err := Compile(&spec.Assertion{Name: "nil", Bound: spec.WithinBound("f")}); err == nil {
		t.Fatal("expected error for empty expression")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile(&spec.Assertion{Name: "nil", Bound: spec.WithinBound("f")})
}

func TestSiteNormalisation(t *testing.T) {
	// A bare expression without previously/eventually gets the site
	// appended, making TSEQUENCE(a, b) mean "a then b, both before here".
	auto := compileSrc(t, "bare", `TESLA_WITHIN(f, TSEQUENCE(call(a), call(b)))`, nil)
	a := auto.SymbolByName("call(a())")
	b := auto.SymbolByName("call(b())")
	if _, vs := runString(auto, []int{a.ID, b.ID, siteSymbolID}); len(vs) != 0 {
		t.Errorf("a,b,site: %v", vs)
	}
	if _, vs := runString(auto, []int{a.ID, siteSymbolID}); len(vs) == 0 {
		t.Error("incomplete sequence must fail at site")
	}
}

func TestDotOutput(t *testing.T) {
	auto := compileSrc(t, "dot", `TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so) == 0)`, nil)
	plain := auto.Dot(nil)
	for _, want := range []string{"digraph", "«init»", "«cleanup»", "mac_socket_check_poll", "doublecircle"} {
		if !strings.Contains(plain, want) {
			t.Errorf("dot output missing %q:\n%s", want, plain)
		}
	}

	h := core.NewCountingHandler()
	s := core.NewStore(core.PerThread, h)
	s.Register(auto.Class)
	s.UpdateState(auto.Class, auto.Symbols[boundBeginID].Name, 0, core.AnyKey, auto.Trans[boundBeginID])
	s.UpdateState(auto.Class, auto.Symbols[3].Name, 0, core.NewKey(7), auto.Trans[3])
	weighted := auto.Dot(s.Coverage().Edges)
	if !strings.Contains(weighted, "penwidth") || !strings.Contains(weighted, "xlabel") {
		t.Errorf("weighted dot missing weights:\n%s", weighted)
	}
}

// TestQuickDFAMatchesNFA: the subset-constructed DFA accepts exactly the
// strings the ε-NFA accepts, under both conditional and strict semantics.
func TestQuickDFAMatchesNFA(t *testing.T) {
	srcs := []string{
		`TESLA_WITHIN(f, previously(a(), b()))`,
		`TESLA_WITHIN(f, previously(a() || b()))`,
		`TESLA_WITHIN(f, previously(a(), optional(b()), c()))`,
		`TESLA_WITHIN(f, previously(ATLEAST(2, call(p), call(q))))`,
		`TESLA_WITHIN(f, eventually(a(), b()))`,
		`TESLA_WITHIN(f, strict(previously(a(), b())))`,
		`TESLA_WITHIN(f, (previously(a()) || previously(b(), c())))`,
	}
	for _, src := range srcs {
		sp, err := spec.Parse("q", src, nil)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := Compile(sp)
		if err != nil {
			t.Fatal(err)
		}
		nsyms := len(auto.Symbols)

		// DFA acceptance: simulate the transition table directly.
		dfaAccepts := func(seq []int) bool {
			state := auto.Start
			for _, sym := range seq {
				var next uint32
				found := false
				for _, tr := range auto.Trans[sym] {
					if tr.From == state {
						next = tr.To
						found = true
						break
					}
				}
				if found {
					state = next
					continue
				}
				// No transition: required or strict events kill
				// the run; others are ignored.
				if auto.Symbols[sym].Flags&(core.SymRequired|core.SymStrict) != 0 {
					return false
				}
			}
			for _, tr := range auto.Trans[boundEndID] {
				if tr.From == state {
					return true
				}
			}
			return false
		}

		rng := rand.New(rand.NewSource(42))
		f := func() bool {
			n := rng.Intn(8)
			seq := make([]int, n)
			for i := range seq {
				seq[i] = 3 + rng.Intn(nsyms-3) // event symbols
			}
			// Half the runs include the site somewhere.
			if rng.Intn(2) == 0 && n > 0 {
				seq[rng.Intn(n)] = siteSymbolID
			}
			nfaOK := auto.nfa.accepts(seq, sp.Strict)
			dfaOK := dfaAccepts(seq)
			if nfaOK != dfaOK {
				t.Logf("%s: seq=%v nfa=%v dfa=%v", src, seq, nfaOK, dfaOK)
			}
			return nfaOK == dfaOK
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// TestQuickOrIsCrossProduct validates the §3.4.2 semantics: the compiled
// a∨b automaton accepts a run exactly when the automaton for a alone or the
// automaton for b alone accepts it — the observable property of the paper's
// cross-product construction states(a ∨ b) = {aᵢbⱼ}, which this
// implementation achieves by tracking both operands simultaneously in
// subset construction.
func TestQuickOrIsCrossProduct(t *testing.T) {
	operands := [][2]string{
		{`previously(a(), b())`, `previously(c())`},
		{`previously(a())`, `previously(b(), c())`},
		{`previously(a(), c())`, `previously(b(), c())`}, // shared symbol
	}
	for _, ops := range operands {
		or := compileSrc(t, "or", `TESLA_WITHIN(f, (`+ops[0]+` || `+ops[1]+`))`, nil)
		la := compileSrc(t, "la", `TESLA_WITHIN(f, `+ops[0]+`)`, nil)
		lb := compileSrc(t, "lb", `TESLA_WITHIN(f, `+ops[1]+`)`, nil)

		// Map the OR automaton's event symbols to each operand's (by
		// display name; missing = irrelevant to that operand).
		lookup := func(auto *Automaton, name string) int {
			if s := auto.SymbolByName(name); s != nil {
				return s.ID
			}
			return -1
		}

		rng := rand.New(rand.NewSource(21))
		f := func() bool {
			n := rng.Intn(7)
			seq := make([]int, 0, n+1)
			for i := 0; i < n; i++ {
				seq = append(seq, 3+rng.Intn(len(or.Symbols)-3))
			}
			seq = append(seq, siteSymbolID) // always reach the site

			passes := func(auto *Automaton, names []string) bool {
				_, vs := runStringNames(auto, names)
				return len(vs) == 0
			}
			names := make([]string, len(seq))
			for i, sym := range seq {
				names[i] = or.Symbols[sym].Name
			}
			_ = lookup
			orOK := passes(or, names)
			aOK := passes(la, names)
			bOK := passes(lb, names)
			if orOK != (aOK || bOK) {
				t.Logf("ops=%v seq=%v or=%v a=%v b=%v", ops, names, orOK, aOK, bOK)
			}
			return orOK == (aOK || bOK)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", ops, err)
		}
	}
}

// runStringNames drives events by display name, skipping names the
// automaton does not know (irrelevant events).
func runStringNames(auto *Automaton, names []string) (bool, []*core.Violation) {
	h := core.NewCountingHandler()
	s := core.NewStore(core.PerThread, h)
	s.Register(auto.Class)
	begin, end := auto.BoundBegin(), auto.BoundEnd()
	s.UpdateState(auto.Class, begin.Name, begin.Flags, core.AnyKey, auto.Trans[begin.ID])
	for _, name := range names {
		if name == "«assertion»" {
			site := auto.Site()
			s.UpdateState(auto.Class, site.Name, site.Flags, core.AnyKey, auto.Trans[site.ID])
			continue
		}
		sym := auto.SymbolByName(name)
		if sym == nil {
			continue
		}
		s.UpdateState(auto.Class, sym.Name, sym.Flags, core.AnyKey, auto.Trans[sym.ID])
	}
	s.UpdateState(auto.Class, end.Name, end.Flags, core.AnyKey, auto.Trans[end.ID])
	return s.Coverage().Accepts[auto.Name] > 0, h.Violations()
}

// TestXorStrictness: in conditional mode ^ behaves like || (at least one
// operand); under strict, the surplus operand's events are violations —
// the behavioural distinction between the two operators.
func TestXorStrictness(t *testing.T) {
	lax := compileSrc(t, "xl", `TESLA_WITHIN(f, (previously(a()) ^ previously(b())))`, nil)
	a := lax.SymbolByName("call(a())")
	b := lax.SymbolByName("call(b())")
	if _, vs := runString(lax, []int{a.ID, siteSymbolID}); len(vs) != 0 {
		t.Fatalf("one branch: %v", vs)
	}
	if _, vs := runString(lax, []int{a.ID, b.ID, siteSymbolID}); len(vs) != 0 {
		t.Fatalf("conditional xor tolerates both: %v", vs)
	}

	strict := compileSrc(t, "xs", `TESLA_WITHIN(f, strict((previously(a()) ^ previously(b()))))`, nil)
	sa := strict.SymbolByName("call(a())")
	sb := strict.SymbolByName("call(b())")
	if _, vs := runString(strict, []int{sa.ID, siteSymbolID}); len(vs) != 0 {
		t.Fatalf("strict one branch: %v", vs)
	}
	if _, vs := runString(strict, []int{sa.ID, sb.ID, siteSymbolID}); len(vs) == 0 {
		t.Fatal("strict xor must reject both branches occurring")
	}
}
