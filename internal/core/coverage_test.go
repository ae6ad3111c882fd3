package core

import (
	"reflect"
	"testing"
)

// TestCoverageSlotsInterned: lowering the same (class, symbol) again maps
// onto the same edge slots, and neither re-lowering nor UpdateState's
// one-off plans grow the class's edge table or a store's counters.
func TestCoverageSlotsInterned(t *testing.T) {
	cls := &Class{Name: "intern", States: 4}
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	step := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}}
	a := NewSymbolPlan(cls, "step", 0, step)
	b := NewSymbolPlan(cls, "step", 0, step)
	if !reflect.DeepEqual(a.edge, b.edge) {
		t.Fatalf("re-lowering moved the slots: %v then %v", a.edge, b.edge)
	}
	NewSymbolPlan(cls, "enter", 0, enter)
	edges := len(cls.edgeKeys())
	if edges != 3 {
		t.Fatalf("class interned %d edges, want 3", edges)
	}

	s := NewStore(PerThread, nil)
	s.Register(cls)
	for i := 0; i < 50; i++ {
		s.UpdateState(cls, "enter", 0, AnyKey, enter)
		s.UpdateState(cls, "step", 0, NewKey(Value(i%3)), step)
	}
	if n := len(cls.edgeKeys()); n != edges {
		t.Fatalf("UpdateState grew the edge table to %d, want %d", n, edges)
	}
	if n := len(s.classes[cls].cov.edges); n > edges {
		t.Fatalf("counters grew to %d for %d edges", n, edges)
	}
}

// TestCoverageSurvivesResets: in both layouts, Reset, ResetClass and
// RegisterWithStorage expunge instances but keep the counts.
func TestCoverageSurvivesResets(t *testing.T) {
	for _, ctx := range []Context{PerThread, Global} {
		t.Run(ctx.String(), func(t *testing.T) {
			cls := &Class{Name: "keep", States: 4, Limit: 4}
			enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
			exit := TransitionSet{{From: 1, To: 3, Flags: TransCleanup}}
			s := NewStore(ctx, nil)
			s.Register(cls)
			for i := 0; i < 3; i++ {
				s.UpdateState(cls, "enter", 0, AnyKey, enter)
				s.UpdateState(cls, "exit", 0, AnyKey, exit)
			}
			s.UpdateState(cls, "enter", 0, AnyKey, enter)
			want := Coverage{
				Edges: map[TransitionEdge]uint64{
					{Class: "keep", From: 0, To: 1, Symbol: "enter"}: 4,
					{Class: "keep", From: 1, To: 3, Symbol: "exit"}:  3,
				},
				Accepts: map[string]uint64{"keep": 3},
			}
			check := func(after string) {
				t.Helper()
				if got := s.Coverage(); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s: coverage %v, want %v", after, got, want)
				}
			}
			check("events")
			s.Reset()
			check("Reset")
			s.ResetClass(cls)
			check("ResetClass")
			s.RegisterWithStorage(cls, make([]Instance, 4))
			check("RegisterWithStorage")
			if s.LiveCount(cls) != 0 {
				t.Fatalf("re-registration kept %d live instances", s.LiveCount(cls))
			}
		})
	}
}

// wrapped is a user handler around a CountingHandler: the store cannot know
// what it reads, so it must get every note.
type wrapped struct{ Handler }

// TestLifecycleNotesOnlyForReaders pins which handlers get lifecycle
// notes: none for NopHandler, *CountingHandler and MultiHandlers of those;
// every note for anything else, wrappers and SetHandler swaps included.
func TestLifecycleNotesOnlyForReaders(t *testing.T) {
	counting := NewCountingHandler()
	for _, c := range []struct {
		name string
		h    Handler
		want bool
	}{
		{"nil", nil, false},
		{"nop", NopHandler{}, false},
		{"counting", counting, false},
		{"multi-of-counting", MultiHandler{counting, NopHandler{}}, false},
		{"nested-multi", MultiHandler{MultiHandler{counting}}, false},
		{"print", &PrintHandler{}, true},
		{"multi-with-reader", MultiHandler{counting, &noteHandler{}}, true},
		{"wrapper", wrapped{counting}, true},
	} {
		if got := NewStoreOpts(StoreOpts{Handler: c.h}).hv.Load().life; got != c.want {
			t.Errorf("%s: lifecycle notes = %v, want %v", c.name, got, c.want)
		}
	}

	cls := &Class{Name: "swap", States: 3}
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	exit := TransitionSet{{From: 1, To: 2, Flags: TransCleanup}}
	s := NewStore(PerThread, counting)
	s.UpdateState(cls, "enter", 0, AnyKey, enter)
	h := &noteHandler{}
	s.SetHandler(MultiHandler{counting, h})
	s.UpdateState(cls, "exit", 0, AnyKey, exit)
	want := []string{"accept|swap|(∗)|2", "trans|swap|(∗)|1|2|exit"}
	if got := h.sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("notes after SetHandler: %v, want %v", got, want)
	}
}
