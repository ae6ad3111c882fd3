package core

import (
	"runtime"
	"testing"
)

// TestInstancesSnapshotIsolated is the regression test for Instances
// returning copies: a snapshot taken before further events must not change
// when the store mutates its preallocated slots in place.
func TestInstancesSnapshotIsolated(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "snap", States: 4, Limit: 8}
		s := mk(StoreOpts{})
		s.Register(cls)

		enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}}
		work := TransitionSet{{From: 1, To: 2, KeyMask: 1}}
		if err := s.UpdateState(cls, "enter", 0, NewKey(7), enter); err != nil {
			t.Fatal(err)
		}

		snap := s.Instances(cls)
		if len(snap) != 1 || snap[0].State != 1 {
			t.Fatalf("unexpected snapshot %+v", snap)
		}

		// Drive the live instance forward; the old snapshot must not move.
		if err := s.UpdateState(cls, "work", 0, NewKey(7), work); err != nil {
			t.Fatal(err)
		}
		if snap[0].State != 1 {
			t.Fatalf("snapshot aliased live slot: state moved to %d", snap[0].State)
		}

		// Expunge and reuse the slot under a different key; still isolated.
		s.ResetClass(cls)
		if err := s.UpdateState(cls, "enter", 0, NewKey(9), enter); err != nil {
			t.Fatal(err)
		}
		if snap[0].Key != NewKey(7) || !snap[0].Active {
			t.Fatalf("snapshot aliased reused slot: %+v", snap[0])
		}
	})
}

// TestAllocLeavesLiveUntouched is the regression test for the alloc/commit
// split: claiming a slot must not move the live count until the caller
// commits it, so error paths between alloc and activation cannot leak
// counts.
func TestAllocLeavesLiveUntouched(t *testing.T) {
	cls := &Class{Name: "alloc", States: 4, Limit: 4}
	s := NewStore(PerThread, nil)
	s.Register(cls)
	cs := s.classes[cls]

	inst := cs.alloc()
	if inst == nil {
		t.Fatal("alloc failed on empty class")
	}
	if cs.live != 0 {
		t.Fatalf("alloc moved live count to %d before commit", cs.live)
	}
	// Abandoning the slot (an error path) leaves the count right and the
	// slot reusable.
	if got := s.LiveCount(cls); got != 0 {
		t.Fatalf("LiveCount = %d after abandoned alloc", got)
	}
	again := cs.alloc()
	if again != inst {
		t.Fatalf("abandoned slot not reused: %p vs %p", again, inst)
	}
	*again = Instance{State: 1, Key: NewKey(1), Active: true}
	cs.commit()
	if got := s.LiveCount(cls); got != 1 {
		t.Fatalf("LiveCount = %d after commit", got)
	}
}

// TestShardCountSelection pins the two layout rules: the Context alone picks
// the layout (a per-thread store ignores Shards), and Shards sets a Global
// store's stripe count — 0 tracks GOMAXPROCS, other values round up to a
// power of two, capped at 64.
func TestShardCountSelection(t *testing.T) {
	cases := []struct {
		ctx     Context
		shards  int
		striped bool
		want    int
	}{
		{PerThread, 0, false, 1},
		{PerThread, 1, false, 1},
		{PerThread, 8, false, 1},
		{Global, 1, true, 1},
		{Global, 2, true, 2},
		{Global, 3, true, 4},
		{Global, 500, true, 64},
		{Global, 0, true, shardCount(runtime.GOMAXPROCS(0))},
	}
	for _, c := range cases {
		s := NewStoreOpts(StoreOpts{Context: c.ctx, Shards: c.shards})
		if striped := s.stab.Load() != nil; striped != c.striped || s.Shards() != c.want {
			t.Errorf("StoreOpts{%v, Shards: %d}: striped=%v shards=%d, want %v/%d",
				c.ctx, c.shards, striped, s.Shards(), c.striped, c.want)
		}
	}
}

// TestShardedRegisterWithStorage checks the caller-storage path against the
// sharded store: the supplied block bounds capacity and re-registration
// expunges.
func TestShardedRegisterWithStorage(t *testing.T) {
	cls := &Class{Name: "storage", States: 4, Limit: 64}
	s := NewStoreOpts(StoreOpts{Context: Global, Shards: 4})
	block := make([]Instance, 2) // tighter than the class limit
	s.RegisterWithStorage(cls, block)

	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}}
	for k := 0; k < 3; k++ {
		s.UpdateState(cls, "enter", 0, NewKey(Value(k)), enter)
	}
	if got := s.LiveCount(cls); got != 2 {
		t.Fatalf("LiveCount = %d with 2-slot caller storage", got)
	}

	s.RegisterWithStorage(cls, make([]Instance, 4))
	if got := s.LiveCount(cls); got != 0 {
		t.Fatalf("re-registration kept %d instances live", got)
	}
}
