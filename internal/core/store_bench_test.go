package core

import (
	"fmt"
	"runtime"
	"testing"
)

// The store benchmark runs one check-heavy workload through the test oracle
// and through every production store, and holds the compiled engine to the
// speedup that justifies it. `make bench-compare` runs it as part of
// `make ci`.

const (
	// storeBenchKeys is the number of keyed clones under the class's
	// unkeyed parent. Each event's candidate scan over that population —
	// the code the engine compiles — is the dominant cost; with the parent
	// the clones stay under DefaultInstanceLimit, so no event evicts.
	storeBenchKeys = 24
	// minEngineSpeedup is the least accepted speedup of the per-thread
	// store's compiled body over the oracle's interpreted walk on the same
	// single-table layout.
	minEngineSpeedup = 1.5
)

// BenchmarkStore reports the cost of one keyed check event on the oracle,
// the per-thread store, and the Global store at one stripe and at
// GOMAXPROCS stripes. It fails when the per-thread store is less than
// minEngineSpeedup times as fast as the oracle.
func BenchmarkStore(b *testing.B) {
	cls := &Class{Name: "bench", States: 4}
	enter := NewSymbolPlan(cls, "enter", 0, TransitionSet{{From: 0, To: 1, Flags: TransInit}})
	check := NewSymbolPlan(cls, "check", 0, TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}})
	production := func(o StoreOpts) func() (*Store, func(*SymbolPlan, Key) error) {
		return func() (*Store, func(*SymbolPlan, Key) error) {
			s := NewStoreOpts(o)
			return s, s.UpdateStatePlan
		}
	}
	stripes := shardCount(runtime.GOMAXPROCS(0))
	rungs := []struct {
		name string
		mk   func() (*Store, func(*SymbolPlan, Key) error)
	}{
		{"oracle", func() (*Store, func(*SymbolPlan, Key) error) {
			o := newOracle(StoreOpts{})
			return o.Store, o.UpdateStatePlan
		}},
		{"per-thread", production(StoreOpts{Context: PerThread})},
		{"global-1", production(StoreOpts{Context: Global, Shards: 1})},
		{fmt.Sprintf("global-%d", stripes), production(StoreOpts{Context: Global, Shards: stripes})},
	}

	nsPerEvent := map[string]float64{}
	for _, r := range rungs {
		b.Run(r.name, func(b *testing.B) {
			s, update := r.mk()
			update(enter, AnyKey)
			for k := 0; k < storeBenchKeys; k++ {
				update(check, NewKey(Value(k)))
			}
			if n := s.LiveCount(cls); n != storeBenchKeys+1 {
				b.Fatalf("%d live instances, want %d", n, storeBenchKeys+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				update(check, NewKey(Value(i%storeBenchKeys)))
			}
			nsPerEvent[r.name] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}

	oracle, engine := nsPerEvent["oracle"], nsPerEvent["per-thread"]
	if oracle == 0 || engine == 0 {
		return // a -bench filter skipped one side of the comparison
	}
	b.Logf("per-thread engine over oracle: %.2fx (floor %.1fx)", oracle/engine, minEngineSpeedup)
	if oracle/engine < minEngineSpeedup {
		b.Fatalf("per-thread engine is %.2fx the oracle's speed, want >= %.1fx", oracle/engine, minEngineSpeedup)
	}
}
