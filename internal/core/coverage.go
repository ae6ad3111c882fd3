package core

import "sync"

// TransitionEdge identifies one automaton edge for coverage accounting.
type TransitionEdge struct {
	Class  string
	From   uint32
	To     uint32
	Symbol string
}

// Coverage is edge and accept accounting — the data behind the weighted
// automaton graphs of figure 9 and TESLA's “logical coverage” reporting —
// for one store, or merged across stores. Both maps hold only non-zero
// counts. Counts only ever grow: Reset, ResetClass and RegisterWithStorage
// keep them. Re-registering a Global class while its events run may lose
// the counts of events that raced the swap (DESIGN.md §17).
type Coverage struct {
	// Edges counts how often each edge fired, including the edges taken
	// by freshly created and cloned instances.
	Edges map[TransitionEdge]uint64
	// Accepts counts finalised (accepted) instances per class name.
	Accepts map[string]uint64
}

// Merge adds o's counts into c.
func (c *Coverage) Merge(o Coverage) {
	for e, n := range o.Edges {
		c.addEdge(e, n)
	}
	for cls, n := range o.Accepts {
		c.addAccepts(cls, n)
	}
}

func (c *Coverage) addEdge(e TransitionEdge, n uint64) {
	if c.Edges == nil {
		c.Edges = make(map[TransitionEdge]uint64)
	}
	c.Edges[e] += n
}

func (c *Coverage) addAccepts(cls string, n uint64) {
	if c.Accepts == nil {
		c.Accepts = make(map[string]uint64)
	}
	c.Accepts[cls] += n
}

// edgeKey is an edge within one class.
type edgeKey struct {
	from, to uint32
	symbol   string
}

// edgeTable interns a class's edges into dense slots. Slots are never
// reused or removed, so lowering the same (class, symbol) again maps onto
// the slots it had.
type edgeTable struct {
	mu   sync.Mutex
	idx  map[edgeKey]int32
	list []edgeKey
}

// edgeSlot returns the class-wide slot of edge from→to on symbol,
// assigning the next one on first sight.
func (c *Class) edgeSlot(from, to uint32, symbol string) int32 {
	t := &c.edges
	t.mu.Lock()
	defer t.mu.Unlock()
	k := edgeKey{from, to, symbol}
	if i, ok := t.idx[k]; ok {
		return i
	}
	if t.idx == nil {
		t.idx = make(map[edgeKey]int32)
	}
	i := int32(len(t.list))
	t.idx[k] = i
	t.list = append(t.list, k)
	return i
}

// edgeKeys returns the class's interned edges, indexed by slot.
func (c *Class) edgeKeys() []edgeKey {
	t := &c.edges
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.list[:len(t.list):len(t.list)]
}

// covCounts is one class's coverage counters in one per-thread store, or in
// one stripe of a Global store. Its owner serialises every access: the
// per-thread store's thread, or the stripe lock.
type covCounts struct {
	edges   []uint64 // by class edge slot; grown on first use of a slot
	accepts uint64
}

// fire counts one edge, and the acceptance when the edge finalises.
func (cc *covCounts) fire(slot int32, accept bool) {
	if int(slot) >= len(cc.edges) {
		cc.grow(slot)
	}
	cc.edges[slot]++
	if accept {
		cc.accepts++
	}
}

// grow extends the counters to cover slot: a class can gain edges after a
// store registered it (a plan lowered later, or UpdateState's one-off plan).
func (cc *covCounts) grow(slot int32) {
	n := make([]uint64, int(slot)+1, 2*(int(slot)+1))
	copy(n, cc.edges)
	cc.edges = n
}

// addTo adds the counters into c under the class's name; keys is the
// class's edgeKeys, read after every counter it covers was bumped.
func (cc *covCounts) addTo(c *Coverage, cls *Class, keys []edgeKey) {
	for i, n := range cc.edges {
		if n == 0 {
			continue
		}
		k := keys[i]
		c.addEdge(TransitionEdge{Class: cls.Name, From: k.from, To: k.to, Symbol: k.symbol}, n)
	}
	if cc.accepts > 0 {
		c.addAccepts(cls.Name, cc.accepts)
	}
}

// Coverage returns the store's edge and accept counts. A Global store's
// counts are read under every stripe lock; a per-thread store's must be
// read while its thread is not dispatching (after a join, say), as with
// Health.
func (s *Store) Coverage() Coverage {
	var c Coverage
	if s.nshards > 0 {
		for _, sc := range s.stab.Load().order {
			sc.lockShards(sc.allMask())
			keys := sc.cls.edgeKeys()
			for i := range sc.shards {
				sc.shards[i].cov.addTo(&c, sc.cls, keys)
			}
			sc.unlockShards(sc.allMask())
		}
		return c
	}
	for _, cs := range s.order {
		cs.cov.addTo(&c, cs.cls, cs.cls.edgeKeys())
	}
	return c
}
