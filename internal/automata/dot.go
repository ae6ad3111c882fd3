package automata

import (
	"fmt"
	"sort"
	"strings"

	"tesla/internal/core"
)

// Dot renders the automaton as a Graphviz digraph. If weights is non-nil
// (the Edges of a core.Coverage, from Monitor.Coverage or Store.Coverage),
// transitions are weighted according to their occurrence at run time,
// reproducing the combined static-description / dynamic-behaviour graphs of
// figure 9. This lets the programmer visually inspect the portions of the
// state graph that are executed in practice — coverage at a logical rather
// than source-line level (§4.4.2).
func (a *Automaton) Dot(weights map[core.TransitionEdge]uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", a.Name)
	b.WriteString("\trankdir=TB;\n")
	b.WriteString("\tnode [shape=ellipse fontname=\"Helvetica\"];\n")

	var max uint64 = 1
	if weights != nil {
		for e, n := range weights {
			if e.Class == a.Name && n > max {
				max = n
			}
		}
	}

	fmt.Fprintf(&b, "\ts0 [label=\"state 0\\n«pre-init»\" style=dashed];\n")
	for s := uint32(1); s < a.Accept; s++ {
		fmt.Fprintf(&b, "\ts%d [label=\"state %d\"];\n", s, s)
	}
	fmt.Fprintf(&b, "\ts%d [label=\"state %d\\n«accept»\" shape=doublecircle];\n", a.Accept, a.Accept)

	type edge struct {
		from, to uint32
		label    string
		weight   uint64
	}
	var edges []edge
	for sym, ts := range a.Trans {
		s := a.Symbols[sym]
		for _, t := range ts {
			label := s.Name
			switch {
			case t.Init():
				label += "\\n«init»"
			case t.Cleanup():
				label += "\\n«cleanup»"
			}
			var w uint64
			if weights != nil {
				w = weights[core.TransitionEdge{Class: a.Name, From: t.From, To: t.To, Symbol: s.Name}]
			}
			edges = append(edges, edge{t.From, t.To, label, w})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		if edges[i].to != edges[j].to {
			return edges[i].to < edges[j].to
		}
		return edges[i].label < edges[j].label
	})
	for _, e := range edges {
		attrs := fmt.Sprintf("label=\"%s\"", e.label)
		if weights != nil {
			pen := 1 + 4*float64(e.weight)/float64(max)
			attrs += fmt.Sprintf(" penwidth=%.2f", pen)
			attrs += fmt.Sprintf(" xlabel=\"%d\"", e.weight)
			if e.weight == 0 {
				attrs += " color=gray style=dotted"
			}
		}
		fmt.Fprintf(&b, "\ts%d -> s%d [%s];\n", e.from, e.to, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
