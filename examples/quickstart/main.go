// Quickstart: write a temporal assertion with the Go DSL, monitor a small
// program, and watch TESLA accept correct behaviour and flag a violation.
//
// The property is the paper's figure 1, adapted: within a request handler,
// a security check with the same object and operation must previously have
// succeeded.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

func main() {
	// TESLA_WITHIN(handle_request, previously(
	//     security_check(ANY(ptr), o, op) == 0));
	assertion := spec.Within("quickstart", "handle_request",
		spec.Previously(
			spec.Call("security_check", spec.AnyPtr(), spec.Var("o"), spec.Var("op")).ReturnsInt(0)))

	fmt.Println("assertion:", assertion)

	auto, err := automata.Compile(assertion)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("compiled automaton: %d states, %d symbols, %d variables %v\n\n",
		auto.States, len(auto.Symbols), len(auto.Vars), auto.Vars)

	handler := core.NewCountingHandler()
	mon := monitor.MustNew(monitor.Options{Handler: handler}, auto)
	th := mon.NewThread()

	// A correct request: the check runs (and succeeds) before the object
	// is used at the assertion site.
	object, op := core.Value(7001), core.Value(4)
	th.Call("handle_request")
	th.Call("security_check", 1, object, op)
	th.Return("security_check", 0, 1, object, op)
	th.Site("quickstart", object, op)
	th.Return("handle_request", 0)
	fmt.Printf("request 1 (checked):   violations=%d\n", len(handler.Violations()))

	// A buggy request: the check ran against a different object.
	other := core.Value(9999)
	th.Call("handle_request")
	th.Call("security_check", 1, other, op)
	th.Return("security_check", 0, 1, other, op)
	th.Site("quickstart", object, op)
	th.Return("handle_request", 0)

	vs := handler.Violations()
	fmt.Printf("request 2 (unchecked): violations=%d\n", len(vs))
	for _, v := range vs {
		fmt.Println("  ", v)
	}

	// The automaton, weighted by what actually ran (fig. 9 style).
	fmt.Println("\nrun-time weighted automaton (Graphviz):")
	fmt.Println(auto.Dot(mon.Coverage().Edges))
}
