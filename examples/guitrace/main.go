// guitrace replays the §3.5.3 case study: TESLA instruments ~110 GNUstep
// methods through the Objective-C runtime's interposition table (fig. 8),
// generating the event traces that localised two bugs — cursors pushed
// onto the cursor stack multiple times, and a new graphics back end unable
// to restore states in non-LIFO order.
//
//	go run ./examples/guitrace
package main

import (
	"fmt"
	"os"
	"strings"

	"tesla/internal/automata"
	"tesla/internal/gui"
	"tesla/internal/monitor"
	"tesla/internal/objc"
	"tesla/internal/spec"
	"tesla/internal/xnee"
)

// traceSetup builds a TESLA-instrumented window (fig. 8's assertion over
// the full selector list).
func traceSetup(be gui.Backend, deliveryBug bool) (*gui.Window, *gui.RunLoop, *monitor.Monitor) {
	var events []spec.Expr
	for _, sel := range gui.AllSelectors() {
		events = append(events, spec.Msg(spec.Any("id"), sel))
	}
	auto, err := automata.Compile(spec.Within("gui:runloop", "startDrawing",
		spec.Previously(spec.AtLeast(0, events...))))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mon := monitor.MustNew(monitor.Options{}, auto)
	th := mon.NewThread()
	rt := objc.NewRuntime(objc.TESLA)
	rt.InterposeTESLA(th, gui.AllSelectors(), []string{"drawWithFrame:inView:"})
	w := gui.NewWindow(rt, be)
	w.DeliveryBug = deliveryBug
	return w, gui.NewRunLoop(w, th), mon
}

func main() {
	fmt.Printf("instrumented selectors: %d (fig. 8's TESLAGOps.h)\n\n", len(gui.AllSelectors()))

	cursorBug()
	backendBug()
}

func cursorBug() {
	fmt.Println("== cursor push/pop pairing (June 2013 GNUstep report) ==")
	for _, bug := range []bool{false, true} {
		w, rl, mon := traceSetup(gui.NewOldBackend(), bug)
		w.AddTracking(gui.Rect{X: 0, Y: 0, W: 100, H: 100}, gui.CursorIBeam)
		xnee.Replay(rl, xnee.CursorCrossing(gui.Rect{X: 0, Y: 0, W: 100, H: 100}, 3))

		var pushes, pops uint64
		for e, n := range mon.Coverage().Edges {
			if strings.Contains(e.Symbol, "push") {
				pushes += n
			}
			if strings.Contains(e.Symbol, "pop") {
				pops += n
			}
		}
		label := "fixed delivery"
		if bug {
			label = "buggy delivery"
		}
		fmt.Printf("  %s: %d pushes, %d pops, cursor stack depth %d\n",
			label, pushes, pops, len(w.CursorStack))
	}
	fmt.Println("  trace shows mouse-entered events unpaired with mouse-exited:")
	fmt.Println("  the same cursor pushed repeatedly, a later pop removing only one copy")
	fmt.Println()
}

func backendBug() {
	fmt.Println("== non-LIFO graphics-state restore (new back end) ==")
	render := func(be gui.Backend) (int64, uint64, uint64) {
		w, rl, mon := traceSetup(be, false)
		w.AddView(gui.Rect{X: 0, Y: 0, W: 200, H: 100}, 1, 4, false)
		w.AddView(gui.Rect{X: 0, Y: 100, W: 200, H: 100}, 2, 4, true) // non-LIFO restores
		// Two exposes: the state corrupted by the mishandled non-LIFO
		// restore poisons everything drawn afterwards.
		rl.ProcessBatch([]gui.Event{{Kind: gui.Expose}})
		rl.ProcessBatch([]gui.Event{{Kind: gui.Expose}})
		var saves, tokenRestores uint64
		for e, n := range mon.Coverage().Edges {
			if strings.Contains(e.Symbol, "gsave") {
				saves += n
			}
			if strings.Contains(e.Symbol, "grestoreToken:") {
				tokenRestores += n
			}
		}
		return be.Checksum(), saves, tokenRestores
	}

	oldSum, saves, tokens := render(gui.NewOldBackend())
	newSum, _, _ := render(gui.NewNewBackend())
	fmt.Printf("  old back end render checksum: %d\n", oldSum)
	fmt.Printf("  new back end render checksum: %d\n", newSum)
	if oldSum != newSum {
		fmt.Println("  outputs differ: things are drawn on the screen incorrectly")
	}
	fmt.Printf("  trace: %d gsaves, %d non-LIFO grestoreToken: restores —\n", saves, tokens)
	fmt.Println("  the valid sequence the new back end's author did not expect.")
	fmt.Println()
	profiling()
}

// profiling reproduces the §3.5.3 optimisation finding: ordered TESLA
// traces expose save/restore pairs whose interior changes only colour and
// location — state the next cell sets explicitly anyway.
func profiling() {
	fmt.Println("== AppKit profiling: elidable save/restore pairs ==")
	var events []spec.Expr
	for _, sel := range gui.AllSelectors() {
		events = append(events, spec.Msg(spec.Any("id"), sel))
	}
	auto, err := automata.Compile(spec.Within("gui:runloop", "startDrawing",
		spec.Previously(spec.AtLeast(0, events...))))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prof := gui.NewProfiler()
	mon := monitor.MustNew(monitor.Options{Handler: prof}, auto)
	th := mon.NewThread()
	rt := objc.NewRuntime(objc.TESLA)
	rt.InterposeTESLA(th, gui.AllSelectors(), nil)
	w := gui.NewWindow(rt, gui.NewOldBackend())
	w.AddView(gui.Rect{X: 0, Y: 0, W: 400, H: 200}, 1, 12, false)
	rl := gui.NewRunLoop(w, th)
	rl.ProcessBatch([]gui.Event{{Kind: gui.Expose}})

	stats := gui.AnalyzeSaveRestore(prof.Trace())
	fmt.Printf("  %d saves, %d restores; %d pairs change only colour/location —\n",
		stats.Saves, stats.Restores, stats.Redundant)
	fmt.Println("  elidable, because the next cell always sets those values explicitly.")
	fmt.Println("  Invasive to change, but the traces show it would be worthwhile (§3.5.3).")
}
