// mackernel replays the §3.5.2 case study: the kernel is annotated with 96
// assertions (table 1); running workloads over buggy kernels reproduces the
// three findings — mac_socket_check_poll missing on the kqueue path, the
// wrong credential passed in one dynamic call graph, and a credential
// change without P_SUGID — and the coverage report shows 26 of the 37
// inter-process assertions unexercised by the test suite.
//
//	go run ./examples/mackernel
package main

import (
	"fmt"
	"os"
	"strings"

	"tesla/internal/core"
	"tesla/internal/dtrace"
	"tesla/internal/kernel"
	"tesla/internal/monitor"
)

func main() {
	fmt.Printf("kernel assertion corpus: %d assertions (MF=%d MS=%d MP=%d M=%d P=%d)\n\n",
		len(kernel.Assertions(kernel.SetAll)),
		len(kernel.Assertions(kernel.SetMF)),
		len(kernel.Assertions(kernel.SetMS)),
		len(kernel.Assertions(kernel.SetMP)),
		len(kernel.Assertions(kernel.SetM)),
		len(kernel.Assertions(kernel.SetP)))

	// Finding 1: the kqueue path skips the MAC poll check.
	run("kqueue path misses mac_socket_check_poll",
		kernel.BugConfig{KqueueMissingPollCheck: true},
		func(th *kernel.Thread) {
			pair, _ := kernel.SetupOLTP(th)
			th.Poll(pair.Client)   // checked
			th.Select(pair.Client) // checked
			th.Kevent(pair.Client) // not checked — violation
		})

	// Finding 2: one dynamic call graph passes the cached file credential
	// instead of the active credential.
	run("select path authorises with file_cred instead of active_cred",
		kernel.BugConfig{WrongCredential: true},
		func(th *kernel.Thread) {
			pair, _ := kernel.SetupOLTP(th)
			th.Setuid(1001) // active credential now differs from the cached one
			th.Select(pair.Client)
		})

	// Finding 3: credentials change without setting P_SUGID.
	run("setuid does not set P_SUGID",
		kernel.BugConfig{MissingSUGID: true},
		func(th *kernel.Thread) {
			th.Setuid(1001)
		})

	coverage()
	aggregate()
}

func run(title string, bugs kernel.BugConfig, workload func(*kernel.Thread)) {
	handler := core.NewCountingHandler()
	k, _, err := kernel.Boot(kernel.Release, kernel.SetAll, bugs, monitor.Options{Handler: handler})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	workload(k.NewThread())
	fmt.Printf("bug: %s\n", title)
	for _, v := range handler.Violations() {
		fmt.Printf("  detected: %v\n", v)
	}
	if len(handler.Violations()) == 0 {
		fmt.Println("  (no violation?)")
	}
	fmt.Println()
}

// coverage reproduces the §3.5.2 test-coverage finding.
func coverage() {
	handler := core.NewCountingHandler()
	autos, err := kernel.CompileAssertions(kernel.SetP)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mon := monitor.MustNew(monitor.Options{Handler: handler}, autos...)
	k := kernel.New(kernel.Config{Monitor: mon})
	th := k.NewThread()
	kernel.ExerciseAll(th) // the inter-process access-control test suite

	missed := kernel.Unexercised(mon.Coverage(), autos)
	var procfs, cpuset, rt, other int
	for _, name := range missed {
		switch {
		case strings.HasPrefix(name, "P:procfs"):
			procfs++
		case strings.HasPrefix(name, "P:cpuset"):
			cpuset++
		case strings.HasPrefix(name, "P:rtprio"):
			rt++
		default:
			other++
		}
	}
	fmt.Printf("coverage: %d of %d inter-process assertions not exercised by the test suite\n",
		len(missed), len(autos))
	fmt.Printf("  procfs (deprecated, disabled by default): %d\n", procfs)
	fmt.Printf("  CPUSET (added after the test suite):      %d\n", cpuset)
	fmt.Printf("  POSIX real-time scheduling:               %d\n", rt)
	fmt.Println()
}

// aggregate shows the kernel default handler: DTrace-style aggregation of
// transition counts instead of stderr traces (§4.4.2).
func aggregate() {
	h := dtrace.NewHandler(nil)
	k, _, err := kernel.Boot(kernel.Release, kernel.SetMS, kernel.BugConfig{}, monitor.Options{Handler: h})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	th := k.NewThread()
	pair, _ := kernel.SetupOLTP(th)
	for i := 0; i < 100; i++ {
		kernel.OLTPTransaction(th, pair)
	}
	fmt.Println("DTrace-style aggregation over 100 OLTP transactions (top entries):")
	keys := h.Transitions.Keys()
	for i, key := range keys {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-70s %6d\n", key, h.Transitions.Count(key))
	}
}
