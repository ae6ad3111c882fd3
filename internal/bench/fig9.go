package bench

import (
	"fmt"
	"io"

	"tesla/internal/kernel"
	"tesla/internal/monitor"
)

// Fig9 drives a poll-heavy workload through the kernel and emits the
// figure 9 automaton — the MAC socket-poll assertion — as a Graphviz graph
// whose transitions are weighted according to their occurrence at run time.
func Fig9(w io.Writer, syscalls int) error {
	autos, err := kernel.CompileAssertions(kernel.SetMS)
	if err != nil {
		return err
	}
	mon, err := monitor.New(monitor.Options{}, autos...)
	if err != nil {
		return err
	}
	k := kernel.New(kernel.Config{Monitor: mon})
	th := k.NewThread()
	pair, err := kernel.SetupOLTP(th)
	if err != nil {
		return err
	}
	for i := 0; i < syscalls; i++ {
		switch i % 4 {
		case 0, 1:
			th.Poll(pair.Client)
		case 2:
			th.Select(pair.Client)
		default:
			// A syscall that never touches the socket: the automaton
			// inits and cleans up along the bypass edge.
			th.Stat("/")
		}
	}

	for _, a := range autos {
		if a.Name == "MS:sopoll_generic" {
			fmt.Fprintln(w, a.Dot(mon.Coverage().Edges))
			return nil
		}
	}
	return fmt.Errorf("bench: sopoll automaton missing")
}
