package monitor

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"tesla/internal/core"
)

// syscalls drives n system calls through th: each checks x, reaches the
// assertion site for x and returns.
func syscalls(th *Thread, n int, x core.Value) {
	for i := 0; i < n; i++ {
		th.Call("amd64_syscall")
		th.Call("chk", x)
		th.Return("chk", 0, x)
		th.Site("sys", x)
		th.Return("amd64_syscall", 0)
	}
}

// TestCoverageConcurrentThreads: two Threads of one Monitor dispatch
// per-thread automata at the same time, each counting in its own store
// with no shared lock; after the join, Monitor.Coverage must hold exactly
// what one thread doing both threads' work counts. Run under -race (make
// race repeats it) this also checks that the per-thread counters are
// really unshared.
func TestCoverageConcurrentThreads(t *testing.T) {
	const n = 300
	mk := func() *Monitor {
		return MustNew(Options{Handler: core.NewCountingHandler()},
			mustAuto(t, "sys", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil))
	}
	m := mk()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		th := m.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			syscalls(th, n, 7)
		}()
	}
	wg.Wait()

	ref := mk()
	syscalls(ref.NewThread(), 2*n, 7)
	got, want := m.Coverage(), ref.Coverage()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent coverage %v, sequential %v", got, want)
	}
	if a := got.Accepts["sys"]; a < 2*n {
		t.Fatalf("accepts = %d, want at least one per system call (%d)", a, 2*n)
	}
}

// lifecycleCounter is a user handler wrapped around the default chain: it
// reads Transition and Accept, so the stores must keep building those notes.
type lifecycleCounter struct {
	core.Handler
	mu          sync.Mutex
	transitions uint64
	accepts     uint64
}

func (h *lifecycleCounter) Transition(cls *core.Class, inst *core.Instance, from, to uint32, symbol string) {
	h.mu.Lock()
	h.transitions++
	h.mu.Unlock()
	h.Handler.Transition(cls, inst, from, to, symbol)
}

func (h *lifecycleCounter) Accept(cls *core.Class, inst *core.Instance) {
	h.mu.Lock()
	h.accepts++
	h.mu.Unlock()
	h.Handler.Accept(cls, inst)
}

// TestWrappedHandlerGetsLifecycle: a handler that wraps the default
// CountingHandler chain still receives every Transition and Accept, one per
// edge and acceptance the stores count, in per-thread and global stores.
func TestWrappedHandlerGetsLifecycle(t *testing.T) {
	h := &lifecycleCounter{Handler: core.MultiHandler{core.NewCountingHandler()}}
	m := MustNew(Options{Handler: h},
		mustAuto(t, "sys", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil),
		mustAuto(t, "glob", `TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`, nil))
	th := m.NewThread()
	syscalls(th, 5, 3)
	th.Call("start_op")
	th.Call("prepare", 1)
	th.Return("prepare", 0, 1)
	th.Site("glob", 1)
	th.Return("end_op", 0)

	cov := m.Coverage()
	var edges, accepts uint64
	for _, n := range cov.Edges {
		edges += n
	}
	for _, n := range cov.Accepts {
		accepts += n
	}
	if cov.Accepts["sys"] == 0 || cov.Accepts["glob"] == 0 {
		t.Fatalf("both automata should accept: %v", cov.Accepts)
	}
	if h.transitions != edges || h.accepts != accepts {
		t.Fatalf("wrapper saw %d transitions and %d accepts; stores counted %d and %d",
			h.transitions, h.accepts, edges, accepts)
	}
}

// TestPerThreadBoundSkipsGlobalLock: entering and leaving a bound that no
// global-context automaton shares never takes the monitor's global lock, so
// it completes while another party holds that lock.
func TestPerThreadBoundSkipsGlobalLock(t *testing.T) {
	m := MustNew(Options{},
		mustAuto(t, "sys", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil),
		mustAuto(t, "glob", `TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`, nil))
	th := m.NewThread()
	m.muGlobal.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		syscalls(th, 3, 5)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a per-thread bound waited for the global lock")
	}
	m.muGlobal.Unlock()
	if a := m.Coverage().Accepts["sys"]; a == 0 {
		t.Fatal("the per-thread automaton did not run")
	}
}
