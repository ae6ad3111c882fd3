package tesla

import (
	"strings"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/bench"
	"tesla/internal/core"
	"tesla/internal/gui"
	"tesla/internal/kernel"
	"tesla/internal/monitor"
	"tesla/internal/objc"
	"tesla/internal/spec"
	"tesla/internal/ssl"
	"tesla/internal/toolchain"
	"tesla/internal/xnee"
)

// TestEndToEndCompilerPath runs the complete §4 workflow on a program whose
// behaviour depends on its input, checking both verdicts.
func TestEndToEndCompilerPath(t *testing.T) {
	build, err := toolchain.BuildProgram(map[string]string{
		"mini.c": `
int security_check(int obj, int op) { return 0; }
int perform(int obj, int op, int checked) {
	TESLA_SYSCALL_PREVIOUSLY(security_check(obj, op) == 0);
	return obj + op;
}
int amd64_syscall(int obj, int op, int checked) {
	if (checked) {
		int c = security_check(obj, op);
		if (c != 0) { return c; }
	}
	return perform(obj, op, checked);
}
int main(int checked) { return amd64_syscall(10, 4, checked); }
`}, true)
	if err != nil {
		t.Fatal(err)
	}

	h := core.NewCountingHandler()
	ret, _, err := build.Run("main", monitor.Options{Handler: h}, 1)
	if err != nil || ret != 14 {
		t.Fatalf("checked run: ret=%d err=%v", ret, err)
	}
	if len(h.Violations()) != 0 {
		t.Fatalf("checked run flagged: %v", h.Violations())
	}

	h2 := core.NewCountingHandler()
	if _, _, err := build.Run("main", monitor.Options{Handler: h2}, 0); err != nil {
		t.Fatal(err)
	}
	if len(h2.Violations()) != 1 {
		t.Fatalf("unchecked run not flagged: %v", h2.Violations())
	}
}

// TestEndToEndKernelStory replays the §3.5.2 narrative in miniature.
func TestEndToEndKernelStory(t *testing.T) {
	h := core.NewCountingHandler()
	k, _, err := kernel.Boot(kernel.Release, kernel.SetAll,
		kernel.BugConfig{KqueueMissingPollCheck: true}, monitor.Options{Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	th := k.NewThread()
	pair, err := kernel.SetupOLTP(th)
	if err != nil {
		t.Fatal(err)
	}
	th.Poll(pair.Client)
	th.Kevent(pair.Client)
	vs := h.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Error(), "mac_socket_check_poll") {
		t.Fatalf("kernel story: %v", vs)
	}
}

// TestEndToEndSSLStory replays §3.5.1 against both server behaviours.
func TestEndToEndSSLStory(t *testing.T) {
	for _, malicious := range []bool{false, true} {
		auto, err := ssl.FetchAutomaton()
		if err != nil {
			t.Fatal(err)
		}
		h := core.NewCountingHandler()
		m := monitor.MustNew(monitor.Options{Handler: h}, auto)
		env := ssl.NewEnv(m.NewThread())
		srv := ssl.NewServer(77)
		srv.Malicious = malicious
		c := &ssl.Client{Env: env}
		if _, err := ssl.FetchMain(env, c, srv, "/"); err != nil {
			t.Fatal(err)
		}
		if got := len(h.Violations()); (got != 0) != malicious {
			t.Fatalf("malicious=%v violations=%d", malicious, got)
		}
	}
}

// TestEndToEndGUIStory replays §3.5.3's cursor investigation via Xnee.
func TestEndToEndGUIStory(t *testing.T) {
	var events []spec.Expr
	for _, sel := range gui.AllSelectors() {
		events = append(events, spec.Msg(spec.Any("id"), sel))
	}
	auto, err := automata.Compile(spec.Within("gui:runloop", "startDrawing",
		spec.Previously(spec.AtLeast(0, events...))))
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewCountingHandler()
	m := monitor.MustNew(monitor.Options{Handler: h}, auto)
	th := m.NewThread()
	rt := objc.NewRuntime(objc.TESLA)
	rt.InterposeTESLA(th, gui.AllSelectors(), nil)
	w := gui.NewWindow(rt, gui.NewOldBackend())
	w.DeliveryBug = true
	rect := gui.Rect{X: 0, Y: 0, W: 100, H: 100}
	w.AddTracking(rect, gui.CursorIBeam)
	xnee.Replay(gui.NewRunLoop(w, th), xnee.CursorCrossing(rect, 2))

	var pushes, pops uint64
	for e, n := range m.Coverage().Edges {
		if strings.Contains(e.Symbol, "push]") {
			pushes += n
		}
		if strings.Contains(e.Symbol, "pop]") {
			pops += n
		}
	}
	if pushes <= pops {
		t.Fatalf("trace should show unpaired pushes: push=%d pop=%d", pushes, pops)
	}
	if len(w.CursorStack) == 0 {
		t.Fatal("cursor stack should be left corrupted")
	}
}

// TestBenchHarnessSmoke: the tesla-bench entry points run end to end.
func TestBenchHarnessSmoke(t *testing.T) {
	var sb strings.Builder
	bench.Table1(&sb)
	if err := bench.Fig9(&sb, 24); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Fatal("harness output malformed")
	}
}
