package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.tr")

const goldenPath = "testdata/golden.tr"

// goldenRecorder records a fixed script that exercises the whole binary
// format: every Kind and every ProgKind, interned strings used more than
// once, HasRet set and unset, non-empty Vals and InStack, keys with bound
// and unbound slots, two recording threads interleaved with the lifecycle
// ring, and an injected drop, so the trace carries Dropped > 0 and a Seq
// gap.
func goldenRecorder() *Recorder {
	rec := NewRecorder([]*automata.Automaton{{Name: "open_checked"}, {Name: "audit"}}, 0)
	drop := false
	rec.DropFault = func() bool { return drop }
	t0, t1 := rec.ThreadTap(0), rec.ThreadTap(3)
	cls := &core.Class{Name: "open_checked", States: 4, Limit: 4}
	partial := core.Key{}.Set(1, -7).Set(3, 1<<40)
	inst := &core.Instance{Key: partial, State: 2}
	child := &core.Instance{Key: core.NewKey(5, -7, 9), State: 3}

	t0.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgCall, Fn: "open", Vals: []core.Value{3, -1}, Time: 10})
	rec.InstanceNew(cls, &core.Instance{State: 1})
	t1.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgReturn, Fn: "open", Vals: []core.Value{3}, Ret: -22, HasRet: true, Time: 11})
	t0.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgSend, Fn: "msg:", Vals: []core.Value{1 << 50}, Time: 12})
	t0.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgSendReturn, Fn: "msg:", Ret: 0, HasRet: true, Time: 13})
	t1.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgAssign, Fn: "proc", Field: "p_flag", Op: spec.OpAddAssign, Vals: []core.Value{4}, Time: 14})
	rec.Transition(cls, inst, 1, 2, "open")
	t1.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgSite, Fn: "open", Vals: []core.Value{3}, InStack: []int{0, 2}, Time: 15})
	rec.InstanceClone(cls, inst, child)
	drop = true
	rec.Transition(cls, child, 3, 4, "close") // dropped: a Seq gap and Dropped 1
	drop = false
	t0.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgBoundBegin, Slot: 1, Time: 16})
	t0.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgDeliver, Auto: 1, Sym: 6, Vals: []core.Value{-3, 0, 8}, Time: 17})
	rec.Accept(cls, child)
	rec.Fail(&core.Violation{Class: cls, Kind: core.VerdictBadTransition, Key: partial, State: 2, Symbol: "open"})
	rec.Overflow(cls, core.NewKey(9))
	rec.Evict(cls, inst)
	rec.Quarantine(cls, true)
	rec.Quarantine(cls, false)
	t0.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgBoundEnd, Slot: 1, Time: 18})
	return rec
}

// TestGoldenWireFormat pins format version 1 byte for byte: both Write
// and AppendCut must reproduce the committed trace exactly. Regenerate
// with `go test ./internal/trace -run TestGoldenWireFormat -update` only
// for a deliberate format change, which must also bump Version.
func TestGoldenWireFormat(t *testing.T) {
	tr := goldenRecorder().Snapshot()
	if tr.Dropped == 0 {
		t.Fatal("golden script lost nothing: Dropped is not covered")
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Write drifted from %s:\n got % x\nwant % x", goldenPath, buf.Bytes(), want)
	}
	enc, _, events, dropped := goldenRecorder().AppendCut(nil, nil)
	if !bytes.Equal(enc, want) {
		t.Fatalf("AppendCut drifted from %s:\n got % x\nwant % x", goldenPath, enc, want)
	}
	if events != len(tr.Events) || dropped != tr.Dropped {
		t.Fatalf("AppendCut reported %d events, %d dropped; want %d, %d", events, dropped, len(tr.Events), tr.Dropped)
	}
	got, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) || got.Dropped != tr.Dropped {
		t.Fatalf("golden decodes to %d events, %d dropped; want %d, %d", len(got.Events), got.Dropped, len(tr.Events), tr.Dropped)
	}
}
