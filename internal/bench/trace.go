package bench

import (
	"fmt"
	"io"
	"time"

	"tesla/internal/core"
	"tesla/internal/kernel"
	"tesla/internal/monitor"
	"tesla/internal/trace"
)

// TraceMode is one tracing configuration of the overhead figure.
type TraceMode int

const (
	// TraceOff runs with no tap installed: the cost every untraced run
	// pays is one nil check per event.
	TraceOff TraceMode = iota
	// TraceRing records every program and lifecycle event into the
	// per-thread ring buffers, nothing leaves memory.
	TraceRing
	// TraceFile additionally merges the rings and encodes the full trace
	// to a file (binary codec) at the end of the run.
	TraceFile
)

func (m TraceMode) String() string {
	switch m {
	case TraceOff:
		return "tracing off"
	case TraceRing:
		return "ring buffer"
	default:
		return "ring + file"
	}
}

// countWriter measures encoded size without touching a filesystem.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// traceRun drives the OLTP workload under the full assertion set in one
// tracing mode and returns total wall time, events recorded (0 when off)
// and encoded bytes (TraceFile only). The ring capacity is sized to hold
// the whole run so the file mode writes a complete trace.
func traceRun(mode TraceMode, iters int) (time.Duration, uint64, int64, error) {
	autos, err := kernel.CompileAssertions(kernel.SetAll)
	if err != nil {
		return 0, 0, 0, err
	}
	opts := monitor.Options{Handler: core.NopHandler{}}
	var rec *trace.Recorder
	if mode != TraceOff {
		rec = trace.NewRecorder(autos, 64*iters+1024)
		opts.Handler = rec
		opts.Tap = rec
	}
	k, _, err := kernel.Boot(kernel.Release, kernel.SetAll, kernel.BugConfig{}, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	th := k.NewThread()
	pair, err := kernel.SetupOLTP(th)
	if err != nil {
		return 0, 0, 0, err
	}

	start := time.Now()
	for i := 0; i < iters; i++ {
		kernel.OLTPTransaction(th, pair)
	}
	var bytes int64
	if mode == TraceFile {
		w := &countWriter{}
		if err := trace.Write(w, rec.Snapshot()); err != nil {
			return 0, 0, 0, err
		}
		bytes = w.n
	}
	total := time.Since(start)

	var events uint64
	if rec != nil {
		events = rec.EventCount()
	}
	return total, events, bytes, nil
}

// TraceOverhead prints the tracing-overhead figure: the OLTP macrobenchmark
// under the full assertion set with tracing off, ring-buffer recording, and
// full file capture, reported as ns/event and events/sec. The event count
// comes from the recording runs (the workload is deterministic, so the
// untraced run sees the same stream).
func TraceOverhead(w io.Writer, iters int) error {
	type result struct {
		mode  TraceMode
		total time.Duration
		bytes int64
	}
	var results []result
	var events uint64
	for _, mode := range []TraceMode{TraceOff, TraceRing, TraceFile} {
		total, n, bytes, err := traceRun(mode, iters)
		if err != nil {
			return err
		}
		if n > 0 {
			events = n
		}
		results = append(results, result{mode, total, bytes})
	}
	if events == 0 {
		return fmt.Errorf("bench: trace workload produced no events")
	}

	fmt.Fprintln(w, "Tracing overhead (OLTP workload, all assertion sets)")
	fmt.Fprintf(w, "  %-14s %12s %14s %10s\n", "mode", "ns/event", "events/sec", "vs off")
	var base float64
	for _, r := range results {
		nsPerEvent := float64(r.total.Nanoseconds()) / float64(events)
		if r.mode == TraceOff {
			base = nsPerEvent
		}
		fmt.Fprintf(w, "  %-14s %12.1f %14.0f %9.2fx\n",
			r.mode, nsPerEvent, 1e9/nsPerEvent, nsPerEvent/base)
	}
	for _, r := range results {
		if r.bytes > 0 {
			fmt.Fprintf(w, "  trace file: %d events, %d bytes (%.1f bytes/event)\n",
				events, r.bytes, float64(r.bytes)/float64(events))
		}
	}
	fmt.Fprintf(w, "  events per run: %d (%d transactions)\n", events, iters)
	fmt.Fprintln(w, "  expected shape: ring recording adds a constant per event, including the")
	fmt.Fprintln(w, "  zeroing of each ring chunk as the run first fills it; file capture adds a")
	fmt.Fprintln(w, "  merge and an encode per event at the end of the run, a per-event cost that")
	fmt.Fprintln(w, "  no run length amortises away")
	fmt.Fprintln(w)
	return nil
}
