package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tesla/internal/agg"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
	"tesla/internal/trace"
	"tesla/internal/vm"
)

// layer is one rung of the additive ladder: each rung turns on one more
// layer of what `tesla-run -trace-spool -agg -agg-spool -agg-process`
// runs, so the CPU difference between adjacent rungs is that layer's cost.
type layer int

const (
	layerPlain    layer = iota // uninstrumented build on the VM
	layerMonitor               // instrumented, monitor with tesla-run's counting handler
	layerRecorder              // + trace.Recorder as tap and handler
	layerSpool                 // + trace.SpoolWriter into a WAL spool (25ms, sync=always)
	layerAgg                   // + agg.Client/Publisher (100ms, client spool) to the in-process server
)

var layerNames = [...]string{"plain", "+monitor", "+recorder", "+spool", "+agg"}

func (l layer) String() string { return layerNames[l] }

// Defaults of tesla-run's -spool-flush and -agg-flush.
const (
	spoolFlush = 25 * time.Millisecond
	aggFlush   = 100 * time.Millisecond
	byeTimeout = 30 * time.Second
)

// rig holds what repeated runs of one program share: both builds and the
// scratch directory.
type rig struct {
	prog        *program
	inst, plain *toolchain.Build
	dir         string
	runs        int
	progEvents  uint64         // program events one VM's run dispatches (see calibrate)
	countTap    *atomic.Uint64 // set only while calibrating
}

// calibrate counts the program events one run dispatches, with a counting
// tap on an untimed run, so runs without a recorder can report events too.
func (r *rig) calibrate() error {
	var n atomic.Uint64
	r.countTap = &n
	defer func() { r.countTap = nil }()
	if _, err := r.run(layerMonitor, r.prog.vms, nil); err != nil {
		return err
	}
	r.progEvents = n.Load() / uint64(r.prog.vms)
	return nil
}

// spans collects the traced run's timings at the public seams: a wrapped
// monitor.Tap, a wrapped core.Handler, the flushes the benchmark drives
// on its own ticker, and the program-exit-to-bye drain.
type spans struct {
	tapNs, tapN         atomic.Int64
	handlerNs, handlerN atomic.Int64

	mu         sync.Mutex
	cutMs      []float64 // Publisher.Flush durations
	spoolMs    []float64 // SpoolWriter.Flush durations
	drainMs    []float64
	lagMs      []float64
	failStamps []time.Time // this run's violations, as the producer saw them
	runLagMs   []float64   // this run's lag samples, kept only if it lost nothing
}

func (s *spans) addMs(dst *[]float64, d time.Duration) {
	s.mu.Lock()
	*dst = append(*dst, float64(d)/1e6)
	s.mu.Unlock()
}

// timedTap wraps a monitor.Tap so every program event's sink time is
// measured.
type timedTap struct {
	inner monitor.Tap
	s     *spans
}

func (t timedTap) ThreadTap(id int) monitor.ThreadTap {
	return timedThreadTap{t.inner.ThreadTap(id), t.s}
}

type timedThreadTap struct {
	inner monitor.ThreadTap
	s     *spans
}

func (t timedThreadTap) ProgramEvent(ev monitor.ProgramEvent) {
	t0 := time.Now()
	t.inner.ProgramEvent(ev)
	t.s.tapNs.Add(int64(time.Since(t0)))
	t.s.tapN.Add(1)
}

// timedHandler wraps the run's core.Handler: it times every notification
// and stamps every violation when the producer sees it, which is where
// verdict lag starts.
type timedHandler struct {
	inner core.Handler
	s     *spans
}

func (h timedHandler) time(fn func()) {
	t0 := time.Now()
	fn()
	h.s.handlerNs.Add(int64(time.Since(t0)))
	h.s.handlerN.Add(1)
}

func (h timedHandler) InstanceNew(c *core.Class, i *core.Instance) {
	h.time(func() { h.inner.InstanceNew(c, i) })
}
func (h timedHandler) InstanceClone(c *core.Class, p, cl *core.Instance) {
	h.time(func() { h.inner.InstanceClone(c, p, cl) })
}
func (h timedHandler) Transition(c *core.Class, i *core.Instance, from, to uint32, sym string) {
	h.time(func() { h.inner.Transition(c, i, from, to, sym) })
}
func (h timedHandler) Accept(c *core.Class, i *core.Instance) {
	h.time(func() { h.inner.Accept(c, i) })
}
func (h timedHandler) Fail(v *core.Violation) {
	h.s.mu.Lock()
	h.s.failStamps = append(h.s.failStamps, time.Now())
	h.s.mu.Unlock()
	h.time(func() { h.inner.Fail(v) })
}
func (h timedHandler) Overflow(c *core.Class, k core.Key) {
	h.time(func() { h.inner.Overflow(c, k) })
}
func (h timedHandler) Evict(c *core.Class, i *core.Instance) {
	h.time(func() { h.inner.Evict(c, i) })
}
func (h timedHandler) Quarantine(c *core.Class, on bool) {
	h.time(func() { h.inner.Quarantine(c, on) })
}

// countingTap counts program events; the calibration run uses it to learn
// how many events one run dispatches.
type countingTap struct{ n *atomic.Uint64 }

func (t countingTap) ThreadTap(int) monitor.ThreadTap   { return t }
func (t countingTap) ProgramEvent(monitor.ProgramEvent) { t.n.Add(1) }

// runResult is one run's measurement and accounting.
type runResult struct {
	span
	tx       int64
	steps    int64
	allocs   uint64
	gcCPU    float64
	events   uint64 // events the run produced: recorded ones with a recorder, else program events
	lost     uint64 // ring overwrites + client drops + server drops + monitor degradation
	ringLost uint64
	aggLost  uint64 // client + server drops
	degraded uint64
	spoolB   int64  // bytes in the trace spool
	wireB    uint64 // bytes the aggregation server read
}

// run executes the program once at layer l on vms VM threads, timing it
// from the first instruction until its verdict is final everywhere, then
// checks every verdict and every loss account. With sp non-nil the run is
// traced: seams are wrapped and flushes are driven by the benchmark's own
// tickers. A run that reaches the fleet plane starts an aggregation server
// of its own before the timed interval and stops it after, so every run
// meets a server in the same state.
func (r *rig) run(l layer, vms int, sp *spans) (res runResult, err error) {
	r.runs++
	res.tx = r.prog.txPerRep / int64(r.prog.vms) * int64(vms)
	b := r.inst
	if l == layerPlain {
		b = r.plain
	}
	// tesla-run's handler chain: the counting handler, plus the recorder
	// when anything records.
	counting := core.NewCountingHandler()
	chain := core.MultiHandler{counting}
	opts := monitor.Options{Handler: chain}
	var rec *trace.Recorder
	if l >= layerRecorder {
		rec = trace.NewRecorder(b.Autos, 0)
		chain = append(chain, rec)
		opts.Handler, opts.Tap = chain, rec
		if sp != nil {
			opts.Tap = timedTap{rec, sp}
		}
	}
	if sp != nil {
		opts.Handler = timedHandler{chain, sp}
	}
	if r.countTap != nil {
		opts.Tap = countingTap{r.countTap}
	}
	rt, err := b.NewRuntime(opts)
	if err != nil {
		return res, err
	}
	machines := []*vm.VM{rt.VM}
	for i := 1; i < vms; i++ {
		m := vm.New(b.Program)
		if rt.Monitor != nil {
			m.AttachThread(rt.Monitor.NewThread())
		}
		machines = append(machines, m)
	}
	for _, m := range machines {
		m.MaxSteps = math.MaxInt64
	}

	runDir := filepath.Join(r.dir, fmt.Sprintf("run-%d", r.runs))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(runDir)
	var spoolW *trace.SpoolWriter
	var spool *trace.Spool
	if l >= layerSpool {
		if spool, err = trace.OpenSpool(filepath.Join(runDir, "trace"), trace.SpoolOpts{Sync: trace.SpoolSyncAlways}); err != nil {
			return res, err
		}
		defer spool.Close()
		spoolW = trace.NewSpoolWriter(rec, spool)
	}
	var client *agg.Client
	var pub *agg.Publisher
	process := fmt.Sprintf("perfbench-%d-%d", os.Getpid(), r.runs)
	var srv *fleetServer
	if l >= layerAgg {
		if srv, err = startFleetServer(runDir); err != nil {
			return res, err
		}
		defer func() {
			if cerr := srv.close(); cerr != nil && err == nil {
				err = fmt.Errorf("agg server: %w", cerr)
			}
		}()
		cs, err := trace.OpenSpool(filepath.Join(runDir, "agg"), trace.SpoolOpts{Sync: trace.SpoolSyncAlways})
		if err != nil {
			return res, err
		}
		if client, err = agg.Dial(srv.addr, agg.ClientOpts{Tool: "tesla-run", Process: process, Spool: cs}); err != nil {
			cs.Close()
			return res, err
		}
		pub = agg.NewPublisher(rec, client)
	}

	// Flushers: Start in the untraced run; in the traced run the same
	// Flush calls on the benchmark's own tickers, each one timed.
	stopTick := make(chan struct{})
	var tickers sync.WaitGroup
	tick := func(every time.Duration, flush func() error, dst *[]float64) {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					t0 := time.Now()
					flush() // a failed flush is counted by the writer and checked below
					sp.addMs(dst, time.Since(t0))
				case <-stopTick:
					return
				}
			}
		}()
	}
	if sp != nil {
		if spoolW != nil {
			tick(spoolFlush, spoolW.Flush, &sp.spoolMs)
		}
		if pub != nil {
			tick(aggFlush, pub.Flush, &sp.cutMs)
		}
	} else {
		if spoolW != nil {
			spoolW.Start(spoolFlush)
		}
		if pub != nil {
			pub.Start(aggFlush)
		}
	}
	var lagDone chan struct{}
	var lagWG sync.WaitGroup
	if sp != nil {
		sp.failStamps, sp.runLagMs = sp.failStamps[:0], sp.runLagMs[:0]
	}
	if sp != nil && pub != nil {
		lagDone = make(chan struct{})
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			pollLag(sp, srv, lagDone)
		}()
	}

	rets := make([]int64, len(machines))
	var rt0, rt1 runtimeSample
	var drain time.Duration
	var stopErr error
	res.span, err = timeIt(func() error {
		rt0 = readRuntime()
		defer func() { rt1 = readRuntime() }()
		if err := r.execute(machines, rets); err != nil {
			return err
		}
		if rt.Monitor != nil {
			if err := rt.Monitor.Drain(); err != nil {
				return err
			}
		}
		exitAt := time.Now()
		// Verdict finality, in tesla-run's order: the spool's final
		// flush, then the final agg delta, health and bye — accounted at
		// the server.
		if sp != nil {
			close(stopTick)
			tickers.Wait()
		}
		if spoolW != nil {
			if sp != nil {
				t0 := time.Now()
				stopErr = errors.Join(stopErr, spoolW.Flush())
				sp.addMs(&sp.spoolMs, time.Since(t0))
			} else {
				stopErr = errors.Join(stopErr, spoolW.Stop())
			}
		}
		if pub != nil {
			if sp != nil {
				t0 := time.Now()
				stopErr = errors.Join(stopErr, pub.Flush())
				sp.addMs(&sp.cutMs, time.Since(t0))
			} else {
				stopErr = errors.Join(stopErr, pub.Stop())
			}
			stopErr = errors.Join(stopErr, client.SendHealth(rt.Monitor.Health()), client.Close())
			if _, _, err := srv.awaitBye(process, byeTimeout); err != nil {
				return err
			}
		}
		drain = time.Since(exitAt)
		return nil
	})
	res.allocs = rt1.allocs - rt0.allocs
	res.gcCPU = rt1.gcCPU - rt0.gcCPU
	if lagDone != nil {
		close(lagDone)
		lagWG.Wait()
	}
	if err != nil {
		return res, err
	}
	if stopErr != nil {
		return res, fmt.Errorf("%s: flush: %w", l, stopErr)
	}
	if sp != nil && pub != nil {
		sp.addMs(&sp.drainMs, drain)
	}
	defer func() {
		// Lag pairs the i-th counted failure with the i-th stamp, which
		// holds only when nothing was lost on the way.
		if sp != nil && res.lost == 0 {
			sp.lagMs = append(sp.lagMs, sp.runLagMs...)
		}
	}()
	for _, m := range machines {
		res.steps += m.Steps()
	}
	res.events = r.progEvents * uint64(vms)

	// Verdicts: every VM returned its known value, and the violations per
	// site are exactly the generator's.
	var errs []error
	want := map[string]int{}
	for i := range machines {
		for site, n := range r.prog.want(i) {
			want[site] += n * max(r.prog.calls, 1)
		}
		if r.prog.ret != nil && rets[i] != r.prog.ret(i) {
			errs = append(errs, fmt.Errorf("VM %d returned %d, want %d", i, rets[i], r.prog.ret(i)))
		}
	}
	if l == layerPlain {
		want = map[string]int{}
	}
	got := map[string]int{}
	for _, v := range counting.Violations() {
		got[v.Class.Name]++
	}
	if err := sameCounts(got, want); err != nil {
		errs = append(errs, fmt.Errorf("%s verdicts: %w", l, err))
	}
	if rt.Monitor != nil {
		for _, h := range rt.Monitor.Health() {
			res.degraded += h.Overflows + h.Evictions + h.Suppressed
		}
		if rt.Monitor.Degraded() {
			errs = append(errs, fmt.Errorf("%s: monitor degraded (%d events lost to overflow, eviction or suppression)", l, res.degraded))
		}
	}

	// Loss accounting: every recorded event is in the spool, and at the
	// server ingested + ring + client + server drops == recorded.
	if rec != nil {
		res.events = rec.EventCount()
		res.ringLost = rec.Snapshot().Dropped
	}
	if spoolW != nil {
		if f, e := spoolW.Lost(); f > 0 {
			errs = append(errs, fmt.Errorf("trace spool lost %d frame(s) / %d event(s) to write failures", f, e))
		}
		n, size, err := spoolEvents(spool)
		res.spoolB = size
		if err != nil {
			errs = append(errs, err)
		} else if n != res.events {
			errs = append(errs, fmt.Errorf("trace spool holds %d event(s), recorder recorded %d", n, res.events))
		}
	}
	if client != nil {
		p, sum, _ := srv.producer(process)
		res.wireB = srv.wire.Load()
		st := client.Stats()
		res.ringLost = p.RingDropped
		res.aggLost = p.DroppedEvents + p.ClientDropped
		if in := p.Events + p.RingDropped + p.DroppedEvents + p.ClientDropped; in != res.events {
			errs = append(errs, fmt.Errorf("fleet accounting: ingested %d + ring %d + server %d + client %d = %d, recorder recorded %d",
				p.Events, p.RingDropped, p.DroppedEvents, p.ClientDropped, in, res.events))
		}
		if st.Degraded() {
			errs = append(errs, fmt.Errorf("agg client dropped %d frame(s) / %d event(s)", st.DroppedFrames, st.DroppedEvents))
		}
		if res.ringLost == 0 && res.aggLost == 0 {
			if fleet := sum.TotalFailures; fleet != uint64(len(counting.Violations())) {
				errs = append(errs, fmt.Errorf("fleet counted %d failure(s), producer saw %d", fleet, len(counting.Violations())))
			}
		}
	}
	res.lost = res.ringLost + res.aggLost + res.degraded
	return res, errors.Join(errs...)
}

// execute runs the program's VMs: boot on VM 0, the workers concurrently,
// then shutdown on VM 0.
func (r *rig) execute(machines []*vm.VM, rets []int64) error {
	p := r.prog
	if p.boot != "" {
		if _, err := machines[0].Run(p.boot); err != nil {
			return err
		}
	}
	errs := make([]error, len(machines))
	var wg sync.WaitGroup
	for i, m := range machines {
		wg.Add(1)
		go func(i int, m *vm.VM) {
			defer wg.Done()
			for c := 0; c < max(p.calls, 1); c++ {
				rets[i], errs[i] = m.Run(p.entry, p.args(i)...)
				if errs[i] != nil {
					return
				}
			}
		}(i, m)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if p.shutdown != "" {
		if _, err := machines[0].Run(p.shutdown); err != nil {
			return err
		}
	}
	return nil
}

// pollLag samples verdict lag: the time from a violation's producer-side
// stamp until the fleet store counts it, read by polling the public
// Store.Fleet(). The server serves this run's producer alone, and a single
// producer's failures are counted in the order they happened, so the i-th
// counted failure is the i-th stamp.
func pollLag(sp *spans, srv *fleetServer, done <-chan struct{}) {
	seen := 0
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for final := false; !final; {
		select {
		case <-done:
			final = true // one last poll: the final delta's failures
		case <-t.C:
		}
		counted := int(srv.store.Fleet().TotalFailures)
		now := time.Now()
		sp.mu.Lock()
		for ; seen < counted && seen < len(sp.failStamps); seen++ {
			sp.runLagMs = append(sp.runLagMs, float64(now.Sub(sp.failStamps[seen]))/1e6)
		}
		sp.mu.Unlock()
	}
}

// spoolEvents counts the events (kept and dropped) in a trace spool, and
// its size in bytes.
func spoolEvents(sp *trace.Spool) (events uint64, size int64, err error) {
	err = sp.Range(func(payload []byte) error {
		size += int64(len(payload))
		tr, err := trace.Read(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		events += uint64(len(tr.Events)) + tr.Dropped
		return nil
	})
	return events, size, err
}

// sameCounts reports the first difference between two per-site counts.
func sameCounts(got, want map[string]int) error {
	var sites []string
	for s := range want {
		sites = append(sites, s)
	}
	for s := range got {
		if _, ok := want[s]; !ok {
			sites = append(sites, s)
		}
	}
	sort.Strings(sites)
	for _, s := range sites {
		if got[s] != want[s] {
			return fmt.Errorf("site %s: %d violation(s), want %d", s, got[s], want[s])
		}
	}
	return nil
}
