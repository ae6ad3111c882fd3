package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// shortTx sizes the self-tests' runtime programs: one period per VM.
const shortTx = period

// listedWorkloads are the workloads BENCHMARK.json lists.
func listedWorkloads(t *testing.T) []string {
	t.Helper()
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	readSpec(t, &spec)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func readSpec(t *testing.T, v any) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

// The same seed must give byte-identical sources and the same known
// answer; another seed must give another program.
func TestSameSeedSameProgram(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(7, w.tx), w.gen(7, w.tx), w.gen(8, w.tx)
		if !reflect.DeepEqual(a.sources(0, 0), b.sources(0, 0)) {
			t.Errorf("%s: seed 7 rendered two different codebases", w.name)
		}
		if !reflect.DeepEqual(a.sources(3, 4), b.sources(3, 4)) {
			t.Errorf("%s: seed 7 rendered two different edited codebases", w.name)
		}
		for vm := 0; vm < a.vms; vm++ {
			if !reflect.DeepEqual(a.want(vm), b.want(vm)) || !reflect.DeepEqual(a.args(vm), b.args(vm)) {
				t.Errorf("%s: seed 7 gave VM %d two different known answers or inputs", w.name, vm)
			}
			if a.ret != nil && a.ret(vm) != b.ret(vm) {
				t.Errorf("%s: seed 7 gave VM %d two different return values", w.name, vm)
			}
		}
		if reflect.DeepEqual(a.sources(0, 0), c.sources(0, 0)) && reflect.DeepEqual(a.args(0), c.args(0)) {
			t.Errorf("%s: seeds 7 and 8 gave the same program and inputs", w.name)
		}
	}
}

// Every workload but global passes its checks on every rung of the
// ladder; the rebuild workload also through its edit loop. global is
// left out: it exposes the sharded global store's schedule-dependent
// verdicts (NOTES.md), so a run of it fails now and then by design.
func TestShortRunPasses(t *testing.T) {
	for _, w := range workloads {
		if w.name == "global" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			p := w.gen(3, shortTx)
			r, err := newRig(p, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.calibrate(); err != nil {
				t.Fatal(err)
			}
			for _, l := range ladderRungs {
				if _, err := r.run(l, p.vms, nil); err != nil {
					t.Errorf("%s: %v", l, err)
				}
			}
			if _, err := r.run(layerAgg, p.vms, &spans{}); err != nil {
				t.Errorf("traced: %v", err)
			}
			if _, err := r.run(layerMonitor, 2, nil); err != nil {
				t.Errorf("2 VMs: %v", err)
			}
			if !w.runtime {
				if _, err := rebuildEndToEnd(w, p, 0, t.TempDir()); err != nil {
					t.Errorf("edit loop: %v", err)
				}
			}
		})
	}
}

// The global workload's program runs and checks on one VM, where no
// cross-thread schedule is involved.
func TestGlobalOneVM(t *testing.T) {
	w, _ := workloadByName("global")
	p := w.gen(3, 2*shortTx)
	r, err := newRig(p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.run(layerMonitor, 1, nil); err != nil {
		t.Fatal(err)
	}
}

// A run whose verdicts differ from the known answer fails: once with the
// answer off by one at one site, once with a build of the program whose
// assertion holds where the answer expects a violation.
func TestWrongVerdictIsCaught(t *testing.T) {
	w, _ := workloadByName("oltp")
	p := w.gen(3, shortTx)
	r, err := newRig(p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := p.want(0)
	bad := map[string]int{}
	for site, n := range good {
		bad[site] = n
	}
	for site := range bad {
		bad[site]++
		break
	}
	p.want = func(int) map[string]int { return bad }
	_, err = r.run(layerMonitor, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "verdicts") {
		t.Errorf("an off-by-one known answer passed: %v", err)
	}

	cb, _ := workloadByName("rebuild")
	q := cb.gen(3, 2)
	holds, err := buildAt(q.sources(0, 1), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &rig{prog: q, inst: holds, plain: holds, dir: t.TempDir()}
	if _, err := r2.run(layerMonitor, 1, nil); err == nil {
		t.Error("a build that holds passed against an answer that expects violations")
	}
}

// sameCounts finds every kind of per-site difference.
func TestSameCounts(t *testing.T) {
	got := map[string]int{"a.c:1": 2}
	if err := sameCounts(got, map[string]int{"a.c:1": 2}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []map[string]int{{"a.c:1": 1}, {"a.c:1": 2, "b.c:2": 1}, {}} {
		if sameCounts(got, want) == nil {
			t.Errorf("sameCounts(%v, %v) found no difference", got, want)
		}
	}
}

// BENCHMARK.json and the metric tables here must name the same metrics,
// units, directions and bounds, and only workloads that exist.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	readSpec(t, &spec)
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better == "" {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	for _, name := range listedWorkloads(t) {
		if _, ok := workloadByName(name); !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", name)
		}
	}
}

// The traced measurement reports every per-layer metric and the
// untraced one every end-to-end metric, on every listed workload.
func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both measurements once per workload")
	}
	for _, name := range listedWorkloads(t) {
		w, _ := workloadByName(name)
		// One size for both, as on the listed workloads: the ladder
		// consistency check compares their CPU per transaction, so runs
		// must be long enough to average out.
		w.tx = min(w.traceTx, 64*shortTx)
		w.traceTx = w.tx
		e2e, err := endToEnd(w, 5, 0, t.TempDir())
		if err != nil {
			t.Errorf("%s end-to-end: %v", name, err)
		}
		// Two seconds give the ladder consistency check enough rounds
		// to average out single runs of a few milliseconds.
		layers, err := perLayer(w, 5, 2*time.Second, t.TempDir())
		if err != nil {
			t.Errorf("%s per-layer: %v", name, err)
		}
		for _, c := range []struct {
			res  result
			defs []metricDef
		}{{e2e, endToEndMetrics}, {layers, perLayerMetrics}} {
			for _, d := range c.defs {
				if _, ok := c.res.metrics[d.name]; !ok {
					t.Errorf("%s: %s not reported", name, d.name)
				}
			}
		}
	}
}

func TestMain(m *testing.M) {
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench tests run from perfbench/ in a checkout with BENCHMARK.json")
		os.Exit(1)
	}
	os.Exit(m.Run())
}
