package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"tesla/internal/agg"
	"tesla/internal/build"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
	"tesla/internal/trace"
)

// buildAt builds sources the way tesla-run does by default (graph build,
// default jobs, a fresh in-memory cache), or against a warm cache.
func buildAt(src map[string]string, instrument bool, cache *build.Cache) (*toolchain.Build, error) {
	return toolchain.BuildProgramOpts(src, toolchain.BuildOptions{Instrument: instrument, Cache: cache})
}

// setupOnce times what a tesla-run invocation does before the program's
// first instruction: the cold build at defaults and NewRuntime; with the
// fleet plane also the aggregation server's start (as `tesla-agg serve
// -snapshot` would), the recorder, the client spool and the dial.
func setupOnce(p *program, fleet bool, dir string) (time.Duration, error) {
	var srv *fleetServer
	var client *agg.Client
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	// A tesla-run process starts with no heap: return what earlier work
	// freed to the kernel, so the set-up touches fresh memory as that
	// process would, whatever ran before it.
	debug.FreeOSMemory()
	t0 := time.Now()
	b, err := buildAt(p.sources(0, 0), true, nil)
	if err != nil {
		return 0, err
	}
	opts := monitor.Options{Handler: core.MultiHandler{core.NewCountingHandler()}}
	if fleet {
		rec := trace.NewRecorder(b.Autos, 0)
		opts.Handler = append(opts.Handler.(core.MultiHandler), rec)
		opts.Tap = rec
	}
	if _, err := b.NewRuntime(opts); err != nil {
		return 0, err
	}
	if fleet {
		if srv, err = startFleetServer(dir); err != nil {
			return 0, err
		}
		defer srv.close()
		sp, err := trace.OpenSpool(filepath.Join(dir, "agg"), trace.SpoolOpts{Sync: trace.SpoolSyncAlways})
		if err != nil {
			return 0, err
		}
		if client, err = agg.Dial(srv.addr, agg.ClientOpts{Tool: "tesla-run", Process: "perfbench-setup", Spool: sp}); err != nil {
			sp.Close()
			return 0, err
		}
	}
	d := time.Since(t0)
	if client != nil {
		if err := client.Close(); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// edit names the two §5.1 incremental-build cases.
type edit int

const (
	editBody   edit = iota // one library function body changes
	editAssert             // one assertion changes: the manifest changes
)

// rebuilder applies successive one-file edits to a codebase against one
// warm in-memory cache, the way an edit-compile loop would.
type rebuilder struct {
	prog       *program
	instrument bool
	cache      *build.Cache
	body       int
	assert     int
}

// newRebuilder warms a cache with a cold build of the unedited codebase.
func newRebuilder(p *program, instrument bool) (*rebuilder, error) {
	rb := &rebuilder{prog: p, instrument: instrument, cache: build.NewCache()}
	_, err := buildAt(p.sources(0, 0), instrument, rb.cache)
	return rb, err
}

// rebuilt is one timed warm rebuild.
type rebuilt struct {
	span
	b *toolchain.Build
}

// restartEvery bounds how many edits one warm cache absorbs before the
// rebuilder starts over from a cold build (untimed): an edit loop's cache
// only grows, and so would the heap every later rebuild is charged for.
const restartEvery = 32

// next applies one more edit of kind k and rebuilds, timing the build
// alone. It checks the one-to-many shape of §5.1 on instrumented builds:
// a body edit re-instruments only the edited unit, an assertion edit
// re-instruments every unit.
func (rb *rebuilder) next(k edit) (rebuilt, error) {
	if (rb.body+rb.assert)%restartEvery == restartEvery-1 {
		rb.cache = build.NewCache()
		if _, err := buildAt(rb.prog.sources(rb.body, rb.assert), rb.instrument, rb.cache); err != nil {
			return rebuilt{}, err
		}
	}
	if k == editBody {
		rb.body++
	} else {
		rb.assert++
	}
	src := rb.prog.sources(rb.body, rb.assert)
	var out rebuilt
	var err error
	out.span, err = timeIt(func() error {
		out.b, err = buildAt(src, rb.instrument, rb.cache)
		return err
	})
	if err != nil || !rb.instrument {
		return out, err
	}
	got, units := instrumentRebuilt(out.b)
	want := 1
	if k == editAssert {
		want = units
	}
	if got != want {
		return out, fmt.Errorf("rebuild after edit %d: re-instrumented %d of %d unit(s), want %d", k, got, units, want)
	}
	return out, nil
}

// instrumentRebuilt counts the instrument nodes a build actually re-ran.
func instrumentRebuilt(b *toolchain.Build) (built, total int) {
	for _, n := range b.Graph.Nodes {
		if strings.HasPrefix(n.ID, "instrument:") {
			total++
			if n.Status == build.StatusBuilt {
				built++
			}
		}
	}
	return built, total
}

// nodesBuilt counts every graph node a build re-ran.
func nodesBuilt(b *toolchain.Build) int { return b.Graph.Counts().Built }
