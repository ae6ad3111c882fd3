package main

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"tesla/internal/agg"
)

// fleetServer is an in-process `tesla-agg serve -snapshot` on a unix
// socket, with the server's defaults for queue, stripes and snapshot
// interval. Its listener counts the bytes producers send, which is how the
// traced run measures wire cost without touching the client.
type fleetServer struct {
	addr  string
	snap  string
	srv   *agg.Server
	store *agg.Store
	wire  atomic.Uint64
	done  chan error
}

// startFleetServer listens on a socket in dir and starts serving.
func startFleetServer(dir string) (*fleetServer, error) {
	f := &fleetServer{
		addr: "unix:" + filepath.Join(dir, "agg.sock"),
		snap: filepath.Join(dir, "agg.snap"),
		done: make(chan error, 1),
	}
	ln, err := agg.Listen(f.addr)
	if err != nil {
		return nil, fmt.Errorf("agg listen: %w", err)
	}
	f.store = agg.NewStore(agg.StoreOpts{})
	snap, err := agg.LoadSnapshot(f.snap)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("agg snapshot: %w", err)
	}
	if snap != nil {
		f.store.Restore(snap)
	}
	f.srv = agg.NewServer(f.store, agg.ServerOpts{})
	f.srv.SnapshotEvery(f.snap, 0)
	go func() { f.done <- f.srv.Serve(countingListener{ln, &f.wire}) }()
	return f, nil
}

// close shuts the server down in tesla-agg's order: stop accepting, drain
// every connection, then take the final snapshot.
func (f *fleetServer) close() error {
	err := f.srv.Close()
	if serveErr := <-f.done; serveErr != nil && !errors.Is(serveErr, net.ErrClosed) {
		err = errors.Join(err, serveErr)
	}
	return errors.Join(err, f.srv.SnapshotNow(f.snap))
}

// producer returns the fleet's accounting for one producer, and whether
// the server has seen it at all.
func (f *fleetServer) producer(process string) (agg.ProducerStat, agg.FleetSummary, bool) {
	sum := f.store.Fleet()
	for _, p := range sum.Producers {
		if p.Process == process {
			return p, sum, true
		}
	}
	return agg.ProducerStat{}, sum, false
}

// awaitBye polls the store until the producer's bye has been accounted —
// at that moment ingested + dropped == sent holds for it — and returns
// its final accounting.
func (f *fleetServer) awaitBye(process string, timeout time.Duration) (agg.ProducerStat, agg.FleetSummary, error) {
	deadline := time.Now().Add(timeout)
	for {
		p, sum, ok := f.producer(process)
		if ok && p.Clean {
			return p, sum, nil
		}
		if time.Now().After(deadline) {
			return p, sum, fmt.Errorf("agg: producer %s: bye not accounted within %v", process, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// countingListener hands out connections that count the bytes read.
type countingListener struct {
	net.Listener
	n *atomic.Uint64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(uint64(n))
	return n, err
}
