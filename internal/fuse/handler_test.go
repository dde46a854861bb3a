package fuse

// Tests for per-connection handler reuse: sequential requests share one
// handler goroutine, a stalled burst starts one handler per request and
// leaves at most maxInflight parked afterwards, and closing the
// connection stops every handler before ServeConn returns.

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomfs"
	"repro/internal/fsapi"
	"repro/internal/obs"
)

// gateFS stalls Stat("/stall") until release is closed or the request's
// context ends, announcing each arrival on entered.
type gateFS struct {
	fsapi.FS
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) Stat(ctx context.Context, path string) (fsapi.Info, error) {
	if path == "/stall" {
		g.entered <- struct{}{}
		select {
		case <-g.release:
		case <-ctx.Done():
			return fsapi.Info{}, ctx.Err()
		}
	}
	return g.FS.Stat(ctx, path)
}

// gatedConn is one net.Pipe connection served by a server over a gateFS.
type gatedConn struct {
	client *Client
	gate   *gateFS
	done   chan struct{} // closed when ServeConn returns
	// maxInflight is the server's inflight bound.
	maxInflight int
	// creator is the "created by" line every handler goroutine of this
	// connection carries in a stack dump.
	creator string
}

// newGatedConn serves one connection with the given inflight bound and
// creates /stall through it (which leaves one handler parked).
func newGatedConn(t *testing.T, reg *obs.Registry, maxInflight, burst int) *gatedConn {
	t.Helper()
	g := &gateFS{
		FS:      atomfs.New(atomfs.WithEpoch(), atomfs.WithPrefixCache()),
		entered: make(chan struct{}, burst),
		release: make(chan struct{}),
	}
	srv := NewServer(g)
	srv.maxInflight = maxInflight
	srv.SetObs(reg)
	c1, c2 := net.Pipe()
	c := &gatedConn{gate: g, done: make(chan struct{}), maxInflight: maxInflight}
	id := make(chan string, 1)
	go func() {
		defer close(c.done)
		id <- goroutineID()
		srv.ServeConn(c2)
	}()
	c.creator = "created by repro/internal/fuse.(*Server).ServeConn in goroutine " + <-id + "\n"
	c.client = NewClient(c1)
	if err := c.client.Mknod(tctx, "/stall"); err != nil {
		t.Fatal(err)
	}
	return c
}

// goroutineID returns the calling goroutine's number from its stack dump
// header ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// handlers counts the connection's live handler goroutines and how many
// of them are parked waiting for a request.
func (c *gatedConn) handlers() (live, parked int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, c.creator) {
			live++
			if strings.Contains(g, "[chan receive") {
				parked++
			}
		}
	}
	return live, parked
}

// stallBurst issues n concurrent Stat("/stall") calls and waits until
// min(n, maxInflight) of them are inside the file system. The returned
// group finishes once every call has returned.
func (c *gatedConn) stallBurst(t *testing.T, n int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.client.Stat(tctx, "/stall") //nolint:errcheck // outcome depends on the test's teardown
		}()
	}
	for i := 0; i < min(n, c.maxInflight); i++ {
		select {
		case <-c.gate.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d stalled requests reached the file system", i, min(n, c.maxInflight))
		}
	}
	return &wg
}

func spawned(reg *obs.Registry) uint64 {
	return reg.Counter("atomfs_fuse_handlers_spawned_total").Value()
}

// waitFor polls cond until it holds or 5 s pass.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestHandlerReuseSequential: back-to-back requests on one connection are
// all served by the handler the first one started. Each request is sent
// once that handler has parked, which it does after replying.
func TestHandlerReuseSequential(t *testing.T) {
	reg := obs.NewRegistry()
	c := newGatedConn(t, reg, 64, 1)
	parked := func() bool { _, p := c.handlers(); return p == 1 }
	for i := 0; i < 50; i++ {
		if !waitFor(parked) {
			t.Fatal("the handler did not park after replying")
		}
		if _, err := c.client.Stat(tctx, "/"); err != nil {
			t.Fatal(err)
		}
	}
	if n := spawned(reg); n != 1 {
		t.Fatalf("51 sequential requests started %d handlers, want 1", n)
	}
	c.client.Close()
	<-c.done
}

// TestHandlerBurstIdleBound: a burst of requests stalled in the file
// system needs one handler each; once it drains, at most maxInflight
// handlers stay parked, and the next request reuses one of them.
func TestHandlerBurstIdleBound(t *testing.T) {
	const maxInflight, burst = 4, 12
	reg := obs.NewRegistry()
	c := newGatedConn(t, reg, maxInflight, burst)
	wg := c.stallBurst(t, burst)
	// Whether or not the Mknod's handler had parked in time to take a
	// stalled request, every stalled request holds a handler of its own.
	if !waitFor(func() bool { live, parked := c.handlers(); return live-parked == burst }) {
		live, parked := c.handlers()
		t.Fatalf("burst of %d stalled requests holds %d handlers, want %d", burst, live-parked, burst)
	}
	close(c.gate.release)
	wg.Wait()

	settled := func() bool { live, parked := c.handlers(); return live <= maxInflight && parked == live }
	if !waitFor(settled) {
		live, parked := c.handlers()
		t.Fatalf("%d handlers (%d parked) left after the burst, want at most %d, all parked", live, parked, maxInflight)
	}
	before := spawned(reg)
	if _, err := c.client.Stat(tctx, "/"); err != nil {
		t.Fatal(err)
	}
	if n := spawned(reg); n != before {
		t.Fatalf("request after the burst started a handler (%d spawned, was %d)", n, before)
	}
	// ServeConn waits for every handler, so it returns only once the
	// parked ones have exited.
	c.client.Close()
	<-c.done
}

// TestHandlerCloseNoLeak closes a connection with handlers stalled in the
// file system and queued on the inflight semaphore: ServeConn must return,
// and every goroutine it started must be gone.
func TestHandlerCloseNoLeak(t *testing.T) {
	const maxInflight, burst = 2, 6
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	c := newGatedConn(t, reg, maxInflight, burst)
	// Two requests stall in the file system, four queue on the semaphore.
	wg := c.stallBurst(t, burst)
	c.client.Close()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after the connection closed")
	}
	wg.Wait()
	if !waitFor(func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
}
