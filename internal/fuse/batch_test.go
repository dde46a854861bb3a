package fuse

// Tests for the v2 batch wire operations (cursor-paged readdir, vectored
// readv), the server's wire-cap rejections, and teardown of a connection
// with a batch in flight.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/atomfs"
	"repro/internal/fserr"
	"repro/internal/obs"
	"repro/internal/spec"
)

// TestReaddirPaginates lists a directory holding more entries than one
// OpReaddirChunk frame may carry and checks the client reassembles the
// complete sorted listing across pages.
func TestReaddirPaginates(t *testing.T) {
	ctx := context.Background()
	client, srv := Pipe(atomfs.New(atomfs.WithEpoch(), atomfs.WithPrefixCache()))
	defer srv.Close()
	defer client.Close()
	if err := client.Mkdir(ctx, "/big"); err != nil {
		t.Fatal(err)
	}
	const entries = MaxDirNames*2 + 37 // three pages, last one partial
	want := make([]string, 0, entries)
	for i := 0; i < entries; i++ {
		name := fmt.Sprintf("f%05d", i)
		if err := client.Mknod(ctx, "/big/"+name); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	got, err := client.Readdir(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("name %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// TestReadvWire checks multi-extent reads over the wire: full extents,
// short reads at EOF, and overlapping extents.
func TestReadvWire(t *testing.T) {
	ctx := context.Background()
	client, srv := Pipe(atomfs.New(atomfs.WithEpoch(), atomfs.WithPrefixCache()))
	defer srv.Close()
	defer client.Close()
	if err := client.Mknod(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 10000)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	if _, err := client.Write(ctx, "/f", 0, content); err != nil {
		t.Fatal(err)
	}
	offs := []int64{0, 4096, 9990, 100}
	dsts := [][]byte{make([]byte, 100), make([]byte, 200), make([]byte, 100), make([]byte, 50)}
	ns, err := client.Readv(ctx, "/f", offs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	wantNs := []int{100, 200, 10, 50} // third extent is cut by EOF
	for i := range offs {
		if ns[i] != wantNs[i] {
			t.Fatalf("extent %d: n=%d want %d", i, ns[i], wantNs[i])
		}
		if string(dsts[i][:ns[i]]) != string(content[offs[i]:offs[i]+int64(ns[i])]) {
			t.Fatalf("extent %d: content mismatch", i)
		}
	}

	// Zero extents is a no-op, not a wire round trip.
	if ns, err := client.Readv(ctx, "/f", nil, nil); err != nil || ns != nil {
		t.Fatalf("empty readv: %v, %v", ns, err)
	}
	// Mismatched offs/dsts lengths are a client-side EINVAL.
	if _, err := client.Readv(ctx, "/f", []int64{0}, nil); err != fserr.ErrInvalid {
		t.Fatalf("mismatched readv: %v, want ErrInvalid", err)
	}
}

// TestServerRejectsWireCaps drives raw over-cap requests through the
// client's call path and checks each is refused with EINVAL and counted
// under its reason in atomfs_fuse_rejected_total.
func TestServerRejectsWireCaps(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	srv := NewServer(atomfs.New(atomfs.WithEpoch(), atomfs.WithPrefixCache()))
	srv.SetObs(reg)
	c1, c2 := net.Pipe()
	go srv.ServeConn(c2)
	defer srv.Close()
	client := NewClient(c1)
	defer client.Close()
	if err := client.Mknod(ctx, "/f"); err != nil {
		t.Fatal(err)
	}

	rejected := func(reason string) uint64 {
		return reg.Counter(`atomfs_fuse_rejected_total{reason="` + reason + `"}`).Value()
	}

	// Oversized read size.
	rep, err := client.call(ctx, &request{Op: spec.OpRead, Path: "/f", Size: MaxIOSize + 1}, nil)
	rep.done()
	if !errors.Is(err, fserr.ErrInvalid) {
		t.Fatalf("oversized read: %v, want EINVAL", err)
	}
	if rejected("size") != 1 {
		t.Fatalf("reason=size count = %d, want 1", rejected("size"))
	}

	// Too many readv extents.
	exts := make([]extent, MaxExtents+1)
	for i := range exts {
		exts[i] = extent{Off: 0, Size: 1}
	}
	rep, err = client.call(ctx, &request{Op: spec.OpReadv, Path: "/f", Extents: exts}, nil)
	rep.done()
	if err == nil {
		t.Fatal("oversized extent list must be rejected")
	}
	if rejected("extents") != 1 {
		t.Fatalf("reason=extents count = %d, want 1", rejected("extents"))
	}

	// Readv total over MaxIOSize.
	exts = []extent{{Off: 0, Size: MaxIOSize}, {Off: 0, Size: 1}}
	rep, err = client.call(ctx, &request{Op: spec.OpReadv, Path: "/f", Extents: exts}, nil)
	rep.done()
	if err == nil {
		t.Fatal("over-total extent list must be rejected")
	}
	if rejected("extents") != 2 {
		t.Fatalf("reason=extents count = %d, want 2", rejected("extents"))
	}

	// The connection survives rejections: a well-formed request still works.
	if _, err := client.Stat(ctx, "/f"); err != nil {
		t.Fatalf("stat after rejections: %v", err)
	}
}

// TestClientCloseMidBatch tears the connection down while paginated
// readdir and readv batches are in flight: every call must return an
// error promptly and no goroutine may leak.
func TestClientCloseMidBatch(t *testing.T) {
	ctx := context.Background()
	before := runtime.NumGoroutine()
	client, srv := Pipe(atomfs.New(atomfs.WithEpoch(), atomfs.WithPrefixCache()))
	if err := client.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < MaxDirNames+10; i++ { // force multi-page listings
		if err := client.Mknod(ctx, fmt.Sprintf("/d/f%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Mknod(ctx, "/d/data"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(ctx, "/d/data", 0, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errsCh := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				var err error
				if g%2 == 0 {
					_, err = client.Readdir(ctx, "/d")
				} else {
					offs := []int64{0, 8192, 16384, 32768}
					dsts := [][]byte{make([]byte, 4096), make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)}
					_, err = client.Readv(ctx, "/d/data", offs, dsts)
				}
				if err != nil {
					errsCh <- err
					return
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond) // let batches get airborne
	client.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch callers did not unblock after Close")
	}
	srv.Close()

	// Every caller saw an error (the pipe died mid-batch).
	if len(errsCh) != 16 {
		t.Fatalf("%d callers reported errors, want 16", len(errsCh))
	}

	// Goroutines drain back to the baseline (client read loop, writer
	// goroutines, server handlers all exit).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
