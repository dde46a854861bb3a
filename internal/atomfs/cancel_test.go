package atomfs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
)

// TestCancelMidTraversalAborts: a Stat parked mid-traversal (holding one
// coupled inode lock) whose context is cancelled must abort — return a
// context error, release every lock, and leave the monitor's ghost state
// as if the op never ran.
func TestCancelMidTraversalAborts(t *testing.T) {
	mon := core.NewMonitor(core.Config{Mode: core.ModeHelpers, CheckGoodAFS: true})
	reg := obs.NewRegistry()
	fs := New(WithMonitor(mon), WithObs(reg))
	for _, p := range []string{"/a", "/a/b"} {
		if err := fs.Mkdir(tctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mknod(tctx, "/a/b/f"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(tctx)
	parked := make(chan struct{})
	resume := make(chan struct{})
	fs.SetHook(func(ev HookEvent) {
		// Park the stat right after it coupled onto /a/b (it holds
		// exactly that one lock; the next walk step polls cancellation).
		if ev.Op == spec.OpStat && ev.Point == HookStepped && ev.Name == "b" {
			close(parked)
			<-resume
		}
	})

	var statErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, statErr = fs.Stat(ctx, "/a/b/f")
	}()
	<-parked
	cancel()
	close(resume)
	<-done
	fs.SetHook(nil)

	if !errors.Is(statErr, context.Canceled) {
		t.Fatalf("cancelled stat = %v, want context.Canceled", statErr)
	}
	// The aborted op released /a/b: a fresh traversal through the same
	// nodes completes (it would deadlock on a leaked lock).
	if info, err := fs.Stat(tctx, "/a/b/f"); err != nil || info.Kind != spec.KindFile {
		t.Fatalf("stat after abort = %+v %v", info, err)
	}
	if vs := mon.Violations(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if st := mon.Stats(); st.Aborted != 1 {
		t.Fatalf("aborted = %d, want 1", st.Aborted)
	}
	if v := reg.Counter(`atomfs_cancelled_total{op="stat"}`).Value(); v != 1 {
		t.Fatalf("cancelled counter = %d, want 1", v)
	}

	// Deadline flavour: an already-expired context aborts up front and is
	// counted separately.
	dctx, dcancel := context.WithDeadline(tctx, time.Now().Add(-time.Second))
	defer dcancel()
	buf := make([]byte, 4)
	if _, err := fs.Read(dctx, "/a/b/f", 0, buf); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired read = %v, want context.DeadlineExceeded", err)
	}
	if v := reg.Counter(`atomfs_deadline_exceeded_total{op="read"}`).Value(); v != 1 {
		t.Fatalf("deadline counter = %d, want 1", v)
	}
}

// TestHelpedThenCancelledReturnsHelpedResult is the other row of the §9
// decision table: an op that a concurrent rename has already helped to an
// external LP is past its point of no return — cancelling its context
// afterwards must NOT produce a context error; the op completes and
// returns its linearized result.
func TestHelpedThenCancelledReturnsHelpedResult(t *testing.T) {
	mon := core.NewMonitor(core.Config{Mode: core.ModeHelpers, CheckGoodAFS: true})
	fs := New(WithMonitor(mon))
	for _, p := range []string{"/a", "/a/b"} {
		if err := fs.Mkdir(tctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mknod(tctx, "/a/b/f"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(tctx)
	defer cancel()
	parked := make(chan struct{})
	resume := make(chan struct{})
	fs.SetHook(func(ev HookEvent) {
		// The stat pauses holding /a/b — inside the subtree rename is
		// about to move, so its LockPath has rename's source as a prefix
		// and rename's linothers will help it.
		if ev.Op == spec.OpStat && ev.Point == HookStepped && ev.Name == "b" {
			close(parked)
			<-resume
		}
	})

	var statErr error
	var statInfo struct {
		kind spec.Kind
		size int64
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		info, err := fs.Stat(ctx, "/a/b/f")
		statInfo.kind, statInfo.size, statErr = info.Kind, info.Size, err
	}()
	<-parked
	// The rename's helper LP linearizes the parked stat (AopDone).
	if err := fs.Rename(tctx, "/a", "/e"); err != nil {
		t.Fatal(err)
	}
	// Cancel only AFTER the help committed, then let the stat resume: its
	// next cancellation poll sees ctx done, but TryAbort refuses (the LP
	// already fired) and the op latches committed.
	cancel()
	close(resume)
	<-done
	fs.SetHook(nil)

	if statErr != nil {
		t.Fatalf("helped-then-cancelled stat = %v, want its helped result", statErr)
	}
	if statInfo.kind != spec.KindFile {
		t.Fatalf("helped stat kind = %v, want file", statInfo.kind)
	}
	if vs := mon.Violations(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
	st := mon.Stats()
	if st.Helped < 1 {
		t.Fatalf("helped = %d, want >= 1", st.Helped)
	}
	if st.Aborted != 0 {
		t.Fatalf("aborted = %d, want 0 (TryAbort must refuse after help)", st.Aborted)
	}
}

// TestCancellationStorm floods a monitored tree with readers whose
// contexts are cancelled at random points mid-traversal while renames
// whip the subtree back and forth and churn runs underneath. The monitor
// enforces the full §9 contract on every op — aborted ops return context
// errors holding zero locks, helped-then-cancelled ops return their
// helped results — and afterwards the tree must be fully traversable
// (nothing leaked) and structurally sound. Run with -race.
func TestCancellationStorm(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts []Option
	}{
		{"coupled", nil},
		{"fastpath", []Option{WithEpoch(), WithPrefixCache()}},
	} {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			mon := core.NewMonitor(core.Config{Mode: core.ModeHelpers})
			fs := New(append([]Option{WithMonitor(mon)}, variant.opts...)...)
			for _, p := range []string{"/a", "/a/b", "/a/b/c", "/a/b/c/d"} {
				if err := fs.Mkdir(tctx, p); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				if err := fs.Mknod(tctx, fmt.Sprintf("/a/b/c/d/f%d", i)); err != nil {
					t.Fatal(err)
				}
			}

			// Dwell briefly on a fraction of coupling steps: walks stay
			// in flight long enough for the random cancels to land
			// mid-traversal and for renames to catch readers in their
			// help sets — otherwise the storm only exercises the
			// trivial abort-before-first-lock poll.
			var step atomic.Uint64
			fs.SetHook(func(ev HookEvent) {
				if ev.Point == HookStepped && step.Add(1)%7 == 0 {
					time.Sleep(5 * time.Microsecond)
				}
			})
			defer fs.SetHook(nil)

			const (
				readers = 6
				iters   = 250
			)
			var wg sync.WaitGroup
			stop := make(chan struct{})

			// Rename storm: the whole subtree flips /a <-> /e, so readers
			// parked below it land in help sets.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					fs.Rename(tctx, "/a", "/e")
					fs.Rename(tctx, "/e", "/a")
				}
			}()
			// Namespace churn below the rename point.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					root := "/a"
					if i%2 == 1 {
						root = "/e"
					}
					fs.Mknod(tctx, root+"/b/c/tmp")
					fs.Unlink(tctx, root+"/b/c/tmp")
				}
			}()

			var ctxErrs, results atomic.Uint64
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w) * 99991))
					buf := make([]byte, 8)
					for i := 0; i < iters; i++ {
						ctx, cancel := context.WithCancel(tctx)
						switch i % 5 {
						case 0:
							// Pre-cancelled: must abort at the first poll.
							cancel()
						default:
							// Cancel at a random instant mid-flight.
							timer := time.AfterFunc(time.Duration(r.Intn(40))*time.Microsecond, cancel)
							defer timer.Stop()
						}
						root := "/a"
						if r.Intn(2) == 1 {
							root = "/e"
						}
						path := fmt.Sprintf("%s/b/c/d/f%d", root, r.Intn(4))
						var err error
						if i%2 == 0 {
							_, err = fs.Stat(ctx, path)
						} else {
							_, err = fs.Read(ctx, path, 0, buf)
						}
						if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
							ctxErrs.Add(1)
						} else {
							results.Add(1)
						}
						cancel()
					}
				}(w)
			}
			// Give the readers a head start, then stop the mutators so the
			// readers' tail runs against a quiescing tree too.
			time.Sleep(10 * time.Millisecond)
			close(stop)
			wg.Wait()

			if vs := mon.Violations(); len(vs) != 0 {
				t.Fatalf("%d violations, first: %v", len(vs), vs[0])
			}
			if err := mon.Quiesce(); err != nil {
				t.Fatal(err)
			}
			// No leaked inode locks: every path in the tree is still fully
			// traversable with a live context (a leaked lock deadlocks here
			// and the test times out), and the structure checks out.
			for _, root := range []string{"/a", "/e"} {
				if _, err := fs.Stat(tctx, root+"/b/c/d/f0"); err == nil {
					break
				}
			}
			if err := fs.Check(); err != nil {
				t.Fatal(err)
			}
			st := mon.Stats()
			if ctxErrs.Load() == 0 || st.Aborted == 0 {
				t.Fatalf("storm produced no aborts (ctxErrs=%d, aborted=%d) — cancellation never hit",
					ctxErrs.Load(), st.Aborted)
			}
			if results.Load() == 0 {
				t.Fatal("storm produced no completed ops")
			}
			t.Logf("%s: aborted=%d helped=%d linearized=%d ctxErrs=%d results=%d",
				variant.name, st.Aborted, st.Helped, st.Linearized, ctxErrs.Load(), results.Load())
		})
	}
}
