package atomfs

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fstest"
	"repro/internal/obs"
)

func TestEpochName(t *testing.T) {
	if got := New(WithEpoch()).Name(); got != "atomfs-epoch" {
		t.Fatalf("Name() = %q, want atomfs-epoch", got)
	}
	if got := New(WithEpoch(), WithPrefixCache()).Name(); got != "atomfs-epoch-prefix" {
		t.Fatalf("Name() = %q, want atomfs-epoch-prefix", got)
	}
}

func TestEpochBigLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithBigLock+WithEpoch did not panic")
		}
	}()
	New(WithBigLock(), WithEpoch())
}

func TestEpochFunctional(t *testing.T) {
	fstest.Functional(t, New(WithEpoch()))
}

func TestEpochFunctionalMonitored(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithEpoch(), WithMonitor(mon))
	fstest.Functional(t, fs)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if mon.Stats().EpochReads == 0 {
		t.Fatal("no read linearized at an epoch-read entry")
	}
}

func TestEpochPrefixFunctionalMonitored(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithEpoch(), WithPrefixCache(), WithMonitor(mon))
	fstest.Functional(t, fs)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestEpochDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fstest.Differential(t, New(WithEpoch()), seed, 600)
		})
	}
}

func TestEpochDifferentialMonitored(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithEpoch(), WithMonitor(mon))
	fstest.Differential(t, fs, 42, 800)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochReadsNeverSpin: uncontended, every epoch read completes on
// the fast path — the single Current() load either succeeds or falls
// back, with no retry loop to spin in.
func TestEpochReadsNeverSpin(t *testing.T) {
	reg := obs.NewRegistry()
	fs := New(WithEpoch(), WithObs(reg), WithObsSampleEvery(1))
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(tctx, "/a/f"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := fs.Stat(tctx, "/a/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Readdir(tctx, "/a"); err != nil {
			t.Fatal(err)
		}
	}
	hits, falls := fs.FastPathStats()
	if hits != 1000 || falls != 0 {
		t.Fatalf("hits=%d falls=%d, want 1000, 0", hits, falls)
	}
}

// TestEpochWriterInFlightFallsBackWithoutSpinning: with a write section
// held open, every epoch read falls back after exactly one load — no
// retry, reason writer-inflight — and still returns the right result via
// the slow path.
func TestEpochWriterInFlightFallsBackWithoutSpinning(t *testing.T) {
	reg := obs.NewRegistry()
	fs := New(WithEpoch(), WithObs(reg), WithObsSampleEvery(1))
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	fs.seqMu.Lock()
	fs.mseq.Begin()
	for i := 0; i < 4; i++ {
		if _, err := fs.Stat(tctx, "/a"); err != nil {
			t.Fatalf("Stat under open write section: %v", err)
		}
	}
	fs.mseq.End()
	fs.seqMu.Unlock()
	name := `atomfs_fastpath_fallback_total{reason="writer-inflight"}`
	if n := reg.Counter(name).Value(); n != 4 {
		t.Fatalf("writer-inflight fallbacks = %d, want 4", n)
	}
}

// TestEpochReclaimDeferredWhilePinned is the FS-level half of the limbo
// test: a reader parked mid-walk holds an epoch pin, and an unlink's
// block reclamation must sit in limbo — not freed — until the reader
// finishes and enough mutations drive the advances.
func TestEpochReclaimDeferredWhilePinned(t *testing.T) {
	fs := New(WithEpoch())
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(tctx, "/a/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(tctx, "/a/f", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	fs.SetHook(func(ev HookEvent) {
		if ev.Point == HookFastWalk {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	})
	statDone := make(chan error, 1)
	go func() {
		_, err := fs.Stat(tctx, "/a/f")
		statDone <- err
	}()
	<-parked
	fs.SetHook(nil)

	// Unlink the file the reader stands on, then churn mutations: each
	// one retires and attempts an advance. The pinned reader caps
	// progress at one advance, so nothing may be freed.
	if err := fs.Unlink(tctx, "/a/f"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := fs.Mkdir(tctx, fmt.Sprintf("/z%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := fs.EpochStats()
	if s.Freed != 0 {
		t.Fatalf("freed %d limbo items while a reader was pinned (stats %+v)", s.Freed, s)
	}
	if s.Limbo == 0 {
		t.Fatalf("unlink retired nothing (stats %+v)", s)
	}

	close(release)
	if err := <-statDone; err != nil {
		// Both outcomes are legal for the racing stat (it falls back to
		// the slow path after the unlink); only crashes/races are not.
		t.Logf("racing stat: %v", err)
	}
	// Reader gone: two more mutations complete the two grace periods.
	for i := 0; i < 4; i++ {
		if err := fs.Mkdir(tctx, fmt.Sprintf("/y%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := fs.EpochStats(); s.Freed == 0 {
		t.Fatalf("limbo never drained after the reader unpinned (stats %+v)", s)
	}
}

// TestEpochViolationNegativeControl deliberately breaks the protocol —
// the final-instant validation lies — and requires the monitor to catch
// the divergence by abstract replay (ViolEpoch). The reader parks after
// reading its result at the terminal inode; a rename then detaches the
// ancestor directory, so the observed path no longer resolves
// abstractly even though the (skipped) validation claims it does.
func TestEpochViolationNegativeControl(t *testing.T) {
	epochSkipFinalCheckForTest = true
	defer func() { epochSkipFinalCheckForTest = false }()

	var mu sync.Mutex
	var got []core.Violation
	mon := core.NewMonitor(core.Config{
		CheckGoodAFS: true,
		OnViolation: func(v core.Violation) {
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		},
	})
	fs := New(WithEpoch(), WithMonitor(mon))
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(tctx, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(tctx, "/a/b/f"); err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	fs.SetHook(func(ev HookEvent) {
		// Park at the LP attempt of the read — result read, terminal
		// inode still locked. The rename below needs the locks of root,
		// /a, and /a/b, never the terminal file's, so it can commit
		// inside this window.
		if ev.Point == HookFastLP {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	})
	go func() {
		<-parked
		if err := fs.Rename(tctx, "/a/b", "/c"); err != nil {
			t.Errorf("rename: %v", err)
		}
		close(release)
	}()
	if _, err := fs.Stat(tctx, "/a/b/f"); err != nil {
		// The refused epoch LP falls back to the slow path, which sees
		// the post-rename tree: ErrNotExist is the expected result.
		t.Logf("stat after rename: %v", err)
	}
	fs.SetHook(nil)

	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, v := range got {
		if v.Kind == core.ViolEpoch {
			found = true
		}
	}
	if !found {
		t.Fatalf("skipped final-instant check was not caught; violations: %v", got)
	}
}

// TestFastPathAdaptiveVeto (fig10 fix): after fastStreakLimit
// consecutive fallbacks the next fastVetoWindow reads skip the fast path
// entirely — no attempt, no hit, no fallback — then probing resumes.
func TestFastPathAdaptiveVeto(t *testing.T) {
	t.Run("epoch", func(t *testing.T) {
		fs := New(WithEpoch())
		if err := fs.Mkdir(tctx, "/a"); err != nil {
			t.Fatal(err)
		}
		// Hold the write section open: every attempt falls back
		// (writer-inflight) until the streak trips the veto.
		fs.seqMu.Lock()
		fs.mseq.Begin()
		for i := 0; i < fastStreakLimit; i++ {
			if _, err := fs.Stat(tctx, "/a"); err != nil {
				t.Fatal(err)
			}
		}
		_, falls := fs.FastPathStats()
		if falls != fastStreakLimit {
			t.Fatalf("fallbacks = %d, want %d", falls, fastStreakLimit)
		}
		for i := 0; i < 5; i++ {
			if _, err := fs.Stat(tctx, "/a"); err != nil {
				t.Fatal(err)
			}
		}
		hits, falls := fs.FastPathStats()
		if hits != 0 || falls != fastStreakLimit {
			t.Fatalf("vetoed reads changed stats: hits=%d falls=%d", hits, falls)
		}
		if v := fs.FastPathVetoed(); v != 5 {
			t.Fatalf("vetoed = %d, want 5", v)
		}
		fs.mseq.End()
		fs.seqMu.Unlock()
		// Burn the rest of the window, then the fast path re-engages.
		for i := 0; i < fastVetoWindow-5; i++ {
			if _, err := fs.Stat(tctx, "/a"); err != nil {
				t.Fatal(err)
			}
		}
		if v := fs.FastPathVetoed(); v != fastVetoWindow {
			t.Fatalf("vetoed = %d, want %d", v, fastVetoWindow)
		}
		if _, err := fs.Stat(tctx, "/a"); err != nil {
			t.Fatal(err)
		}
		if hits, _ := fs.FastPathStats(); hits != 1 {
			t.Fatalf("post-window hits = %d, want 1", hits)
		}
	})
}

// TestEpochRaceStress races epoch readers against a rename/unlink storm
// under -race: the lock-free walk, the pin/advance protocol and the
// deferred reclamation must all stay silent.
func TestEpochRaceStress(t *testing.T) {
	fs := New(WithEpoch(), WithPrefixCache())
	for _, d := range []string{"/a", "/a/b", "/c"} {
		if err := fs.Mkdir(tctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mknod(tctx, "/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(tctx, "/a/b/f", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				fs.Stat(tctx, "/a/b/f")
				fs.Readdir(tctx, "/a/b")
				fs.Read(tctx, "/a/b/f", 0, buf)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			fs.Rename(tctx, "/a/b", "/c/m")
			fs.Rename(tctx, "/c/m", "/a/b")
			fs.Unlink(tctx, "/a/b/f")
			fs.Mknod(tctx, "/a/b/f")
		}
		close(stop)
	}()
	wg.Wait()
	s := fs.EpochStats()
	if s.Retired == 0 {
		t.Fatalf("storm retired nothing (stats %+v)", s)
	}
}

// TestEpochRecordsBoundedAcrossGC: the reader-record pool drops idle
// records at every GC, and the domain must get them back — otherwise
// each burst of readers after a collection registers fresh records and
// TryAdvance's scan grows without bound. Bursts that park all readers
// inside the walk at once alternate with single reads, each followed by
// a GC: a lone read leaves the burst's other records idle in the pool
// for the collection to drop, and the next burst needs them again.
// Records must stay near the burst size however many rounds run.
func TestEpochRecordsBoundedAcrossGC(t *testing.T) {
	const readers, rounds = 16, 50
	fs := newServed()
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		var inside, done sync.WaitGroup
		inside.Add(readers)
		fs.SetHook(func(ev HookEvent) {
			if ev.Point == HookFastWalk {
				inside.Done()
				inside.Wait() // all readers hold a pinned record at once
			}
		})
		for i := 0; i < readers; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				fs.Stat(tctx, "/a")
			}()
		}
		done.Wait()
		fs.SetHook(nil)
		runtime.GC()
		fs.Stat(tctx, "/a")
		runtime.GC()
	}
	if n := fs.EpochStats().Records; n > 3*readers {
		t.Fatalf("%d reader records after %d bursts of %d readers, want <= %d", n, rounds, readers, 3*readers)
	}
}
