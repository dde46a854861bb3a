package lincheck

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/history"
	"repro/internal/memfs"
	"repro/internal/mount"
)

// crossNamespace assembles a two-volume namespace — the second volume
// mounted at /m — with both volumes monitored, and records the
// namespace-level history through the wrapper. The covering directory is
// created through the wrapper first so the recorded history replays from
// an empty tree.
func crossNamespace(t *testing.T, mkVol func() fsapi.FS) (fsapi.FS, *history.Recorder) {
	t.Helper()
	ns := mount.New(mkVol())
	rec := history.NewRecorder()
	w := history.WrapFS(ns, rec)
	if err := w.Mkdir(tctx, "/m"); err != nil {
		t.Fatalf("setup /m: %v", err)
	}
	if err := ns.Mount(tctx, "/m", mkVol()); err != nil {
		t.Fatalf("mount: %v", err)
	}
	for _, d := range []string{"/a", "/m/d"} {
		if err := w.Mkdir(tctx, d); err != nil {
			t.Fatalf("setup %s: %v", d, err)
		}
	}
	for _, f := range []string{"/a/f0", "/m/d/g0"} {
		if err := w.Mknod(tctx, f); err != nil {
			t.Fatalf("setup %s: %v", f, err)
		}
	}
	return w, rec
}

// TestCrossVolumeMixedHistory drives concurrent bursts that mix
// same-volume mutations with cross-volume renames (commit and abort
// paths) over a sharded namespace and requires every recorded
// namespace-level history to be linearizable: the two-phase protocol's
// composed operation must be observably atomic even though it spans two
// monitors. Both monitors must also stay silent.
func TestCrossVolumeMixedHistory(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			var mu sync.Mutex
			var mons []*core.Monitor
			w, rec := crossNamespace(t, func() fsapi.FS {
				mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
				mu.Lock()
				mons = append(mons, mon)
				mu.Unlock()
				return atomfs.New(atomfs.WithMonitor(mon), atomfs.WithEpoch(), atomfs.WithPrefixCache())
			})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed*977 + int64(g)))
					for i := 0; i < 3; i++ {
						switch {
						case g == 0 && i == 0:
							// The single cross thread: one commit-path and
							// implicitly abort-path rename per round.
							if r.Intn(2) == 0 {
								w.Rename(tctx, "/a/f0", fmt.Sprintf("/m/x%d", r.Intn(2)))
							} else {
								w.Rename(tctx, "/a", "/m/d") // nonempty victim: abort
							}
						case r.Intn(3) == 0:
							w.Mknod(tctx, fmt.Sprintf("/a/n%d", r.Intn(2)))
						case r.Intn(2) == 0:
							w.Stat(tctx, "/m/d/g0")
						default:
							w.Unlink(tctx, fmt.Sprintf("/m/x%d", r.Intn(2)))
						}
					}
				}(g)
			}
			wg.Wait()
			for _, mon := range mons {
				for _, v := range mon.Violations() {
					t.Errorf("violation: %s", v)
				}
				if err := mon.Quiesce(); err != nil {
					t.Errorf("quiesce: %v", err)
				}
			}
			res, err := Check(nil, rec.Events())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Linearizable {
				for _, e := range rec.Events() {
					t.Logf("%s", e)
				}
				t.Fatal("mixed cross-volume history is not linearizable")
			}
		})
	}
}

// TestCrossVolumeGenericFallbackHistory covers the copy+delete fallback
// path (volumes that do not implement the two-phase protocol). The
// fallback is NOT atomic — a concurrent observer may see the source
// mid-copy — so this test keeps observers off the moving paths and
// checks that the disjoint-path history stays linearizable.
func TestCrossVolumeGenericFallbackHistory(t *testing.T) {
	w, rec := crossNamespace(t, func() fsapi.FS { return memfs.New() })
	var wg sync.WaitGroup
	ops := []func(){
		func() { w.Rename(tctx, "/a/f0", "/m/moved") },
		func() { w.Mknod(tctx, "/m/d/h0") },
		func() { w.Stat(tctx, "/m/d/g0") },
		func() { w.Mkdir(tctx, "/side") },
	}
	for _, op := range ops {
		wg.Add(1)
		go func(op func()) {
			defer wg.Done()
			op()
		}(op)
	}
	wg.Wait()
	res, err := Check(nil, rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("disjoint-path fallback history is not linearizable")
	}
}
