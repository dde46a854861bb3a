package atomfs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/obs"
)

// TestObsInstrumentation drives every instrumented code path with full
// tracing and checks the registry and flight recorder reflect it:
// per-op counters, latency and lock-time histograms, fast-path outcome
// counters, RCU stats, and the op/lock event stream.
func TestObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	fs := newServed(WithObs(reg), WithObsSampleEvery(1))

	if err := fs.Mkdir(tctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(tctx, "/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(tctx, "/d/f", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := fs.Stat(tctx, "/d/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := fsapi.ReadAll(tctx, fs, "/d/f", 0, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Readdir(tctx, "/d"); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unlink(tctx, "/d/f"); err != nil {
		t.Fatal(err)
	}

	wantCounts := map[string]uint64{
		`atomfs_ops_total{op="mkdir"}`:   1,
		`atomfs_ops_total{op="mknod"}`:   1,
		`atomfs_ops_total{op="write"}`:   1,
		`atomfs_ops_total{op="stat"}`:    10,
		`atomfs_ops_total{op="read"}`:    10,
		`atomfs_ops_total{op="readdir"}`: 10,
		`atomfs_ops_total{op="unlink"}`:  1,
	}
	for name, want := range wantCounts {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	hits, okH := reg.FuncValue("atomfs_fastpath_hits_total")
	falls, okF := reg.FuncValue("atomfs_fastpath_fallbacks_total")
	if !okH || !okF {
		t.Fatalf("fastpath funcs not registered: hits=%v falls=%v", okH, okF)
	}
	if hits+falls != 30 {
		t.Errorf("fastpath hits+fallbacks = %d+%d, want 30", hits, falls)
	}
	if hits == 0 {
		t.Error("uncontended fast path never hit")
	}
	if c := reg.Histogram(`atomfs_op_latency_ns{op="stat"}`).Snapshot().Count; c != 10 {
		t.Errorf("stat latency samples = %d, want 10 (sample-every-1)", c)
	}
	// Mutators run lock coupling, so hold times must have been observed.
	if c := reg.Histogram("atomfs_lock_hold_ns").Snapshot().Count; c == 0 {
		t.Error("no lock hold times observed")
	}

	ev := reg.FlightRecorder().Snapshot()
	kinds := map[obs.EventKind]int{}
	for _, e := range ev {
		kinds[e.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EvOpBegin, obs.EvOpEnd, obs.EvLockAcq, obs.EvLockRel, obs.EvFastHit} {
		if kinds[k] == 0 {
			t.Errorf("flight recorder has no %s events: %v", k, kinds)
		}
	}

	// The RCU gauges from internal/dir surface through the registry.
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for _, want := range []string{"dir_rcu_publish_total", "dir_rcu_lockfree_lookups_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prometheus output missing %s", want)
		}
	}
}

// TestObsSampling: with the default 1-in-N sampling, counters still see
// every operation while the event stream sees only the sampled subset
// plus all mutators.
func TestObsSampling(t *testing.T) {
	reg := obs.NewRegistry()
	fs := New(WithObs(reg)) // default sampling

	if err := fs.Mknod(tctx, "/f"); err != nil {
		t.Fatal(err)
	}
	// Large enough that every counter shard passes the sampling period
	// even when ops land round-robin across all NumShards shards (the
	// sample clock is the per-shard count, and op structs are not
	// reliably pooled under the race detector).
	const n = 4096
	for i := 0; i < n; i++ {
		if _, err := fs.Stat(tctx, "/f"); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(`atomfs_ops_total{op="stat"}`).Value(); got != n {
		t.Errorf("sampled run lost counter updates: %d != %d", got, n)
	}
	statBegins := 0
	for _, e := range reg.FlightRecorder().Snapshot() {
		if e.Kind == obs.EvOpBegin {
			statBegins++
		}
	}
	if statBegins == 0 || statBegins >= n {
		t.Errorf("sampled event stream has %d op-begin events, want 0 < x < %d", statBegins, n)
	}
}
