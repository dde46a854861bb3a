package conform

import (
	"context"
	"testing"

	"repro/internal/atomfs"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fstest"
	"repro/internal/memfs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// TestRecoveredAtomFSDifferentialMemFS is the durability analogue of the
// conformance suite's differential checks: a journaled AtomFS and the
// memfs baseline are driven with an identical operation stream (results
// must agree step by step), the journal is then recovered from the
// device alone, a fresh AtomFS is rebuilt from the recovered state, and
// the rebuilt file system must remain indistinguishable from memfs on a
// further identical stream — recovery is semantically invisible. It runs
// on plain atomfs and on the served configuration.
func TestRecoveredAtomFSDifferentialMemFS(t *testing.T) {
	t.Run("plain", func(t *testing.T) { recoveredDifferential(t) })
	t.Run("served", func(t *testing.T) { recoveredDifferential(t, served...) })
}

func recoveredDifferential(t *testing.T, opts ...atomfs.Option) {
	ctx := context.Background()
	dev := wal.NewDevice(block.NewStore(8192), 0)
	l := wal.NewLog(dev, wal.Config{CheckpointEvery: 32})
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	afs := atomfs.New(append([]atomfs.Option{atomfs.WithMonitor(mon), atomfs.WithJournal(l)}, opts...)...)
	mfs := memfs.New()

	stream := fstest.NewOpStream(7)
	for i := 0; i < 400; i++ {
		op, args := stream.Next()
		got := fstest.ApplyFS(ctx, afs, op, args)
		want := fstest.ApplyFS(ctx, mfs, op, args)
		if !got.Equal(want) {
			t.Fatalf("step %d: %s %s: atomfs %s, memfs %s", i, op, args, got, want)
		}
	}
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if vs := mon.Violations(); len(vs) != 0 {
		t.Fatalf("violations on journaled fs: %v", vs)
	}

	recovered, info, err := wal.Recover(dev, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.LastSeq != l.LastSeq() {
		t.Fatalf("recovered seq %d, want %d", info.LastSeq, l.LastSeq())
	}

	m2 := core.NewMonitor(core.Config{CheckGoodAFS: true})
	rebuilt := atomfs.New(append([]atomfs.Option{atomfs.WithMonitor(m2)}, opts...)...)
	for _, e := range trace.FromState(recovered) {
		if ret := fstest.ApplyFS(ctx, rebuilt, e.Op, e.Args); ret.Err != nil {
			t.Fatalf("rebuild %s: %v", e.Format(), ret.Err)
		}
	}

	// The rebuilt-from-recovery AtomFS must be indistinguishable from
	// the memfs that saw the same pre-crash history.
	for i := 0; i < 200; i++ {
		op, args := stream.Next()
		got := fstest.ApplyFS(ctx, rebuilt, op, args)
		want := fstest.ApplyFS(ctx, mfs, op, args)
		if !got.Equal(want) {
			t.Fatalf("post-recovery step %d: %s %s: recovered-atomfs %s, memfs %s",
				i, op, args, got, want)
		}
	}
	if err := m2.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if vs := m2.Violations(); len(vs) != 0 {
		t.Fatalf("violations on recovered fs: %v", vs)
	}
}
