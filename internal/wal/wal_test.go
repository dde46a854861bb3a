package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/spec"
)

func newDev(t *testing.T) *Device {
	t.Helper()
	return NewDevice(block.NewStore(4096), 0)
}

type step struct {
	op   spec.Op
	args spec.Args
}

// walScript is a deterministic all-succeeding op sequence covering every
// mutating op kind the journal will see, including the cross-volume
// subtree payloads (OpDetach/OpAttach).
func walScript() []step {
	sub := &spec.SubTree{Kind: spec.KindDir, Children: map[string]*spec.SubTree{
		"inner": {Kind: spec.KindFile, Data: []byte("carried")},
	}}
	return []step{
		{spec.OpMkdir, spec.Args{Path: "/d"}},
		{spec.OpMknod, spec.Args{Path: "/d/f"}},
		{spec.OpWrite, spec.Args{Path: "/d/f", Off: 0, Data: []byte("hello world")}},
		{spec.OpMkdir, spec.Args{Path: "/e"}},
		{spec.OpRename, spec.Args{Path: "/d/f", Path2: "/e/g"}},
		{spec.OpWrite, spec.Args{Path: "/e/g", Off: 5, Data: []byte("-patch")}},
		{spec.OpTruncate, spec.Args{Path: "/e/g", Off: 8}},
		{spec.OpAttach, spec.Args{Path: "/d/moved", Sub: sub}},
		{spec.OpMknod, spec.Args{Path: "/d/moved/sibling"}},
		{spec.OpDetach, spec.Args{Path: "/d/moved"}},
		{spec.OpMkdir, spec.Args{Path: "/d/x"}},
		{spec.OpRmdir, spec.Args{Path: "/d/x"}},
		{spec.OpMknod, spec.Args{Path: "/gone"}},
		{spec.OpUnlink, spec.Args{Path: "/gone"}},
		{spec.OpMkdir, spec.Args{Path: "/tail"}},
	}
}

// goldenKeys returns the reference state key after each prefix of the
// script: goldenKeys()[i] is the state after i ops (index 0 = empty).
func goldenKeys(t *testing.T, script []step) []string {
	t.Helper()
	ref := spec.New()
	keys := []string{ref.Key()}
	for i, s := range script {
		if ret, _ := ref.Apply(s.op, s.args); ret.Err != nil {
			t.Fatalf("golden step %d (%s): %v", i, s.op, ret.Err)
		}
		keys = append(keys, ref.Key())
	}
	return keys
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dev := newDev(t)
	reg := obs.NewRegistry()
	l := NewLog(dev, Config{Obs: reg})
	script := walScript()
	keys := goldenKeys(t, script)

	for i, s := range script {
		tk, err := l.Append(s.op, s.args)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if got := l.DurableSeq(); got != uint64(len(script)) {
		t.Fatalf("durableSeq = %d, want %d", got, len(script))
	}

	afs, info, err := Recover(dev, reg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.LastSeq != uint64(len(script)) || info.Replayed != len(script) || info.CkptSeq != 0 {
		t.Fatalf("info = %+v", info)
	}
	if afs.Key() != keys[len(script)] {
		t.Fatalf("recovered key mismatch:\n%s\n%s", afs.Key(), keys[len(script)])
	}
	if afs.Key() != l.ShadowKey() {
		t.Fatal("recovered state diverges from shadow")
	}
	if reg.Counter("wal_appends_total").Value() != uint64(len(script)) {
		t.Fatal("wal_appends_total not counted")
	}
	if reg.Counter("wal_recoveries_total").Value() != 1 {
		t.Fatal("wal_recoveries_total not counted")
	}
	if reg.Counter("wal_replayed_records_total").Value() != uint64(len(script)) {
		t.Fatal("wal_replayed_records_total not counted")
	}
	if info.String() == "" {
		t.Fatal("empty info string")
	}
}

func TestRecoverEmptyDevice(t *testing.T) {
	afs, info, err := Recover(newDev(t), nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.LastSeq != 0 || info.Replayed != 0 || info.SuperblockVersion != 0 {
		t.Fatalf("info = %+v", info)
	}
	if afs.Key() != spec.New().Key() {
		t.Fatal("empty recovery is not the empty state")
	}
}

func TestNoGroupInlineDurability(t *testing.T) {
	dev := newDev(t)
	l := NewLog(dev, Config{NoGroup: true})
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Durable without any Wait: NoGroup syncs inline.
	if l.DurableSeq() != 1 {
		t.Fatalf("durableSeq = %d, want 1", l.DurableSeq())
	}
	if dev.Syncs() != 1 {
		t.Fatalf("syncs = %d, want 1", dev.Syncs())
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	// A measurable sync latency makes concurrent committers pile up
	// behind the in-flight flush, so the follower batches are real.
	dev := NewDevice(block.NewStore(4096), 2*time.Millisecond)
	reg := obs.NewRegistry()
	l := NewLog(dev, Config{Obs: reg})

	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := string(rune('a'+w)) + string(rune('0'+i))
				tk, err := l.Append(spec.OpMknod, spec.Args{Path: "/" + name})
				if err != nil {
					errs <- err
					return
				}
				if err := tk.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer: %v", err)
	}

	total := int64(writers * perWriter)
	if dev.Syncs() >= total {
		t.Fatalf("group commit did not coalesce: %d syncs for %d records", dev.Syncs(), total)
	}
	if got := l.DurableSeq(); got != uint64(total) {
		t.Fatalf("durableSeq = %d, want %d", got, total)
	}
	if c := reg.Counter("wal_commits_total").Value(); c == 0 || int64(c) != dev.Syncs() {
		t.Fatalf("wal_commits_total = %d, syncs = %d", c, dev.Syncs())
	}
	if b := reg.Counter("wal_batched_records_total").Value(); b != uint64(total) {
		t.Fatalf("wal_batched_records_total = %d, want %d", b, total)
	}

	afs, info, err := Recover(dev, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.LastSeq != uint64(total) {
		t.Fatalf("recovered %d records, want %d", info.LastSeq, total)
	}
	if afs.Key() != l.ShadowKey() {
		t.Fatal("recovered state diverges from shadow")
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dev := newDev(t)
	reg := obs.NewRegistry()
	l := NewLog(dev, Config{CheckpointEvery: 4, Obs: reg})
	script := walScript()
	keys := goldenKeys(t, script)

	for i, s := range script {
		if _, err := l.Append(s.op, s.args); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if reg.Counter("wal_checkpoints_total").Value() == 0 {
		t.Fatal("no automatic checkpoints")
	}
	if err := l.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// A checkpoint makes the whole log durable without any Wait.
	if l.DurableSeq() != uint64(len(script)) {
		t.Fatalf("durableSeq = %d after checkpoint", l.DurableSeq())
	}

	afs, info, err := Recover(dev, reg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.CkptSeq != uint64(len(script)) || info.Replayed != 0 {
		t.Fatalf("info = %+v, want pure-checkpoint recovery", info)
	}
	if info.SuperblockVersion == 0 {
		t.Fatal("no superblock used")
	}
	if afs.Key() != keys[len(script)] {
		t.Fatal("recovered key mismatch after checkpoints")
	}

	// Physical truncation: the device's footprint must stay small even
	// after many more checkpointed records (the pre-checkpoint prefix is
	// returned to the store).
	before := dev.BlocksMapped()
	for i := 0; i < 200; i++ {
		name := "/tail/n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i%7))
		if _, err := l.Append(spec.OpMknod, spec.Args{Path: name}); err != nil {
			// Name collisions would make the shadow reject; keep names unique.
			t.Fatalf("append %d (%s): %v", i, name, err)
		}
	}
	if reg.Counter("wal_truncated_blocks_total").Value() == 0 {
		t.Fatal("checkpoints reclaimed no blocks")
	}
	after := dev.BlocksMapped()
	if after > before+64 {
		t.Fatalf("footprint grew unbounded: %d -> %d blocks", before, after)
	}
	afs2, _, err := Recover(dev, nil)
	if err != nil {
		t.Fatalf("recover after growth: %v", err)
	}
	if afs2.Key() != l.ShadowKey() {
		t.Fatal("post-truncation recovery diverges from shadow")
	}
}

func TestShadowDivergenceRejected(t *testing.T) {
	l := NewLog(newDev(t), Config{})
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"}); err == nil {
		t.Fatal("duplicate mkdir accepted by shadow")
	}
	// The journal itself is not broken by a caller-side divergence.
	if err := l.Broken(); err != nil {
		t.Fatalf("broken: %v", err)
	}
	if _, err := l.Append(spec.OpMknod, spec.Args{Path: "/a/f"}); err != nil {
		t.Fatalf("append after divergence: %v", err)
	}
}

// runToCrash replays the script on a fresh log over dev until the device
// dies (or the script ends), returning the highest seq acknowledged
// durable. ckptEvery exercises crash-during-checkpoint paths.
func runToCrash(t *testing.T, dev *Device, script []step, ckptEvery int) (acked uint64) {
	t.Helper()
	l := NewLog(dev, Config{CheckpointEvery: ckptEvery})
	for _, s := range script {
		tk, err := l.Append(s.op, s.args)
		if err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("append: %v", err)
			}
			return acked
		}
		if err := tk.Wait(); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("wait: %v", err)
			}
			return acked
		}
		acked = tk.seq
	}
	return acked
}

// TestCrashEveryByte is the exhaustive single-package crash sweep: for
// every cumulative write-stream offset k (every possible torn point,
// including mid-record, post-append/pre-flush, mid-checkpoint and
// mid-superblock cuts), crash the run at k and require recovery to land
// in a golden prefix state no older than what was acknowledged durable.
func TestCrashEveryByte(t *testing.T) {
	script := walScript()
	keys := goldenKeys(t, script)
	for _, ckptEvery := range []int{0, 3} {
		// Dry run to learn the write extent.
		dry := newDev(t)
		runToCrash(t, dry, script, ckptEvery)
		total := dry.Written()
		if total == 0 {
			t.Fatal("dry run wrote nothing")
		}
		for k := int64(0); k <= total; k++ {
			dev := newDev(t)
			dev.CrashAt(k)
			acked := runToCrash(t, dev, script, ckptEvery)
			afs, info, err := Recover(dev, nil)
			if err != nil {
				t.Fatalf("ckptEvery=%d crash=%d: recover: %v", ckptEvery, k, err)
			}
			if info.LastSeq < acked {
				t.Fatalf("ckptEvery=%d crash=%d: durability violation: acked seq %d, recovered seq %d",
					ckptEvery, k, acked, info.LastSeq)
			}
			if int(info.LastSeq) >= len(keys) {
				t.Fatalf("ckptEvery=%d crash=%d: recovered impossible seq %d", ckptEvery, k, info.LastSeq)
			}
			if afs.Key() != keys[info.LastSeq] {
				t.Fatalf("ckptEvery=%d crash=%d: recovered state is not the seq-%d golden prefix",
					ckptEvery, k, info.LastSeq)
			}
		}
	}
}

func TestDeviceCrashSemantics(t *testing.T) {
	dev := newDev(t)
	dev.CrashAt(5)
	if err := dev.WriteAt(0, []byte("abc")); err != nil {
		t.Fatalf("pre-crash write: %v", err)
	}
	// This write crosses the boundary: 2 bytes survive, then ErrCrashed.
	if err := dev.WriteAt(3, []byte("defg")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crossing write: %v", err)
	}
	if !dev.Crashed() {
		t.Fatal("not crashed")
	}
	if err := dev.WriteAt(100, []byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatal("post-crash write accepted")
	}
	if err := dev.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatal("post-crash sync accepted")
	}
	// Reads still work and see exactly the surviving prefix.
	got := make([]byte, 8)
	if err := dev.ReadAt(0, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got[:5]) != "abcde" || got[5] != 0 || got[6] != 0 {
		t.Fatalf("surviving bytes = %q", got)
	}
	if dev.Written() != 5 {
		t.Fatalf("written = %d", dev.Written())
	}
	if len(dev.Marks()) != 2 {
		t.Fatalf("marks = %v", dev.Marks())
	}
}

// TestDeviceMarksCapped: a device keeps marks for its first maxMarks
// writes only, so a long-lived journal's crash-model bookkeeping stays
// bounded; the earlier marks are unchanged and Written keeps counting.
func TestDeviceMarksCapped(t *testing.T) {
	dev := newDev(t)
	for i := 0; i < maxMarks+100; i++ {
		if err := dev.WriteAt(int64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	marks := dev.Marks()
	if len(marks) != maxMarks {
		t.Fatalf("recorded %d marks, want the cap %d", len(marks), maxMarks)
	}
	if marks[0] != 1 || marks[maxMarks-1] != maxMarks {
		t.Fatalf("marks = [%d ... %d], want [1 ... %d]", marks[0], marks[maxMarks-1], maxMarks)
	}
	if got := dev.Written(); got != maxMarks+100 {
		t.Fatalf("written = %d, want %d", got, maxMarks+100)
	}
}

func TestDeviceTruncateRange(t *testing.T) {
	dev := newDev(t)
	buf := make([]byte, 3*block.Size)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := dev.WriteAt(0, buf); err != nil {
		t.Fatal(err)
	}
	if dev.BlocksMapped() != 3 {
		t.Fatalf("mapped = %d", dev.BlocksMapped())
	}
	// Partial coverage frees nothing; whole blocks are reclaimed.
	if n := dev.TruncateRange(1, block.Size+1); n != 0 {
		t.Fatalf("partial range freed %d", n)
	}
	if n := dev.TruncateRange(block.Size, 3*block.Size); n != 2 {
		t.Fatalf("freed %d, want 2", n)
	}
	if dev.BlocksMapped() != 1 {
		t.Fatalf("mapped = %d after truncate", dev.BlocksMapped())
	}
	// Truncated ranges read as zero.
	got := make([]byte, 4)
	if err := dev.ReadAt(block.Size, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[3] != 0 {
		t.Fatalf("truncated read = %v", got)
	}
	if dev.String() == "" {
		t.Fatal("empty String")
	}
}

func TestDeviceReproducible(t *testing.T) {
	run := func() uint64 {
		dev := newDev(t)
		l := NewLog(dev, Config{CheckpointEvery: 4})
		for _, s := range walScript() {
			if _, err := l.Append(s.op, s.args); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		return dev.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs fingerprint differently: %#x vs %#x", a, b)
	}
}

func TestZeroTicketWait(t *testing.T) {
	var tk Ticket
	if err := tk.Wait(); err != nil {
		t.Fatalf("zero ticket: %v", err)
	}
}

func TestBrokenLogRejectsAppends(t *testing.T) {
	dev := newDev(t)
	dev.CrashAt(0)
	l := NewLog(dev, Config{})
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append on dead device: %v", err)
	}
	if err := l.Broken(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("broken not latched: %v", err)
	}
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/b"}); !errors.Is(err, ErrCrashed) {
		t.Fatal("append after broken accepted")
	}
	if err := l.CheckpointNow(); !errors.Is(err, ErrCrashed) {
		t.Fatal("checkpoint after broken accepted")
	}
}
