package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderOrder(t *testing.T) {
	r := NewFlightRecorder(64)
	for i := 0; i < 10; i++ {
		r.EmitAt(int64(1000+i), uint64(i%3), EvOpBegin, 1, 0, uint64(i))
	}
	ev := r.Snapshot()
	if len(ev) != 10 {
		t.Fatalf("Snapshot len = %d, want 10", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("events not Seq-ordered: %d then %d", ev[i-1].Seq, ev[i].Seq)
		}
	}
}

// TestFlightRecorderWraparound overflows a small ring and checks that the
// survivors are exactly the newest events, still in global order.
func TestFlightRecorderWraparound(t *testing.T) {
	const ringSize = 8
	r := NewFlightRecorder(ringSize)
	const tid = 5 // single ring: wraparound is deterministic
	const n = 100
	for i := 0; i < n; i++ {
		r.EmitAt(int64(i), tid, EvOpEnd, 2, 0, uint64(i))
	}
	ev := r.Snapshot()
	if len(ev) != ringSize {
		t.Fatalf("Snapshot len = %d, want ring size %d", len(ev), ringSize)
	}
	// The ring keeps the last ringSize events: aux n-ringSize .. n-1.
	for i, e := range ev {
		want := uint64(n - ringSize + i)
		if e.Aux != want {
			t.Fatalf("event %d: Aux = %d, want %d (oldest overwritten first)", i, e.Aux, want)
		}
	}
}

func TestFlightRecorderSnapshotTids(t *testing.T) {
	r := NewFlightRecorder(64)
	for i := 0; i < 30; i++ {
		r.Emit(uint64(i%3), EvLockAcq, 0, uint64(i), 0)
	}
	only := r.SnapshotTids(map[uint64]bool{1: true})
	if len(only) != 10 {
		t.Fatalf("filtered snapshot len = %d, want 10", len(only))
	}
	for _, e := range only {
		if e.Tid != 1 {
			t.Fatalf("filtered snapshot leaked tid %d", e.Tid)
		}
	}
}

// TestFlightRecorderRace emits from many goroutines while snapshotting:
// -race clean, and the global sequence stays strictly increasing.
func TestFlightRecorderRace(t *testing.T) {
	r := NewFlightRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Emit(tid, EvFastHit, 3, 0, uint64(i))
			}
		}(uint64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ev := r.Snapshot()
			for j := 1; j < len(ev); j++ {
				if ev[j].Seq <= ev[j-1].Seq {
					t.Errorf("unordered snapshot under concurrency")
					return
				}
			}
		}
	}()
	wg.Wait()
}

func TestWriteEvents(t *testing.T) {
	r := NewFlightRecorder(16)
	r.EmitAt(42, 7, EvFastFallback, 5, 0, 3)
	var buf bytes.Buffer
	WriteEvents(&buf, r.Snapshot(), func(op uint8) string { return "stat" })
	out := buf.String()
	if !strings.Contains(out, "fast-fallback") || !strings.Contains(out, "stat") {
		t.Fatalf("WriteEvents output missing kind or op name:\n%s", out)
	}
}
