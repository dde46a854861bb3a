// The flight recorder: a bounded, per-thread-sharded ring buffer of
// structured events. Every instrumented layer emits fixed-size events
// (no pointers, no strings — zero allocation) tagged with a global
// sequence number, so a merged dump is totally ordered consistently with
// causality: if event A happened-before event B, A's sequence is lower.
//
// The recorder is the runtime analogue of reading the proof's ghost
// state after a failed obligation: when the CRL-H monitor records a
// violation it snapshots these rings, producing the event log of what
// every involved thread was doing around the violation (lock coupling
// steps, fast-path validations, helper linearizations) instead of just a
// verdict.

package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// EventKind classifies a flight-recorder event. DESIGN.md §8 maps each
// class to the paper mechanism it witnesses.
type EventKind uint8

// Event kinds.
const (
	// EvOpBegin / EvOpEnd bracket one file system operation (sampled on
	// read-only fast paths; always present for mutators). Aux of EvOpEnd
	// is the operation latency in nanoseconds.
	EvOpBegin EventKind = iota + 1
	EvOpEnd
	// EvLockAcq / EvLockRel are lock-coupling steps: Ino is the inode,
	// Aux of EvLockAcq is the wait time in nanoseconds, Aux of EvLockRel
	// the hold time.
	EvLockAcq
	EvLockRel
	// EvFastHit / EvFastFallback trace the lockless read fast path.
	EvFastHit
	EvFastFallback
	// EvHelp is an external linearization: Tid's Aop was executed by the
	// helper thread in Aux at a rename's LP (the linothers primitive).
	EvHelp
	// EvLPCommit is any Aop execution on the abstract state (fixed LP,
	// validated fast-path LP, or helped); Aux is the helper tid.
	EvLPCommit
	// EvRollback is a relaxed abstraction-relation check: Aux is the
	// number of helped-pending effects rolled back (the rollback depth).
	EvRollback
	// EvViolation is a monitor violation; Aux is the ViolationKind.
	EvViolation
	// EvAbort is a pre-LP cancellation: the thread's context was done,
	// TryAbort succeeded, and the operation will unwind without an Aop.
	// Aux is the number of locks held at the abort decision (all of which
	// must be released before the op ends).
	EvAbort
	// EvFuseQueue / EvFuseDispatch / EvFuseReply trace one request
	// through the daemon: queued off the wire, dispatched to a handler
	// goroutine, reply written. Aux is the request id.
	EvFuseQueue
	EvFuseDispatch
	EvFuseReply
	// EvAbortRefused is a cancellation that arrived too late: the
	// thread observed its context done but TryAbort found the LP
	// already committed (fixed, validated, or helped), so the operation
	// latched committed and ran to its linearized result. The event is
	// the witness of the "dual rule" side of cancellation-vs-helping —
	// and a prime coverage signal for the schedule fuzzer, which hunts
	// exactly these helped-then-cancelled interleavings.
	EvAbortRefused
	// EvPrefixHit is a write-path walk admitted at a prefix-cache entry
	// inode (Ino): the stamped detach generations validated under the
	// entry lock and lock coupling started there instead of at the root.
	// Aux is the number of couplings skipped (the cached chain depth).
	EvPrefixHit
	// EvPrefixFallback is a prefix-cache miss or refused entry: the walk
	// fell back to root lock coupling. Aux is 0 for a plain miss (no
	// cached ancestor) and 1 for a validation/monitor refusal at the
	// entry inode.
	EvPrefixFallback
	// EvPrefixInval is a stale prefix entry discarded because a stamped
	// detach generation moved (Ino is the entry inode) — the witness of
	// a rename/unlink racing a shortcut, and a prime coverage signal for
	// the schedule fuzzer.
	EvPrefixInval
)

var eventKindNames = [...]string{
	EvOpBegin: "op-begin", EvOpEnd: "op-end",
	EvLockAcq: "lock-acq", EvLockRel: "lock-rel",
	EvFastHit: "fast-hit", EvFastFallback: "fast-fallback",
	EvHelp: "help", EvLPCommit: "lp-commit", EvRollback: "rollback",
	EvViolation: "violation", EvAbort: "abort", EvAbortRefused: "abort-refused",
	EvFuseQueue: "fuse-queue", EvFuseDispatch: "fuse-dispatch", EvFuseReply: "fuse-reply",
	EvPrefixHit: "prefix-hit", EvPrefixFallback: "prefix-fallback", EvPrefixInval: "prefix-inval",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one flight-recorder record. Fixed size, no pointers: emitting
// one never allocates. Op is a spec.Op value (kept as a raw uint8 so obs
// stays decoupled from the spec package's types).
type Event struct {
	Seq    uint64 // global order, consistent with causality
	TimeNs int64  // wall clock, for human dumps (Seq is the real order)
	Tid    uint64 // operation/thread id (fuse request id at that layer)
	Ino    uint64 // inode, when meaningful
	Aux    uint64 // kind-specific payload (latencies, helper tid, ...)
	Kind   EventKind
	Op     uint8
}

// OpNamer renders an Event.Op for dumps. The atomfs/core layers pass
// spec.Op's String; a nil namer prints the raw value.
type OpNamer func(op uint8) string

// Format renders the event as one dump line.
func (e Event) Format(name OpNamer) string {
	op := fmt.Sprintf("op(%d)", e.Op)
	if name != nil {
		op = name(e.Op)
	}
	return fmt.Sprintf("#%d %s t%d %s ino=%d aux=%d t=%s",
		e.Seq, e.Kind, e.Tid, op, e.Ino, e.Aux,
		time.Unix(0, e.TimeNs).UTC().Format("15:04:05.000000"))
}

const (
	// nRings shards the recorder by thread id; power of two.
	nRings = 64
	// DefaultRingSize is events retained per ring.
	DefaultRingSize = 1024
)

// FlightRecorder is the sharded event ring set. A nil *FlightRecorder
// ignores all emissions and snapshots empty.
type FlightRecorder struct {
	seq  uint64pad
	ring [nRings]eventRing
}

type eventRing struct {
	mu  sync.Mutex
	buf []Event
	pos uint64 // total events ever appended to this ring
	_   [40]byte
}

// NewFlightRecorder creates a recorder retaining perThread events per
// ring (rounded up to at least 8).
func NewFlightRecorder(perThread int) *FlightRecorder {
	if perThread < 8 {
		perThread = 8
	}
	r := &FlightRecorder{}
	for i := range r.ring {
		r.ring[i].buf = make([]Event, perThread)
	}
	return r
}

// Emit records an event, stamping it with the current time.
func (r *FlightRecorder) Emit(tid uint64, kind EventKind, op uint8, ino, aux uint64) {
	if r == nil {
		return
	}
	r.EmitAt(time.Now().UnixNano(), tid, kind, op, ino, aux)
}

// EmitAt records an event with a caller-supplied timestamp — layers that
// already read the clock for latency accounting pass it through so an
// event costs no extra clock call.
func (r *FlightRecorder) EmitAt(nowNs int64, tid uint64, kind EventKind, op uint8, ino, aux uint64) {
	if r == nil {
		return
	}
	seq := r.seq.v.Add(1)
	rg := &r.ring[tid&(nRings-1)]
	rg.mu.Lock()
	rg.buf[rg.pos%uint64(len(rg.buf))] = Event{
		Seq: seq, TimeNs: nowNs, Tid: tid, Ino: ino, Aux: aux, Kind: kind, Op: op,
	}
	rg.pos++
	rg.mu.Unlock()
}

// Snapshot returns every retained event across all rings, ordered by
// sequence number. Safe to call concurrently with emissions (each ring
// is copied under its lock; the merge sees a consistent suffix of every
// thread's history).
func (r *FlightRecorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var all []Event
	for i := range r.ring {
		rg := &r.ring[i]
		rg.mu.Lock()
		n := rg.pos
		size := uint64(len(rg.buf))
		start := uint64(0)
		if n > size {
			start = n - size
		}
		for p := start; p < n; p++ {
			all = append(all, rg.buf[p%size])
		}
		rg.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// SnapshotTids returns the ordered events of the given threads only —
// the monitor uses it to dump every thread involved in a violation.
func (r *FlightRecorder) SnapshotTids(tids map[uint64]bool) []Event {
	all := r.Snapshot()
	if len(tids) == 0 {
		return all
	}
	out := all[:0]
	for _, e := range all {
		if tids[e.Tid] {
			out = append(out, e)
		}
	}
	return out
}

// WriteEvents renders events one per line.
func WriteEvents(w io.Writer, events []Event, name OpNamer) {
	for _, e := range events {
		fmt.Fprintln(w, e.Format(name))
	}
}
