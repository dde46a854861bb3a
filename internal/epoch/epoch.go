// Package epoch implements epoch-based reclamation (EBR) for the
// lockless read structures of atomfs.
//
// The problem it solves: a reader walking the directory tree without
// locks can stand on a node that a concurrent unlink just detached. In
// a GC-less setting the unlinker must not free (or recycle the blocks
// of) that node while such a reader exists; in this repository the
// concrete hazard is block reuse — file.Data.Release returns a freed
// node's blocks to the ramdisk allocator, after which another file's
// writes would be visible through a stale pointer. EBR defers the free
// until every reader that could possibly hold the pointer is provably
// gone, without readers taking locks or performing CAS.
//
// Protocol:
//
//   - The Domain holds a global epoch counter. Readers Pin a Record on
//     fast-path entry: one load of the global epoch and one store into
//     the reader's own cache-line-padded record — no CAS, no shared
//     write contention. Unpin stores zero.
//   - Writers Retire detached items (a closure that performs the
//     deferred free) into the limbo bucket of the current epoch. Three
//     buckets suffice because at most three consecutive epochs can have
//     unfreed garbage at once.
//   - TryAdvance — driven from the write path's unlock, bounded, never
//     blocking — moves the global epoch from E to E+1 when every active
//     record is pinned at E, then frees the bucket retired in E-1:
//     entering E+1 is the second grace period for those items.
//
// Why two grace periods suffice: an item is unlinked from the structure
// (RCU-style: readers that start later cannot reach it) before it is
// retired in epoch R. A reader that could still hold the pointer must
// have begun — pinned — before the unlink, so it is pinned at an epoch
// ≤ R. The advance R→R+1 observed every active record pinned at R (or
// idle), and the advance R+1→R+2 observed every active record pinned at
// R+1 (or idle); a reader pinned at ≤ R blocks both until it unpins.
// Hence at entry to R+2 no reader from the item's lifetime survives,
// and the bucket retired in R can be freed.
//
// The pin itself needs no validation loop: if the global advances
// between the reader's load and its store, the record is merely pinned
// at a stale (smaller) epoch, which blocks future advances — a
// conservative error. The reader's walk starts after the store, and
// every item already freed by then was unlinked strictly earlier, so
// the walk cannot reach it through the structure.
package epoch

import (
	"sync"
	"sync/atomic"
)

// Record is one reader's epoch slot. Records are cache-line padded so a
// reader's pin store never contends with another reader's — the sharded,
// per-P layout the fast path's cost model assumes. A Record belongs to
// the Domain that Registered it and must not be shared by concurrent
// readers (callers pool them per operation).
type Record struct {
	_     [64]byte
	state atomic.Uint64 // 0 = quiescent; otherwise the pinned epoch
	pins  atomic.Uint64 // lifetime pin count (stats; owner-local, uncontended)
	_     [64]byte
}

// Pin marks the reader active at the current global epoch: one load
// plus one store into the reader's own line. See the package comment
// for why no load-store validation loop is needed.
func (r *Record) Pin(d *Domain) {
	r.pins.Add(1)
	r.state.Store(d.global.Load())
}

// Unpin marks the reader quiescent.
func (r *Record) Unpin() {
	r.state.Store(0)
}

// Domain is one reclamation domain: the global epoch, the registered
// reader records, and the per-epoch limbo buckets.
type Domain struct {
	global  atomic.Uint64
	pending atomic.Int64 // retired, not yet freed (fast empty check)

	retired  atomic.Uint64
	freed    atomic.Uint64
	advances atomic.Uint64
	stalls   atomic.Uint64 // advance attempts blocked by a straggling pin

	mu      sync.Mutex
	records []*Record
	spare   []*Record // unregistered records, quiescent, awaiting reuse
	// limbo[e%3] holds the deferred frees retired during epoch e. Three
	// buckets are enough: garbage can only exist for the current epoch
	// and the two before it (older buckets were freed by the advance
	// that left them behind), and three consecutive epochs occupy three
	// distinct residues mod 3.
	limbo [3][]func()
	// backlog holds frees whose grace periods have both elapsed but that
	// have not run yet: an advance moves its bucket here instead of
	// running it inline, and each TryAdvance call pops at most freeBatch
	// of them. This bounds the work any single write-path unlock does —
	// without it, one unlucky mutation pays for an entire epoch's
	// garbage at once (multi-millisecond p99 spikes on the read-mostly
	// benchmark).
	backlog []func()
}

// freeBatch caps the deferred frees run by one TryAdvance call. Each
// free is a block release plus a registry delete (~1µs), so the cap
// bounds a mutation's reclamation tax at roughly a hundred µs while
// still out-pacing the retire rate (a mutation retires at most a few
// items but may pop a full batch).
const freeBatch = 128

// NewDomain creates an empty domain at epoch 1.
func NewDomain() *Domain {
	d := &Domain{}
	d.global.Store(1)
	return d
}

// Register hands out a padded Record in the domain: one returned by
// Unregister if any, else a new one. Callers bound the count by pooling
// (one per concurrent reader at peak, not one per operation) and by
// returning the records their pool drops.
func (d *Domain) Register() *Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.spare); n > 0 {
		r := d.spare[n-1]
		d.spare = d.spare[:n-1]
		return r
	}
	r := &Record{}
	d.records = append(d.records, r)
	return r
}

// Unregister gives back a quiescent record for a later Register to reuse.
// It stays in the advance scan (unpinned, so it never blocks an advance),
// which keeps that scan lock-free of list surgery.
func (d *Domain) Unregister(r *Record) {
	d.mu.Lock()
	d.spare = append(d.spare, r)
	d.mu.Unlock()
}

// Epoch returns the current global epoch.
func (d *Domain) Epoch() uint64 { return d.global.Load() }

// Retire defers free until two grace periods have passed. free runs on
// whichever goroutine's TryAdvance collects the bucket; it must not
// call back into the Domain. The bucket push is serialized with
// advances by d.mu, so an item always lands in the bucket of the epoch
// whose advance rules will protect it.
func (d *Domain) Retire(free func()) {
	d.mu.Lock()
	e := d.global.Load()
	d.limbo[e%3] = append(d.limbo[e%3], free)
	d.mu.Unlock()
	d.retired.Add(1)
	d.pending.Add(1)
}

// TryAdvance attempts one epoch advance and reclaims part of the
// garbage whose second grace period has elapsed. It is bounded and
// non-blocking: one atomic emptiness check, a TryLock (advancers never
// queue behind each other), a single scan of the registered records,
// and at most freeBatch deferred frees — an advance moves its matured
// bucket onto the backlog rather than paying for all of it inline, and
// later calls (including stalled ones) keep popping batches until the
// backlog empties. It reports how many deferred frees ran and whether
// the epoch moved; (0, false) means the limbo and backlog were empty,
// the lock was busy, or a straggling reader is pinned at an older epoch
// with nothing matured to free.
func (d *Domain) TryAdvance() (freed int, advanced bool) {
	if d.pending.Load() == 0 {
		return 0, false
	}
	if !d.mu.TryLock() {
		return 0, false
	}
	e := d.global.Load()
	stalled := false
	for _, r := range d.records {
		if s := r.state.Load(); s != 0 && s < e {
			stalled = true
			break
		}
	}
	if !stalled {
		next := e + 1
		d.global.Store(next)
		d.advances.Add(1)
		// Entering epoch next matures the bucket retired in next-2;
		// its residue is (next+1)%3.
		idx := (next + 1) % 3
		d.backlog = append(d.backlog, d.limbo[idx]...)
		d.limbo[idx] = nil
	}
	// Pop a bounded batch of matured frees — even on a stall: items on
	// the backlog already survived both grace periods, so a straggling
	// pin does not protect them.
	n := len(d.backlog)
	if n > freeBatch {
		n = freeBatch
	}
	fns := d.backlog[:n]
	d.backlog = d.backlog[n:]
	d.mu.Unlock()
	if stalled {
		d.stalls.Add(1)
	}
	for i, f := range fns {
		f()
		fns[i] = nil // release the closure; the backing array may live on
	}
	if n > 0 {
		d.freed.Add(uint64(n))
		d.pending.Add(int64(-n))
	}
	return n, !stalled
}

// Drain advances repeatedly until the limbo and backlog empty or a
// pinned reader blocks progress with nothing left to free, returning
// the number of frees run. Teardown and test helper; the hot path only
// ever calls TryAdvance.
func (d *Domain) Drain() int {
	total := 0
	for d.pending.Load() > 0 {
		n, ok := d.TryAdvance()
		total += n
		if !ok && n == 0 {
			break
		}
	}
	return total
}

// Stats is a point-in-time snapshot of the domain's activity.
type Stats struct {
	Epoch    uint64 // current global epoch
	Pins     uint64 // lifetime reader pins across all records
	Retired  uint64 // items ever retired
	Freed    uint64 // deferred frees that have run
	Advances uint64 // successful epoch advances
	Stalls   uint64 // advance attempts blocked by a straggling pin
	Limbo    int    // retired items not yet freed
	Records  int    // registered reader records
}

// Stats snapshots the domain.
func (d *Domain) Stats() Stats {
	s := Stats{
		Epoch:    d.global.Load(),
		Retired:  d.retired.Load(),
		Freed:    d.freed.Load(),
		Advances: d.advances.Load(),
		Stalls:   d.stalls.Load(),
		Limbo:    int(d.pending.Load()),
	}
	d.mu.Lock()
	s.Records = len(d.records)
	for _, r := range d.records {
		s.Pins += r.pins.Load()
	}
	d.mu.Unlock()
	return s
}
