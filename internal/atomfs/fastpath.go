package atomfs

// The lockless read fast path (WithEpoch): an RCU-walk-style traversal
// in the spirit of Linux's rcu-walk + rename_lock, adapted to AtomFS and
// to the CRL-H verification story. Stat, Read and Readdir:
//
//  1. pin the reclamation epoch (one load + one store into the reader's
//     own padded record; internal/epoch explains why no CAS or
//     revalidation is needed). The pin contributes MEMORY SAFETY only —
//     nothing the walk touches can be reclaimed while pinned — never
//     consistency;
//  2. take ONE load of the namespace mutation counter (fs.mseq, bumped
//     inside the critical section of every ins/del/rename). Odd means a
//     writer is in flight: fall back at once (fallWriterInFlight) rather
//     than spin it out, so an attempt's entry cost is bounded by the load;
//  3. walk with no locks at all — every shared load along the way
//     (directory bucket heads, entry next pointers) is atomic, and
//     dir.Table's RCU-hlist discipline guarantees each lookup sees either
//     a fully published entry or none — optionally entering at the
//     deepest prefix-cache ancestor validated by generation stamps alone;
//  4. on a walk error, linearize the error at a validation of the counter
//     alone: unchanged means no namespace mutation's critical section
//     overlapped the walk, so the walk was equivalent to an atomic
//     snapshot;
//  5. on reaching the target, lock ONLY the target inode and re-validate
//     — Write/Truncate mutate file content under the inode lock without
//     bumping the counter, so the terminal lock is what rules out torn
//     data, and once validated under it any later unlink orders entirely
//     after us;
//  6. read the result under that lock and linearize at one final-instant
//     validation — under the monitor this is Session.ReadEpochEntry,
//     which replays the observed path against the abstract tree and
//     raises ViolEpoch if a passing validation ever disagrees with it;
//  7. any failed validation abandons the attempt and the operation runs
//     the unchanged lock-coupled slow path (a single fallback, no retry
//     loop: under heavy mutation the slow path's progress guarantee is
//     the better one).
//
// The fast path acquires locks in the order [target inode] then [monitor
// internals]; mutators acquire [inode locks] then [seqMu] then [monitor
// internals]. Neither order cycles with the other because the fast path
// holds exactly one inode lock and never seqMu.

import (
	"repro/internal/fserr"
	"repro/internal/spec"
)

// Fast-path fallback reasons (op.fallReason), exported per-reason by the
// obs layer: which validation sent the attempt to the slow path.
const (
	fallNone = iota
	// fallWriterInFlight: the single sequence load observed an open
	// write section.
	fallWriterInFlight
	// fallWalkValidate: the lock-free walk errored and the error result
	// could not be linearized (counter moved during the walk).
	fallWalkValidate
	// fallLockValidate: the counter moved between the snapshot and the
	// target-lock acquisition.
	fallLockValidate
	// fallLPValidate: the final validation LP failed — counter moved
	// while reading the result, or the monitor refused (helplist).
	fallLPValidate

	nFallReasons
)

// fallReasonNames labels the obs per-reason fallback counters.
var fallReasonNames = [nFallReasons]string{
	fallWriterInFlight: "writer-inflight",
	fallWalkValidate:   "walk-validate",
	fallLockValidate:   "lock-validate",
	fallLPValidate:     "lp-validate",
}

// Adaptive fast-path veto (fig10 fix): after fastStreakLimit consecutive
// fallbacks — a write-dominated mix where every attempt is pure entry
// cost — the next fastVetoWindow reads skip the fast path entirely and
// go straight to the coupled walk. Any hit resets the streak; the window
// keeps the probe rate at one attempt per 256 reads while the mix stays
// hostile, so the fast path re-engages within a window of the writes
// letting up.
const (
	fastStreakLimit = 8
	fastVetoWindow  = 256
)

// fastAdmit decides whether this read attempts the fast path or burns a
// veto token. Vetoed reads count in neither hits nor fallbacks (their
// own counter keeps the accounting honest).
func (o *op) fastAdmit() bool {
	fs := o.fs
	for {
		v := fs.fastVeto.Load()
		if v <= 0 {
			return true
		}
		if fs.fastVeto.CompareAndSwap(v, v-1) {
			fs.fastVetoed.Add(1)
			return false
		}
	}
}

// lpValidated attempts to linearize the read-only operation at a validation
// of the sequence snapshot. Unmonitored, the validation itself is the
// linearization point; monitored, the session re-evaluates it inside the
// monitor's atomic block and applies the Aop there.
func (o *op) lpValidated(seq uint64) bool {
	if o.s == nil {
		return o.fs.mseq.Validate(seq)
	}
	fs := o.fs
	return o.s.LPValidated(func() bool { return fs.mseq.Validate(seq) })
}

// epochSkipFinalCheckForTest disables the epoch read's final-instant
// sequence validation — the deliberate protocol break of the ViolEpoch
// negative control. The monitor must then catch the divergence by
// abstract replay; never set outside tests.
var epochSkipFinalCheckForTest = false

// fastTry runs one fast-path attempt (steps 1-7 above): result runs
// with the target locked and the snapshot already validated once, so
// node content (data blocks, directory tables) is stable and
// mutex-synchronized. ok=false means the caller must fall back to the
// slow path; ret is only meaningful when ok.
func (o *op) fastTry(parts []string, result func(n *node) spec.Ret) (ret spec.Ret, ok bool) {
	fs := o.fs
	o.fallReason = fallNone
	h := fs.erecs.Get().(*recHandle)
	rec := h.rec
	o.fire(HookEpochPin, "", 0)
	rec.Pin(fs.edom)
	defer func() {
		rec.Unpin()
		o.fire(HookEpochUnpin, "", 0)
		fs.erecs.Put(h)
	}()
	o.fire(HookFastSnap, "", 0)
	seq, even := fs.mseq.Current()
	if !even {
		o.fallReason = fallWriterInFlight
		return spec.Ret{}, false
	}
	o.fire(HookFastWalk, "", 0)
	n, steps, err := o.fastWalk(parts)
	if p := fs.obs; p != nil && o.traced && steps > 0 {
		p.rcuWalkSteps.Add(uint64(steps))
	}
	if err != nil {
		// No lock held: the error linearizes at the validation alone
		// (LPValidated — there is no terminal node to replay a kind for).
		o.fire(HookFastLP, "", 0)
		if o.lpValidated(seq) {
			return spec.ErrRet(err), true
		}
		o.fallReason = fallWalkValidate
		return spec.Ret{}, false
	}
	o.fire(HookFastLock, "", n.ino)
	n.lk.Lock(o.tid)
	if !fs.mseq.Validate(seq) {
		n.lk.Unlock(o.tid)
		o.fire(HookFastUnlock, "", n.ino)
		o.fallReason = fallLockValidate
		return spec.Ret{}, false
	}
	ret = result(n)
	kind := n.kind
	o.fire(HookFastLP, "", 0)
	ok = o.lpEpoch(parts, kind, seq)
	n.lk.Unlock(o.tid)
	o.fire(HookFastUnlock, "", n.ino)
	if !ok {
		o.fallReason = fallLPValidate
		return spec.Ret{}, false
	}
	return ret, true
}

// fastWalk resolves parts lock-free under the caller's epoch pin,
// entering at the deepest prefix-cache ancestor when one validates, and
// reports how many lock-free lookups it made (the caller accounts them
// in one add; dir.Lookup itself is too hot to count per component).
// Unlike the write path's traversePrefix, the entry takes NO lock and
// tells the monitor nothing: consistency is wholly discharged by the
// final-instant validation (a chain detached before the sequence
// snapshot fails its generation check here; one detached after it fails
// the snapshot validation at the LP). Error precedence mirrors the slow
// path's stepKeeping: a non-directory on the path reports ErrNotDir
// before a missing entry reports ErrNotExist.
func (o *op) fastWalk(parts []string) (n *node, steps int, err error) {
	fs := o.fs
	cur := fs.root
	if fs.prefix && len(parts) > 0 {
		o.fire(HookPrefixLookup, "", 0)
		if ent := fs.prefixLookup(parts); ent != nil {
			k := len(ent.names)
			cur = ent.nodes[k]
			parts = parts[k:]
			fs.prefixHits.Add(1)
			if p := fs.obs; p != nil {
				p.prefixHit(o, cur.ino, k)
			}
		} else {
			fs.prefixMisses.Add(1)
		}
	}
	for _, name := range parts {
		if cur.kind != spec.KindDir {
			return nil, steps, fserr.ErrNotDir
		}
		steps++
		child, ok := cur.dir.Lookup(name)
		if !ok {
			return nil, steps, fserr.ErrNotExist
		}
		cur = child
	}
	return cur, steps, nil
}

// lpEpoch linearizes the epoch read at its final-instant validation.
// Unmonitored, the validation is the LP; monitored, ReadEpochEntry
// re-evaluates it inside the monitor's atomic block and checks the
// observed path (with its terminal kind) against the abstract tree.
func (o *op) lpEpoch(parts []string, kind spec.Kind, seq uint64) bool {
	fs := o.fs
	validate := func() bool {
		if epochSkipFinalCheckForTest {
			return true
		}
		return fs.mseq.Validate(seq)
	}
	if o.s == nil {
		return validate()
	}
	return o.s.ReadEpochEntry(parts, kind, validate)
}

// fastStat is Stat's fast path.
func (o *op) fastStat(parts []string) (spec.Ret, bool) {
	return o.fastTry(parts, func(n *node) spec.Ret {
		ret := spec.Ret{Kind: n.kind}
		if n.kind == spec.KindFile {
			ret.Size = n.data.Size()
		} else {
			ret.Size = int64(n.dir.Len())
		}
		return ret
	})
}

// fastRead is Read's fast path. It fills the caller's dst buffer — the
// zero-allocation property of the hot read path depends on this: the
// validated seqlock protocol makes it safe to copy file bytes straight
// into caller memory, because a failed validation discards the result
// before it is returned.
func (o *op) fastRead(parts []string, off int64, dst []byte) (spec.Ret, bool) {
	return o.fastTry(parts, func(n *node) spec.Ret {
		if n.kind == spec.KindDir {
			return spec.ErrRet(fserr.ErrIsDir)
		}
		rn, _ := n.data.ReadAt(dst, off)
		return spec.Ret{Data: dst[:rn:rn], N: rn}
	})
}

// fastReaddir is Readdir's fast path.
func (o *op) fastReaddir(parts []string) (spec.Ret, bool) {
	return o.fastTry(parts, func(n *node) spec.Ret {
		if n.kind != spec.KindDir {
			return spec.ErrRet(fserr.ErrNotDir)
		}
		return spec.Ret{Names: n.dir.Names()}
	})
}
