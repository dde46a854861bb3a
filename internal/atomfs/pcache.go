// Prefix cache: the write-path analogue of the lockless read path, in the
// style of Linux's ref-walk/rcu-walk split. A resolved directory chain
// root → a → b → c is cached with each node's detach generation stamped
// at the moment that node's lock was held during a coupled walk. A later
// walk to /a/b/c/f looks up the deepest cached ancestor, locks that
// inode directly — its first and only acquisition, so deadlock freedom
// is untouched — and validates every stamp under the lock (through the
// monitor's ShortcutEntry when monitored, so the skipped couplings are
// synthesized into the ghost LockPath). Any moved generation means some
// chain node was detached since stamping; the walk falls back to the
// root and the stale entry is discarded. See DESIGN.md §11.

package atomfs

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
)

// pentry is one cached prefix chain. names resolve from the root;
// nodes[i] is the inode reached by names[:i] (so nodes[0] is the root
// and len(nodes) == len(names)+1); gens[i] is nodes[i]'s detach
// generation stamped while a walk held its lock — always even. inos
// mirrors nodes for the monitor's ShortcutEntry. All fields are
// immutable after insertion.
type pentry struct {
	names []string
	nodes []*node
	inos  []spec.Inum
	gens  []uint64
}

// valid reports whether every stamped detach generation is still
// current: no chain node was detached since its stamp, hence — because
// removing an edge requires detaching its child — every cached edge
// still resolves. Lock-free loads: an in-flight detach shows as an odd
// (≠ stamp) value, failing conservatively.
func (e *pentry) valid() bool {
	for i, n := range e.nodes {
		if n.gen.Load() != e.gens[i] {
			return false
		}
	}
	return true
}

// prefixKey indexes a chain by its deepest component and its depth, not
// the joined path: hashing one short name per probe beats re-hashing an
// ever-longer prefix string, and no per-lookup join allocation is
// needed. Distinct chains can collide on a key (/a/x and /b/x are both
// {"x", 2}); the entry's stored names disambiguate on lookup, and a
// colliding store simply displaces — entries are hints.
type prefixKey struct {
	name  string // deepest component of the chain
	depth int    // number of components
}

// prefixCache is a sharded map from prefixKey to its cached chain.
// Bounded per shard; eviction is arbitrary — entries are pure hints,
// any walk can rebuild them. hot is the most recently hit or stored
// entry, checked before the map: repeated mutations under one deep
// directory — the workload the cache exists for — then skip the hash,
// shard mutex, and map probe entirely. A hot entry shallower than a
// mapped one costs at most a shorter shortcut, and the next refill
// re-deepens it.
type prefixCache struct {
	hot    atomic.Pointer[pentry]
	shards [prefixShards]struct {
		mu sync.Mutex
		m  map[prefixKey]*pentry
	}
}

const (
	prefixShards       = 16
	prefixShardEntries = 256
)

func newPrefixCache() *prefixCache {
	c := &prefixCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[prefixKey]*pentry)
	}
	return c
}

func prefixShard(key prefixKey) uint32 {
	// FNV-1a over the component, depth folded in; only the shard index
	// needs it, so inline beats hash/fnv.
	h := uint32(2166136261)
	for i := 0; i < len(key.name); i++ {
		h = (h ^ uint32(key.name[i])) * 16777619
	}
	h = (h ^ uint32(key.depth)) * 16777619
	return h % prefixShards
}

func keyOf(names []string) prefixKey {
	return prefixKey{name: names[len(names)-1], depth: len(names)}
}

// covers reports whether this entry's chain is exactly parts[:depth] —
// the disambiguation step after a key hit, since different chains can
// share a key.
func (e *pentry) covers(parts []string) bool {
	for i, nm := range e.names {
		if parts[i] != nm {
			return false
		}
	}
	return true
}

func (c *prefixCache) get(key prefixKey) *pentry {
	s := &c.shards[prefixShard(key)]
	s.mu.Lock()
	e := s.m[key]
	s.mu.Unlock()
	return e
}

func (c *prefixCache) delete(key prefixKey) {
	s := &c.shards[prefixShard(key)]
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// store inserts (or replaces) the chain for names. The slices are copied:
// parts buffers are pooled per-op and the entry outlives the operation.
func (c *prefixCache) store(names []string, nodes []*node, gens []uint64) {
	e := &pentry{
		names: append([]string(nil), names...),
		nodes: append([]*node(nil), nodes...),
		gens:  append([]uint64(nil), gens...),
		inos:  make([]spec.Inum, len(nodes)),
	}
	for i, n := range nodes {
		e.inos[i] = n.ino
	}
	key := keyOf(e.names)
	s := &c.shards[prefixShard(key)]
	s.mu.Lock()
	if _, ok := s.m[key]; !ok && len(s.m) >= prefixShardEntries {
		for k := range s.m { // arbitrary single eviction
			delete(s.m, k)
			break
		}
	}
	s.m[key] = e
	s.mu.Unlock()
	c.hot.Store(e)
}

// lookup finds the deepest cached ancestor of parts, probing from the
// full chain down. Entries whose stamps are already stale under a
// lock-free pre-check are discarded on the way (counted as
// invalidations) rather than returned — locking a dead entry inode
// would be a wasted acquisition.
func (fs *FS) prefixLookup(parts []string) *pentry {
	if e := fs.pcache.hot.Load(); e != nil &&
		len(e.names) <= len(parts) && e.covers(parts) && e.valid() {
		return e
	}
	for k := len(parts); k >= 1; k-- {
		key := prefixKey{name: parts[k-1], depth: k}
		e := fs.pcache.get(key)
		if e == nil || !e.covers(parts) {
			continue // absent, or a colliding chain — leave it be
		}
		if e.valid() {
			fs.pcache.hot.Store(e)
			return e
		}
		fs.pcache.delete(key)
		fs.pcache.hot.CompareAndSwap(e, nil)
		fs.prefixInvals.Add(1)
		if p := fs.obs; p != nil {
			p.rec.Emit(0, obs.EvPrefixInval, 0, uint64(e.inos[len(e.inos)-1]), 0)
		}
	}
	return nil
}

// traversePrefix is traverse under WithPrefixCache: shortcut when a
// cached ancestor validates, root walk otherwise, and in either case
// record the coupled chain and refresh the cache on success.
func (o *op) traversePrefix(branch core.Branch, parts []string) (*node, error) {
	fs := o.fs
	if len(parts) == 0 {
		// Root-target walk: no cache can help, and no miss to count.
		o.lock(branch, "", fs.root)
		return fs.root, nil
	}
	o.fire(HookPrefixLookup, "", 0)
	if ent := fs.prefixLookup(parts); ent != nil {
		k := len(ent.names)
		n := ent.nodes[k]
		o.fire(HookLockAttempt, ent.names[k-1], n.ino)
		o.lockRaw(n)
		o.fire(HookPrefixValidate, ent.names[k-1], n.ino)
		var ok bool
		if o.s != nil {
			ok = o.s.ShortcutEntry(ent.names, ent.inos, ent.valid)
		} else {
			ok = ent.valid()
		}
		if ok {
			fs.prefixHits.Add(1)
			if p := fs.obs; p != nil {
				p.prefixHit(o, n.ino, k)
			}
			o.fire(HookLocked, ent.names[k-1], n.ino)
			if k == len(parts) {
				// Full-depth hit: nothing left to walk, nothing to refill.
				return o.walk(branch, n, nil, nil, nil)
			}
			o.chainN = append(o.chainN[:0], ent.nodes...)
			o.chainG = append(o.chainG[:0], ent.gens...)
			o.chainRec = true
			got, err := o.walk(branch, n, parts[k:], nil, nil)
			o.chainRec = false
			if err == nil {
				fs.prefixFill(parts, o.chainN, o.chainG)
			}
			return got, err
		}
		// Stale under the lock (or the monitor refused): release the
		// entry — the monitor recorded nothing, so this is a raw unlock —
		// discard it, and fall back to the root walk below.
		o.unlockRaw(n)
		o.fire(HookUnlocked, "", n.ino)
		fs.pcache.delete(keyOf(ent.names))
		fs.pcache.hot.CompareAndSwap(ent, nil)
		fs.prefixInvals.Add(1)
		fs.prefixMisses.Add(1)
		if p := fs.obs; p != nil {
			p.prefixFall(o, n.ino, true)
		}
	} else {
		fs.prefixMisses.Add(1)
		if p := fs.obs; p != nil {
			p.prefixFall(o, 0, false)
		}
	}
	o.lock(branch, "", fs.root)
	o.chainN = append(o.chainN[:0], fs.root)
	o.chainG = append(o.chainG[:0], fs.root.gen.Load())
	o.chainRec = true
	got, err := o.walk(branch, fs.root, parts, nil, nil)
	o.chainRec = false
	if err == nil {
		fs.prefixFill(parts, o.chainN, o.chainG)
	}
	return got, err
}

// prefixFill stores the recorded chain, trimming a non-directory tail:
// files are never prefix entries (no walk continues through one).
func (fs *FS) prefixFill(parts []string, nodes []*node, gens []uint64) {
	k := len(parts)
	if len(nodes) != k+1 {
		return
	}
	if nodes[k].kind != spec.KindDir {
		k--
	}
	if k < 1 {
		return
	}
	fs.pcache.store(parts[:k], nodes[:k+1], gens[:k+1])
}
