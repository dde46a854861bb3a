package fuse

// Size-classed payload buffer pools. The wire path's hot allocations —
// the frame a request arrives in, the buffer a read fills, the header a
// reply is encoded into — all come from here and return here, so a
// steady-state server performs no per-request payload allocation. A
// handful of power-of-four classes keeps internal fragmentation bounded
// (a buffer wastes at most 3/4 of its class) without the pool sprawling.

import (
	"sync"
	"unsafe"
)

// bufClasses are the pooled capacities. The largest covers MaxIOSize
// plus framing slack, so every capped request/reply frame fits a class;
// anything larger (only possible for hand-rolled frames near MaxPayload)
// falls through to the garbage collector.
var bufClasses = [...]int{
	1 << 8,           // 256 B: bare headers — stats, mknods, errno-only replies
	1 << 12,          // 4 KiB: small reads/writes, readdir pages of short names
	1 << 16,          // 64 KiB
	1 << 18,          // 256 KiB
	MaxIOSize + 4096, // full-size I/O plus header slack
}

// bufPools hold a pointer to each buffer's first byte, not a *[]byte: a
// pointer is stored in an interface without boxing, so a getBuf/putBuf
// round trip allocates nothing. The class restores the capacity.
var bufPools [len(bufClasses)]sync.Pool

// classFor returns the index of the smallest class holding n, or -1 when
// n exceeds every class.
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// getBuf returns a length-n buffer, pooled when a class fits.
func getBuf(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if p, _ := bufPools[ci].Get().(*byte); p != nil {
		return unsafe.Slice(p, bufClasses[ci])[:n]
	}
	return make([]byte, n, bufClasses[ci])
}

// putBuf returns a buffer obtained from getBuf. Buffers whose capacity
// matches no class exactly (foreign slices, oversized fall-throughs) are
// dropped for the collector; pooling them would poison the classes.
func putBuf(b []byte) {
	if b == nil {
		return
	}
	c := cap(b)
	for i := range bufClasses {
		if c == bufClasses[i] {
			bufPools[i].Put(unsafe.SliceData(b[:c]))
			return
		}
	}
}
