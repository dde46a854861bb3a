package main

// The net suite (DESIGN.md §15): the wire protocol over real TCP
// loopback, served by the production atomfs configuration.
//
//   - storm: 32 goroutines pipeline stats through one client connection,
//     once against a server writing one frame per syscall and once
//     against the coalescing writer. The coalesced cell must run at
//     least netCoalesceGate times the per-frame cell or the run fails.
//   - readv: 64 scattered 4 KiB extents, read one round trip at a time
//     and as one OpReadv; ns_per_op is per extent.
//   - noise-floor, knee, below-knee: open-loop (Poisson) stat load from
//     internal/fsload. The near-idle 2k ops/s cell measures the host's
//     rate-independent scheduling noise; a ladder of fractions of the
//     closed-loop capacity finds the knee (fsload.Knee); the gate cell
//     runs at 70% of the knee and its p99.9 must stay within
//     max(5x its p50, 3x the noise floor's p99.9), best of 3 attempts.
//
// Every open-loop cell is the median-by-p99.9 of netSubcells seeded
// subcells (fsload.RunMedian) with the collector parked, so one host
// freeze cannot decide a gate.

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atomfs"
	"repro/internal/fsapi"
	"repro/internal/fsload"
	"repro/internal/fuse"
	"repro/internal/obs"
)

const (
	netCoalesceGate = 1.5 // coalesced storm throughput over per-frame
	netStormThreads = 32
	netSubcells     = 5
	netFiles        = 64
	netNoiseRate    = 2000 // ops/s, the near-idle noise-floor cell
	netBelowKnee    = 0.7  // gate cell rate as a fraction of the knee
	netGateAttempts = 3
)

// netTarget is one served file system behind a TCP loopback listener and
// a client dialled to it.
type netTarget struct {
	srv    *fuse.Server
	client *fuse.Client
	reg    *obs.Registry
}

// newNetTarget serves a fresh production-configuration atomfs holding
// netFiles 16 KiB files under /n.
func newNetTarget(coalesce bool) *netTarget {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		die(err)
	}
	reg := obs.NewRegistry()
	srv := fuse.NewServer(atomfs.New(atomfs.WithEpoch(), atomfs.WithPrefixCache()))
	srv.SetCoalesce(coalesce)
	srv.SetObs(reg)
	go srv.Serve(lis)
	client, err := fuse.Dial(lis.Addr().String())
	if err != nil {
		die(err)
	}
	t := &netTarget{srv: srv, client: client, reg: reg}
	if err := t.client.Mkdir(ctx, "/n"); err != nil {
		die(err)
	}
	data := make([]byte, 16<<10)
	for i := range data {
		data[i] = byte(i)
	}
	for i := 0; i < netFiles; i++ {
		p := netPath(i)
		if err := client.Mknod(ctx, p); err != nil {
			die(err)
		}
		if _, err := client.Write(ctx, p, 0, data); err != nil {
			die(err)
		}
	}
	return t
}

func (t *netTarget) close() {
	t.client.Close()
	t.srv.Close()
}

// writerCounts reads the reply writer's frame and flush totals; their
// ratio over an interval is its batching ratio.
func (t *netTarget) writerCounts() (frames, flushes uint64) {
	return t.reg.Counter("fuse_writer_frames_total").Value(), t.reg.Counter("fuse_writer_flushes_total").Value()
}

// netPaths is built once, so the measured loops format nothing.
var netPaths = func() (p [netFiles]string) {
	for i := range p {
		p[i] = fmt.Sprintf("/n/f%02d", i)
	}
	return p
}()

func netPath(i int) string { return netPaths[i] }

func die(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func netSuite(quick bool) []record {
	var results []record

	perframe := netStorm("net/storm/stat-32thr/perframe", false)
	coalesced := netStorm("net/storm/stat-32thr/coalesced", true)
	speedup := perframe.NsPerOp / coalesced.NsPerOp
	coalesced.NetSpeedup = &speedup
	results = append(results, perframe, coalesced)
	if speedup < netCoalesceGate {
		fmt.Fprintf(os.Stderr, "net: coalesced storm is %.2fx of per-frame (need >= %.1fx)\n", speedup, netCoalesceGate)
		os.Exit(1)
	}
	fmt.Printf("net: coalesced storm %.2fx of per-frame writes (gate: >= %.1fx)\n", speedup, netCoalesceGate)

	seq := netReadv("net/readv/64x4k/sequential-reads", false)
	rv := netReadv("net/readv/64x4k/readv", true)
	rvSpeedup := seq.NsPerOp / rv.NsPerOp
	rv.ReadvSpeedup = &rvSpeedup
	results = append(results, seq, rv)

	dur := time.Second
	if quick {
		dur = 300 * time.Millisecond
	}
	t := newNetTarget(true)
	defer t.close()
	op := func(ctx context.Context, i int) error {
		_, err := t.client.Stat(ctx, netPath(i%netFiles))
		return err
	}
	base := fsload.Config{Duration: dur, MaxOutstanding: 96, Seed: 1, DisableGC: true}

	capacity := netCalibrate(op)
	var rates []float64
	for _, f := range []float64{0.4, 0.6, 0.8, 1.0, 1.25} {
		rates = append(rates, f*capacity)
	}
	sweep := fsload.Sweep(ctx, op, rates, base)
	for _, r := range sweep {
		results = append(results, netRecord(fmt.Sprintf("net/knee/sweep-%.0fps", r.Offered), r))
	}
	knee := fsload.Knee(sweep)
	if knee < 0 {
		fmt.Fprintln(os.Stderr, "net: saturated at every swept rate, no knee to run the tail gate below")
		os.Exit(1)
	}
	kneeRate := sweep[knee].Offered

	noiseCfg := base
	noiseCfg.Rate = netNoiseRate
	noise := fsload.RunMedian(ctx, op, noiseCfg, netSubcells)
	noiseRec := netRecord("net/noise-floor/2kps", noise)
	noiseRec.NetOffered, noiseRec.NetAchieved = nil, nil
	results = append(results, noiseRec)

	gateCfg := base
	gateCfg.Rate = netBelowKnee * kneeRate
	var gate fsload.Result
	var bound time.Duration
	pass := false
	for attempt := 0; attempt < netGateAttempts && !pass; attempt++ {
		gateCfg.Seed = base.Seed + int64(100*(attempt+1))
		gate = fsload.RunMedian(ctx, op, gateCfg, netSubcells)
		bound = max(5*gate.P50, 3*noise.P999)
		pass = gate.P999 <= bound
	}
	rec := netRecord("net/below-knee/70pct", gate)
	rec.NetKnee = &kneeRate
	results = append(results, rec)
	if !pass {
		fmt.Fprintf(os.Stderr, "net: below-knee p99.9 %v exceeds max(5x p50, 3x noise-floor p99.9) = %v in %d attempts\n",
			gate.P999, bound, netGateAttempts)
		os.Exit(1)
	}
	fmt.Printf("net: knee %.0f ops/s; below-knee p99.9 %v within %v (gate: max(5x p50, 3x noise-floor p99.9))\n",
		kneeRate, gate.P999, bound)
	return results
}

// netStorm benchmarks netStormThreads goroutines issuing pipelined stats
// through one connection. Each benchmark round builds a fresh server and
// connection, so no round inherits another's queue or pool state.
func netStorm(name string, coalesce bool) record {
	var fpf float64
	r := testing.Benchmark(func(b *testing.B) {
		t := newNetTarget(coalesce)
		defer t.close()
		var next atomic.Int64
		var wg sync.WaitGroup
		frames0, flushes0 := t.writerCounts()
		b.ReportAllocs()
		b.ResetTimer()
		for w := 0; w < netStormThreads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(b.N) {
						return
					}
					if _, err := t.client.Stat(ctx, netPath(int(i)%netFiles)); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		frames, flushes := t.writerCounts()
		fpf = float64(frames-frames0) / float64(max(flushes-flushes0, 1))
	})
	rec := record{
		Name:              name,
		NsPerOp:           float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:       r.AllocsPerOp(),
		NetFramesPerFlush: &fpf,
	}
	printRec(rec)
	return rec
}

// netReadv reads 64 scattered 4 KiB extents of one file, either as 64
// sequential round trips or as one OpReadv; ns_per_op is per extent.
func netReadv(name string, batched bool) record {
	const extents = 64
	t := newNetTarget(true)
	defer t.close()
	// One 256 KiB file, so every extent is a full 4 KiB.
	big := make([]byte, extents*4096)
	if err := t.client.Mknod(ctx, "/n/big"); err != nil {
		die(err)
	}
	if _, err := t.client.Write(ctx, "/n/big", 0, big); err != nil {
		die(err)
	}
	offs := make([]int64, extents)
	dsts := make([][]byte, extents)
	for i := range offs {
		offs[i] = int64((i*37)%extents) * 4096
		dsts[i] = make([]byte, 4096)
	}
	var fs fsapi.FS = t.client
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if batched {
				if _, err := t.client.Readv(ctx, "/n/big", offs, dsts); err != nil {
					b.Fatal(err)
				}
				continue
			}
			for k, off := range offs {
				if _, err := fs.Read(ctx, "/n/big", off, dsts[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	rec := record{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N*extents),
		AllocsPerOp: r.AllocsPerOp() / extents,
	}
	printRec(rec)
	return rec
}

// netCalibrate estimates closed-loop capacity with a 32-worker burst;
// the knee ladder brackets it.
func netCalibrate(op fsload.Op) float64 {
	const workers = 32
	window := 500 * time.Millisecond
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for time.Since(start) < window {
				if op(ctx, w*1_000_000+n) == nil {
					n++
				}
			}
			total.Add(int64(n))
		}(w)
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// netRecord turns an open-loop result into a cell: the p50 in ns_per_op,
// the quantile triple and the offered/achieved rates alongside.
func netRecord(name string, r fsload.Result) record {
	p50, p99, p999 := float64(r.P50), float64(r.P99), float64(r.P999)
	offered, achieved := r.Offered, r.Achieved
	rec := record{
		Name:        name,
		NsPerOp:     p50,
		LatP50Ns:    &p50,
		LatP99Ns:    &p99,
		LatP999Ns:   &p999,
		NetOffered:  &offered,
		NetAchieved: &achieved,
	}
	printRec(rec)
	return rec
}
