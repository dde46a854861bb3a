// Command obsguard is the observability-overhead regression gate run by
// `make obs-overhead` and CI: it benchmarks the read-mostly workload
// (the BenchmarkFastPath/read-mostly-95-5 shape) on the served
// configuration (lockless epoch reads plus the prefix cache) twice — once
// uninstrumented (nil registry; every obs call site reduces to a nil
// check) and once with a live registry at the default sampling rate —
// and fails if the instrumented build is more than -threshold slower.
//
// Both configurations run -rounds times interleaved, and the verdict is
// the MEDIAN of the per-round instrumented/baseline ratios. The paired
// design matters on small noisy machines: adjacent runs share machine
// state, so each round's ratio mostly cancels drift, while comparing
// best-of-N against best-of-N lets one lucky baseline round misreport
// the overhead by more than the entire budget.
//
// Usage:
//
//	obsguard                    # 5% budget, 5 rounds
//	obsguard -threshold 0.08 -rounds 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/atomfs"
	"repro/internal/obs"
)

// ctx is the tool's root context (mains are execution roots).
var ctx = context.Background()

func main() {
	threshold := flag.Float64("threshold", 0.05, "maximum allowed fractional slowdown")
	rounds := flag.Int("rounds", 5, "rounds per configuration (median ratio wins)")
	sample := flag.Uint64("sample", 0, "override trace sampling rate (0 = package default)")
	flag.Parse()

	configs := []struct {
		name string
		mk   func() *atomfs.FS
	}{
		{"baseline", func() *atomfs.FS { return atomfs.New(atomfs.WithEpoch(), atomfs.WithPrefixCache()) }},
		{"instrumented", func() *atomfs.FS {
			opts := []atomfs.Option{atomfs.WithEpoch(), atomfs.WithPrefixCache(), atomfs.WithObs(obs.NewRegistry())}
			if *sample != 0 {
				opts = append(opts, atomfs.WithObsSampleEvery(*sample))
			}
			return atomfs.New(opts...)
		}},
	}
	ratios := make([]float64, 0, *rounds)
	for r := 0; r < *rounds; r++ {
		ns := make([]float64, len(configs))
		for i, c := range configs {
			// Min of two back-to-back runs: a transient disturbance (GC,
			// another container process) must hit both to skew the round.
			ns[i] = runReadMostly(c.mk)
			if again := runReadMostly(c.mk); again < ns[i] {
				ns[i] = again
			}
			fmt.Printf("round %d %-12s %10.1f ns/op\n", r+1, c.name, ns[i])
		}
		ratios = append(ratios, ns[1]/ns[0])
		fmt.Printf("round %d ratio %+.2f%%\n", r+1, 100*(ns[1]/ns[0]-1))
	}
	sort.Float64s(ratios)
	slowdown := ratios[len(ratios)/2] - 1
	fmt.Printf("obs overhead: median slowdown %+.2f%% over %d paired rounds (budget %.0f%%)\n",
		100*slowdown, *rounds, 100**threshold)
	if slowdown > *threshold {
		fmt.Fprintln(os.Stderr, "obsguard: FAIL: instrumentation overhead exceeds budget")
		os.Exit(1)
	}
	fmt.Println("obsguard: PASS")
}

// runReadMostly executes the read-mostly-95-5 workload once under
// testing.Benchmark and returns ns/op: 95% stats/reads of a depth-8
// path, 5% namespace churn in the same directory, 8-way goroutine
// parallelism — the exact shape of BenchmarkFastPath/read-mostly-95-5.
func runReadMostly(mk func() *atomfs.FS) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		fs := mk()
		var dir string
		for i := 0; i < 8; i++ {
			dir = fmt.Sprintf("%s/p%d", dir, i)
			if err := fs.Mkdir(ctx, dir); err != nil {
				b.Fatal(err)
			}
		}
		file := dir + "/f"
		if err := fs.Mknod(ctx, file); err != nil {
			b.Fatal(err)
		}
		if _, err := fs.Write(ctx, file, 0, []byte("0123456789abcdef")); err != nil {
			b.Fatal(err)
		}
		var ids atomic.Uint64
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			rbuf := make([]byte, 16)
			for pb.Next() {
				i++
				switch {
				case i%40 == 10:
					id := ids.Add(1)
					fs.Mknod(ctx, fmt.Sprintf("%s/m%d", dir, id))
				case i%40 == 30:
					fs.Unlink(ctx, fmt.Sprintf("%s/m%d", dir, ids.Load()))
				case i%2 == 0:
					if _, err := fs.Stat(ctx, file); err != nil {
						b.Error(err)
						return
					}
				default:
					if _, err := fs.Read(ctx, file, 0, rbuf); err != nil {
						b.Error(err)
						return
					}
				}
			}
		})
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
