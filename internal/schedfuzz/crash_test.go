package schedfuzz

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/trace"
)

// crashProg is a small deterministic program exercising every mutating
// op kind, used where tests need stable write marks.
func crashProg() []trace.Entry {
	return []trace.Entry{
		{Op: spec.OpMkdir, Args: spec.Args{Path: "/a"}},
		{Op: spec.OpMknod, Args: spec.Args{Path: "/a/f"}},
		{Op: spec.OpWrite, Args: spec.Args{Path: "/a/f", Off: 0, Data: []byte("durable?")}},
		{Op: spec.OpMkdir, Args: spec.Args{Path: "/b"}},
		{Op: spec.OpRename, Args: spec.Args{Path: "/a/f", Path2: "/b/g"}},
		{Op: spec.OpTruncate, Args: spec.Args{Path: "/b/g", Off: 3}},
		{Op: spec.OpMknod, Args: spec.Args{Path: "/a/x"}},
		{Op: spec.OpUnlink, Args: spec.Args{Path: "/a/x"}},
		{Op: spec.OpRmdir, Args: spec.Args{Path: "/a"}},
	}
}

func TestExecuteCrashCleanDry(t *testing.T) {
	res := ExecuteCrash(CrashSeed{Prog: crashProg(), Crash: -1})
	if res.Verdict != "" {
		t.Fatalf("dry run verdict %q: %s", res.Verdict, res.Detail)
	}
	if res.Issued != len(crashProg()) {
		t.Fatalf("issued %d of %d ops", res.Issued, len(crashProg()))
	}
	if res.Acked != 9 {
		t.Fatalf("acked %d, want 9", res.Acked)
	}
	if len(res.Marks) == 0 || res.Written == 0 {
		t.Fatal("dry run recorded no writes")
	}
}

// TestCrashSweepMarks crashes the deterministic program at every write
// mark, one byte before, and one byte after — for the no-checkpoint and
// checkpoint-heavy configurations, on plain atomfs and on the served
// configuration — and requires every crash point to recover to a
// relation-accepted golden prefix state.
func TestCrashSweepMarks(t *testing.T) {
	for _, served := range []bool{false, true} {
		for _, ck := range []int{0, 2} {
			dry := ExecuteCrash(CrashSeed{Prog: crashProg(), CkptEvery: ck, Crash: -1, Served: served})
			if dry.Verdict != "" {
				t.Fatalf("served=%v ckpt=%d dry: %s", served, ck, dry)
			}
			cands := crashCandidates(dry, nil, 0)
			if len(cands) < 2*len(dry.Marks) {
				t.Fatalf("served=%v ckpt=%d: only %d candidates from %d marks", served, ck, len(cands), len(dry.Marks))
			}
			for _, k := range cands {
				res := ExecuteCrash(CrashSeed{Prog: crashProg(), CkptEvery: ck, Crash: k, Served: served})
				if res.Verdict != "" {
					t.Fatalf("served=%v ckpt=%d crash@%d: %s: %s", served, ck, k, res.Verdict, res.Detail)
				}
			}
		}
	}
}

func TestExecuteCrashDeterministic(t *testing.T) {
	s := CrashSeed{Prog: crashProg(), CkptEvery: 2, Crash: 100}
	a, b := ExecuteCrash(s), ExecuteCrash(s)
	if a.String() != b.String() || a.Info != b.Info || a.Acked != b.Acked {
		t.Fatalf("nondeterministic crash run:\n%s\n%s", a, b)
	}
}

func TestShrinkCrashMachinery(t *testing.T) {
	prog := RandomCrashProg(rand.New(rand.NewSource(3)), 16)
	dry := ExecuteCrash(CrashSeed{Prog: prog, Crash: -1})
	if dry.Verdict != "" {
		t.Fatalf("dry: %s", dry)
	}
	seed := CrashSeed{Prog: prog, Crash: dry.Marks[len(dry.Marks)/2]}
	// A clean signature reproduces everywhere, so the shrinker must be
	// able to strip the program to (almost) nothing while rebinding the
	// crash offset to the shorter byte stream.
	shrunk, spent := ShrinkCrash(seed, "", 200)
	if spent == 0 {
		t.Fatal("shrinker spent no executions")
	}
	if len(shrunk.Prog) >= len(prog) {
		t.Fatalf("no reduction: %d -> %d ops", len(prog), len(shrunk.Prog))
	}
	if res := ExecuteCrash(shrunk); res.Verdict != "" {
		t.Fatalf("shrunk seed no longer clean: %s", res)
	}
}

func TestFuzzCrashSmoke(t *testing.T) {
	rep := FuzzCrash(CrashFuzzConfig{
		Budget: 2 * time.Second,
		Seed:   1,
		Ops:    12,
		Logf:   t.Logf,
	})
	if rep.Failure != nil {
		f := rep.Failure
		r := f.Repro([]string{"found by TestFuzzCrashSmoke"})
		var buf bytes.Buffer
		_ = WriteRepro(&buf, r)
		t.Fatalf("crash fuzzer found %q:\n%s\n%s", f.Signature, f.Result.Detail, buf.String())
	}
	if rep.Runs == 0 || rep.Programs == 0 {
		t.Fatalf("campaign did nothing: %+v", rep)
	}
}

func TestCrashReproRoundTrip(t *testing.T) {
	prog := crashProg()
	dry := ExecuteCrash(CrashSeed{Prog: prog, CkptEvery: 2, Crash: -1})
	if dry.Verdict != "" {
		t.Fatalf("dry: %s", dry)
	}
	k := dry.Marks[len(dry.Marks)/2] - 1 // torn write
	f := &CrashFailure{
		Seed:      CrashSeed{Prog: prog, CkptEvery: 2, Crash: k},
		Signature: "",
	}
	r := f.Repro([]string{"round-trip fixture"})

	var buf bytes.Buffer
	if err := WriteRepro(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"journal on", "ckpt 2", "crash "} {
		if !strings.Contains(text, want) {
			t.Fatalf("serialized repro missing %q:\n%s", want, text)
		}
	}
	r2, err := ParseRepro(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Journal || r2.CkptEvery != 2 || r2.Crash != k {
		t.Fatalf("parsed journal=%v ckpt=%d crash=%d, want true/2/%d",
			r2.Journal, r2.CkptEvery, r2.Crash, k)
	}
	if len(r2.Seed.Threads) != 1 || len(r2.Seed.Threads[0]) != len(prog) {
		t.Fatalf("program did not round-trip: %v", r2.Seed.Threads)
	}

	res, err := r2.ReplayCrash()
	if err != nil {
		t.Fatalf("replay: %v (%s)", err, res)
	}
	// Replay() must dispatch journal repros too (nil RunResult by contract).
	if rr, err := r2.Replay(); rr != nil || err != nil {
		t.Fatalf("Replay() on journal repro: res=%v err=%v", rr, err)
	}
}

func TestReplayCrashOnNonJournalRepro(t *testing.T) {
	r := &Repro{}
	if _, err := r.ReplayCrash(); err == nil {
		t.Fatal("ReplayCrash accepted a non-journal repro")
	}
}

// TestGoldenCrashRepros replays the checked-in crash-schedule fixtures:
// each must parse, actually truncate the journal byte stream at its
// crash offset, and recover to a relation-accepted state (empty expect
// = clean verdict, which includes the abstraction-relation check).
func TestGoldenCrashRepros(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "wal_*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least 2 golden crash repros, found %v", paths)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			r, err := ParseRepro(f)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Journal {
				t.Fatal("golden wal repro without journal directive")
			}
			res, err := r.ReplayCrash()
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			dry := ExecuteCrash(CrashSeed{Prog: r.Seed.Threads[0], CkptEvery: r.CkptEvery, Crash: -1})
			if r.Crash >= dry.Written {
				t.Fatalf("crash offset %d does not truncate the %d-byte stream", r.Crash, dry.Written)
			}
			if res.Info.LastSeq > dry.Acked {
				t.Fatalf("recovered seq %d beyond the %d records ever appended", res.Info.LastSeq, dry.Acked)
			}
		})
	}
}
