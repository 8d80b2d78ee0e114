package lsm

// Tests for the durable lifecycle: Open must reconstruct an index from the
// manifest and run files alone (never the raw dataset), restore the
// deterministic compaction cursors so a reopened index continues the exact
// sequence a never-closed one would, and fail loudly on corruption. Plus
// the adaptive scheduler: tier-0 groups pop ahead of higher tiers, and
// backpressure defers higher tiers entirely.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

func reopen(t *testing.T, fs *storage.MemFS, background bool) *Index {
	t.Helper()
	ix, err := Open(Options{
		FS:                   fs,
		Name:                 "lsm",
		S:                    tSummarizer(t),
		RawName:              "raw",
		MemBudgetBytes:       32 * recordSize,
		Fanout:               2,
		Workers:              2,
		QueryWorkers:         1, // whole Results are compared; visit counts need a serial scan
		BackgroundCompaction: background,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestOpenRoundTrip: a quiesced index reopens with identical runs, count,
// and exact/approx answers — and the reopen never reads the raw dataset.
func TestOpenRoundTrip(t *testing.T) {
	ix, fs := buildStreamed(t, false, 0)
	wantRuns := ix.Shape().Runs
	wantCount := ix.Count()
	queries := dataset.Queries(dataset.NewRandomWalk(), 5, tLen, 99)
	type answer struct{ exact, approx core.Result }
	want := make([]answer, len(queries))
	for i, q := range queries {
		e, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ix.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{e, a}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Any read of the raw dataset during Open is a failure: the manifest
	// and the run files must suffice.
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		if op == storage.OpRead && name == "raw" {
			return fmt.Errorf("raw dataset read during reopen (off=%d n=%d)", off, n)
		}
		return nil
	})
	re := reopen(t, fs, false)
	fs.SetFault(nil)
	defer re.Close()

	if re.Shape().Runs != wantRuns || re.Count() != wantCount {
		t.Fatalf("reopened %d runs / %d series, want %d / %d",
			re.Shape().Runs, re.Count(), wantRuns, wantCount)
	}
	for i, q := range queries {
		e, err := re.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := re.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e != want[i].exact || a != want[i].approx {
			t.Fatalf("query %d: reopened answers differ: exact %+v vs %+v, approx %+v vs %+v",
				i, e, want[i].exact, a, want[i].approx)
		}
	}
}

// TestOpenContinuesDeterministicSequence is the strongest durability
// check: interrupting a stream with Close+Open in the middle must leave
// the final quiesced on-disk state byte-identical to a never-closed index
// fed the same flush sequence — proving the manifest restores every
// scheduling cursor (run naming, seq, tierSeq, group formation) exactly.
func TestOpenContinuesDeterministicSequence(t *testing.T) {
	gen := dataset.NewRandomWalk()
	stream := dataset.Generate(gen, 400, tLen, 7)
	build := func(interrupt bool) map[string][]byte {
		fs := storage.NewMemFS()
		if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
			t.Fatal(err)
		}
		// The memtable capacity (25 records) divides the batch size, so the
		// memtable is empty at every batch boundary — the mid-stream Close
		// then adds no extra flush and both sequences see identical flushes.
		opt := Options{
			FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw",
			MemBudgetBytes: 25 * recordSize, Fanout: 2, Workers: 2,
		}
		ix, err := Build(opt)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(stream); lo += 50 {
			if interrupt && lo == 200 {
				// Mid-stream restart: lifecycle through storage only.
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				if ix, err = Open(opt); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Insert(context.Background(), stream[lo:lo+50]); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopening starts a fresh log generation with new segment numbers by
		// design: leave the (empty) WAL segments out of the byte comparison
		// and blank the manifest's segment cursors.
		st := fsState(t, fs)
		for name := range st {
			if strings.Contains(name, ".wal.") {
				delete(st, name)
			}
		}
		m, err := manifest.Decode(st[manifest.FileName("lsm")])
		if err != nil {
			t.Fatal(err)
		}
		m.LSM.WALFirstSeg, m.LSM.WALNextSeg = 0, 0
		if st[manifest.FileName("lsm")], err = m.Encode(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	ref := build(false)
	got := build(true)
	if len(ref) != len(got) {
		t.Fatalf("file sets differ: %d vs %d files", len(got), len(ref))
	}
	for name, want := range ref {
		b, ok := got[name]
		if !ok {
			t.Fatalf("interrupted build is missing %q", name)
		}
		if string(b) != string(want) {
			t.Fatalf("file %q differs after interrupted build", name)
		}
	}
}

// TestOpenDetectsCorruption: a truncated run file, a mutilated run record,
// and a config conflict all fail loudly with typed errors.
func TestOpenDetectsCorruption(t *testing.T) {
	ix, fs := buildStreamed(t, false, 0)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Load(fs, "lsm")
	if err != nil {
		t.Fatal(err)
	}
	runName := m.LSM.Runs[0].Name

	// Truncated run file.
	orig, err := storage.ReadFileAll(fs, runName)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteFileAll(fs, runName, orig[:len(orig)-recordSize]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw"}); !errors.Is(err, manifest.ErrCorruptManifest) {
		t.Fatalf("truncated run: got %v, want ErrCorruptManifest", err)
	}

	// Mutilated first key (range check must catch it).
	mut := append([]byte(nil), orig...)
	mut[0] ^= 0xff
	if err := storage.WriteFileAll(fs, runName, mut); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw"}); !errors.Is(err, manifest.ErrCorruptManifest) {
		t.Fatalf("mutilated run: got %v, want ErrCorruptManifest", err)
	}
	if err := storage.WriteFileAll(fs, runName, orig); err != nil {
		t.Fatal(err)
	}

	// Config conflicts: wrong summarization, wrong fanout.
	s2, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 16, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{FS: fs, Name: "lsm", S: s2, RawName: "raw"}); !errors.Is(err, manifest.ErrConfigMismatch) {
		t.Fatalf("segment mismatch: got %v, want ErrConfigMismatch", err)
	}
	if _, err := Open(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw", Fanout: 5}); !errors.Is(err, manifest.ErrConfigMismatch) {
		t.Fatalf("fanout mismatch: got %v, want ErrConfigMismatch", err)
	}

	// And the repaired index opens again.
	re, err := Open(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

// TestCloseFlushesMemtable: series still in the memtable at Close must be
// durable — visible after reopen.
func TestCloseFlushesMemtable(t *testing.T) {
	ix, data, fs := buildFixture(t, 1<<20)
	extra := dataset.Generate(dataset.NewSeismic(), 25, tLen, 5)
	if err := ix.Insert(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	if len(ix.mem) == 0 {
		t.Fatal("fixture: memtable unexpectedly empty")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw",
		MemBudgetBytes: 1 << 20, Window: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.Count(), int64(len(data)+len(extra)); got != want {
		t.Fatalf("reopened count %d, want %d", got, want)
	}
	res, err := re.ExactSearch(context.Background(), extra[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 {
		t.Fatalf("memtable series lost across Close/Open: nearest dist %v", res.Dist)
	}
}

// TestOutOfOrderSwapCommit: when same-tier merges finish out of claim
// order, the later group's swap must park until its predecessor lands, so
// the durable cursor never claims an unfinished group is done — the crash
// window that would otherwise strand the predecessor's runs forever.
func TestOutOfOrderSwapCommit(t *testing.T) {
	fs := storage.NewMemFS()
	ix := &Index{opt: Options{FS: fs, Name: "x", S: tSummarizer(t), RawName: "raw",
		Fanout: 2, MaxPendingRuns: 4},
		groupsClaimed: map[int]int{}, committedGroups: map[int]int{},
		parked: map[int]map[int]*finishedSwap{}}
	for i := 0; i < 4; i++ {
		ix.runs = append(ix.runs, mkRun(t, ix, 0, i, int64(i)))
	}
	job0 := ix.findGroupLocked(true)
	job1 := ix.findGroupLocked(true)
	if job0 == nil || job1 == nil || job0.group != 0 || job1.group != 1 {
		t.Fatalf("fixture claims wrong: %+v %+v", job0, job1)
	}

	// Group 1 finishes first: it must park, commit nothing, delete nothing.
	// landLocked's manifest commit drops and re-acquires mu, so the test
	// must genuinely hold it.
	out1 := mkRun(t, ix, 1, 1, job1.outSeq)
	ix.mu.Lock()
	err := ix.landLocked(job1, out1)
	ix.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.committedGroups[0]; got != 0 {
		t.Fatalf("cursor advanced to %d with group 0 unfinished", got)
	}
	if len(ix.runs) != 4 {
		t.Fatalf("runs swapped early: %d runs", len(ix.runs))
	}
	if cs := ix.tierCursorsLocked(); len(cs) != 0 {
		t.Fatalf("durable cursor published for unfinished group: %+v", cs)
	}

	// Group 0 lands: both swaps commit, in order.
	out0 := mkRun(t, ix, 1, 0, job0.outSeq)
	ix.mu.Lock()
	err = ix.landLocked(job0, out0)
	ix.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.committedGroups[0]; got != 2 {
		t.Fatalf("cursor %d after both groups landed, want 2", got)
	}
	if len(ix.runs) != 2 || ix.runs[0] != out0 || ix.runs[1] != out1 {
		t.Fatalf("unexpected run set after landing: %d runs", len(ix.runs))
	}
	if len(ix.parked[0]) != 0 {
		t.Fatalf("parked swaps left behind: %d", len(ix.parked[0]))
	}
}

// mkRun fabricates a one-record run on ix's device for scheduler unit tests.
func mkRun(t *testing.T, ix *Index, tier, tierSeq int, seq int64) *run {
	t.Helper()
	r, err := ix.writeRunFile(fmt.Sprintf("r.t%d.%d", tier, tierSeq), []memEntry{{}}, tier, seq, tierSeq)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAdaptiveClaimOrder: with ready groups at several tiers, claiming
// pops the tier-0 group first, and under backpressure (tier-0 backlog over
// MaxPendingRuns) higher tiers are deferred entirely while the readiness
// probe still sees them.
func TestAdaptiveClaimOrder(t *testing.T) {
	ix := &Index{opt: Options{FS: storage.NewMemFS(), Fanout: 2, MaxPendingRuns: 4},
		groupsClaimed: map[int]int{}, committedGroups: map[int]int{},
		parked: map[int]map[int]*finishedSwap{}}
	var seq int64
	add := func(tier, tierSeq int) {
		ix.runs = append(ix.runs, mkRun(t, ix, tier, tierSeq, seq))
		seq++
	}
	// A ready tier-2 group, a ready tier-1 group, and two tier-0 runs.
	add(2, 0)
	add(2, 1)
	add(1, 0)
	add(1, 1)
	add(0, 0)
	add(0, 1)

	job := ix.findGroupLocked(true)
	if job == nil || job.inTier != 0 {
		t.Fatalf("first claim should be tier 0, got %+v", job)
	}
	job = ix.findGroupLocked(true)
	if job == nil || job.inTier != 1 {
		t.Fatalf("second claim should be tier 1, got %+v", job)
	}

	// Burst: 5 more tier-0 runs (backlog 5 > MaxPendingRuns 4, the two
	// claimed members still count — they occupy the device). Only tier-0
	// groups may be claimed; the tier-2 group is deferred but the drain
	// probe still reports it.
	for i := 2; i < 7; i++ {
		add(0, i)
	}
	if n := ix.tier0CountLocked(); n <= ix.opt.MaxPendingRuns {
		t.Fatalf("fixture backlog %d not over MaxPendingRuns %d", n, ix.opt.MaxPendingRuns)
	}
	job = ix.findGroupLocked(true)
	if job == nil || job.inTier != 0 {
		t.Fatalf("burst claim should be tier 0, got %+v", job)
	}
	job = ix.findGroupLocked(true)
	if job == nil || job.inTier != 0 {
		t.Fatalf("second burst claim should be tier 0, got %+v", job)
	}
	// Backlog now 7 (all claimed or not, still on disk); the only
	// remaining ready group is tier 2 — deferred under backpressure...
	if job := ix.findGroupLocked(true); job != nil {
		t.Fatalf("tier-2 group claimed during burst: %+v", job)
	}
	// ...but visible to the drain probe.
	if probe := ix.findGroupLocked(false); probe == nil || probe.inTier != 2 {
		t.Fatalf("drain probe missed the deferred tier-2 group: %+v", probe)
	}
}
