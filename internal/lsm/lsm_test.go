package lsm

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

const (
	tLen   = 64
	tCount = 500
)

func tSummarizer(t *testing.T) *summary.Summarizer {
	t.Helper()
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 8, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildFixture(t *testing.T, memBudget int64) (*Index, []series.Series, *storage.MemFS) {
	t.Helper()
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	data := dataset.Generate(gen, tCount, tLen, 42)
	ix, err := Build(Options{
		FS:             fs,
		Name:           "lsm",
		S:              tSummarizer(t),
		RawName:        "raw",
		MemBudgetBytes: memBudget,
		Fanout:         3,
		Window:         40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, data, fs
}

func bruteForce1NN(q series.Series, data []series.Series) float64 {
	best := math.Inf(1)
	for _, d := range data {
		dist, _ := series.ED(q, d)
		if dist < best {
			best = dist
		}
	}
	return best
}

func TestBuildInitialRun(t *testing.T) {
	ix, _, fs := buildFixture(t, 1<<20)
	defer ix.Close()
	if ix.Count() != tCount {
		t.Fatalf("Count = %d", ix.Count())
	}
	if ix.Shape().Runs != 1 {
		t.Fatalf("NumRuns = %d, want 1", ix.Shape().Runs)
	}
	r := ix.runs[0]
	if r.rb.Count() != tCount {
		t.Fatalf("run holds %d records, want %d", r.rb.Count(), tCount)
	}
	if got, want := ix.SizeBytes(), fs.FileSize(r.name); got != want || want <= 0 {
		t.Fatalf("SizeBytes = %d, run file is %d bytes", got, want)
	}
	requireSorted(t, r)
}

// requireSorted fails unless the run's keys stream in non-descending order.
func requireSorted(t *testing.T, r *run) {
	t.Helper()
	var prev summary.Key
	err := r.rb.Range(0, r.count, func(k summary.Key, _ int64) error {
		if k.Less(prev) {
			return errors.New("run keys not sorted")
		}
		prev = k
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	ix, data, _ := buildFixture(t, 1<<20)
	defer ix.Close()
	qs := dataset.Queries(dataset.NewRandomWalk(), 12, tLen, 9)
	for qi, q := range qs {
		want := bruteForce1NN(q, data)
		res, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Dist-want) > 1e-9 {
			t.Fatalf("query %d: %v != brute force %v", qi, res.Dist, want)
		}
	}
}

func TestAppendFlushCompact(t *testing.T) {
	// Tiny memtable: appends roll over into many runs, triggering tiered
	// compaction.
	ix, data, _ := buildFixture(t, 64*recordSize)
	defer ix.Close()
	gen := dataset.NewSeismic()
	batch := dataset.Generate(gen, 400, tLen, 777)
	if err := ix.Insert(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if ix.Count() != tCount+400 {
		t.Fatalf("Count = %d", ix.Count())
	}
	// 400 appends / 64-record memtable = 7 flushes; with fanout 3 they
	// must have compacted well below 8 runs.
	if ix.Shape().Runs >= 8 {
		t.Fatalf("compaction did not run: %d runs", ix.Shape().Runs)
	}
	// Every appended series findable at distance 0.
	for _, i := range []int{0, 133, 399} {
		res, err := ix.ExactSearch(context.Background(), batch[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist > 1e-9 {
			t.Fatalf("appended series %d not found: %v", i, res.Dist)
		}
		if res.Pos < tCount {
			t.Fatalf("appended series found at stale position %d", res.Pos)
		}
	}
	// Old data still correct.
	want := bruteForce1NN(data[5], append(append([]series.Series{}, data...), batch...))
	res, err := ix.ExactSearch(context.Background(), data[5], 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Dist-want) > 1e-9 {
		t.Fatalf("post-compaction search wrong: %v vs %v", res.Dist, want)
	}
}

func TestCompactionTotalRecordsPreserved(t *testing.T) {
	ix, _, _ := buildFixture(t, 32*recordSize)
	defer ix.Close()
	batch := dataset.Generate(dataset.NewRandomWalk(), 300, tLen, 5)
	if err := ix.Insert(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range ix.runs {
		total += r.count
		// Sorted within each run.
		requireSorted(t, r)
	}
	total += int64(len(ix.mem))
	if total != tCount+300 {
		t.Fatalf("records across runs = %d, want %d", total, tCount+300)
	}
}

func TestFlushIsSequential(t *testing.T) {
	ix, _, fs := buildFixture(t, 1<<20)
	defer ix.Close()
	batch := dataset.Generate(dataset.NewRandomWalk(), 200, tLen, 6)
	before := fs.Stats().Snapshot()
	if err := ix.Insert(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	delta := fs.Stats().Snapshot().Sub(before)
	// Appends + one flush: no read-modify-write of existing structures.
	if delta.RandWrites > 5 {
		t.Fatalf("LSM writes should be append-only/sequential: %+v", delta)
	}
}

func TestApproxSearchFindsMember(t *testing.T) {
	ix, data, _ := buildFixture(t, 1<<20)
	defer ix.Close()
	res, err := ix.ApproxSearch(context.Background(), data[77], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 {
		t.Fatalf("member should be found in its own key window: %v", res.Dist)
	}
}

func TestEmptyAndValidation(t *testing.T) {
	fs := storage.NewMemFS()
	dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), 0, tLen, 1)
	ix, err := Build(Options{FS: fs, Name: "l", S: tSummarizer(t), RawName: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Count() != 0 || ix.Shape().Runs != 0 {
		t.Fatal("expected empty index with no runs")
	}
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 2)[0]
	if _, err := ix.ExactSearch(context.Background(), q, 0); err == nil {
		t.Fatal("expected error on empty index")
	}
	if _, err := Build(Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestMemtableQueriesSeeFreshData(t *testing.T) {
	// Data in the memtable (not yet flushed) must be visible to queries.
	ix, _, _ := buildFixture(t, 1<<20) // big memtable: no auto-flush
	defer ix.Close()
	batch := dataset.Generate(dataset.NewAstronomy(), 10, tLen, 31)
	if err := ix.Insert(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if ix.Shape().Runs != 1 {
		t.Fatalf("batch should still be in the memtable, runs=%d", ix.Shape().Runs)
	}
	res, err := ix.ExactSearch(context.Background(), batch[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 {
		t.Fatalf("memtable series not visible: %v", res.Dist)
	}
}
