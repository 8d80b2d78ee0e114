package lsm

import (
	"context"
	"math"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
)

// buildPair builds the same dataset twice — once behind the default cache,
// which holds every decoded block, once behind a deliberately tiny one (a
// handful of blocks: the key set cannot fit, so every query decodes on
// demand) — and returns both handles plus the tiny side's FS for reopen
// tests.
func buildPair(t *testing.T, memBudget int64) (roomy, tiny *lone, tinyFS *storage.MemFS, data []series.Series) {
	t.Helper()
	gen := dataset.NewRandomWalk()
	data = dataset.Generate(gen, tCount, tLen, 42)
	mk := func(tinyCache bool) (*lone, *storage.MemFS) {
		fs := storage.NewMemFS()
		if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
			t.Fatal(err)
		}
		opt := Options{
			FS:             fs,
			Name:           "lsm",
			S:              tSummarizer(t),
			RawName:        "raw",
			MemBudgetBytes: memBudget,
		}
		if tinyCache {
			// ~2 decoded blocks resident: far below the full key set.
			opt.Cache = blockcache.New(64 << 10)
		}
		ix, err := buildLone(opt)
		if err != nil {
			t.Fatal(err)
		}
		return ix, fs
	}
	roomy, _ = mk(false)
	tiny, tinyFS = mk(true)
	return roomy, tiny, tinyFS, data
}

// requireSameAnswers runs approximate, exact, and window queries against
// both handles and requires byte-identical results, and exact answers equal
// to a brute-force scan of data.
func requireSameAnswers(t *testing.T, roomy, tiny *lone, data []series.Series) {
	t.Helper()
	qs := dataset.Queries(dataset.NewRandomWalk(), 10, tLen, 9)
	for qi, q := range qs {
		ar1, err1 := roomy.ApproxSearch(context.Background(), q, 0)
		ar2, err2 := tiny.ApproxSearch(context.Background(), q, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %d approx: %v / %v", qi, err1, err2)
		}
		if ar1.Pos != ar2.Pos || ar1.Dist != ar2.Dist {
			t.Fatalf("query %d approx diverges: (%d, %v) vs (%d, %v)",
				qi, ar1.Pos, ar1.Dist, ar2.Pos, ar2.Dist)
		}
		er1, err1 := roomy.ExactSearch(context.Background(), q, 0)
		er2, err2 := tiny.ExactSearch(context.Background(), q, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %d exact: %v / %v", qi, err1, err2)
		}
		if er1.Pos != er2.Pos || er1.Dist != er2.Dist {
			t.Fatalf("query %d exact diverges: (%d, %v) vs (%d, %v)",
				qi, er1.Pos, er1.Dist, er2.Pos, er2.Dist)
		}
		if want := bruteForce1NN(q, data); math.Abs(er2.Dist-want) > 1e-9 {
			t.Fatalf("query %d exact: %v, brute force %v", qi, er2.Dist, want)
		}
		w1, err1 := roomy.ApproxWindowCands(context.Background(), q, 0)
		w2, err2 := tiny.ApproxWindowCands(context.Background(), q, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %d window: %v / %v", qi, err1, err2)
		}
		if len(w1.Cands) != len(w2.Cands) || w1.Split != w2.Split {
			t.Fatalf("query %d window sizes diverge: %d split at %d vs %d split at %d",
				qi, len(w1.Cands), w1.Split, len(w2.Cands), w2.Split)
		}
		for i := range w1.Cands {
			if w1.Cands[i].Key != w2.Cands[i].Key || w1.Cands[i].Pos != w2.Cands[i].Pos {
				t.Fatalf("query %d window cands[%d] diverges", qi, i)
			}
		}
	}
}

// TestCompressedConformance: every query answer from an index whose cache
// is too small to hold the key set — bulk-built, then grown through
// append/flush/compaction — must be byte-identical to the same index behind
// a cache that holds everything, and exact answers must equal brute force.
func TestCompressedConformance(t *testing.T) {
	roomy, tiny, _, data := buildPair(t, 1<<20)
	defer roomy.Close()
	defer tiny.Close()
	if tiny.Count() != tCount {
		t.Fatalf("Count = %d", tiny.Count())
	}
	requireSameAnswers(t, roomy, tiny, data)

	// Grow both through the memtable → flush → compaction path.
	extra := dataset.Generate(dataset.NewRandomWalk(), 200, tLen, 77)
	for _, ix := range []*lone{roomy, tiny} {
		for i := 0; i < len(extra); i += 20 {
			if err := ix.Insert(context.Background(), extra[i:i+20]); err != nil {
				t.Fatal(err)
			}
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	requireSameAnswers(t, roomy, tiny, append(data, extra...))
	// No run's key set may be resident on the tiny side: the cache
	// did real work, within its budget.
	st := tiny.CacheStats()
	if st.Hits+st.Misses == 0 || st.ScanDecodes == 0 {
		t.Fatalf("undersized cache saw no probes or no scan decodes: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("cache holds %d resident bytes, budget is %d", st.Bytes, st.Budget)
	}
}

// TestCompressedReopen: closing and reopening an index behind the tiny
// cache keeps answers byte-identical.
func TestCompressedReopen(t *testing.T) {
	roomy, tiny, tinyFS, data := buildPair(t, 1<<20)
	defer roomy.Close()
	extra := dataset.Generate(dataset.NewRandomWalk(), 100, tLen, 77)
	// Grow the roomy side identically before comparing post-reopen.
	growth := func(ix *lone) {
		for i := 0; i < len(extra); i += 20 {
			if err := ix.Insert(context.Background(), extra[i:i+20]); err != nil {
				t.Fatal(err)
			}
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	growth(roomy)
	growth(tiny)
	if err := tiny.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := openLone(Options{
		FS:             tinyFS,
		Name:           "lsm",
		S:              tSummarizer(t),
		RawName:        "raw",
		MemBudgetBytes: 1 << 20,
		Cache:          blockcache.New(64 << 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireSameAnswers(t, roomy, reopened, append(data, extra...))
}
