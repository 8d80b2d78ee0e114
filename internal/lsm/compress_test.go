package lsm

import (
	"context"
	"fmt"
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
func buildPair(t *testing.T, checksums bool, memBudget int64) (roomy, tiny *Index, tinyFS *storage.MemFS, data []series.Series) {
	t.Helper()
	gen := dataset.NewRandomWalk()
	data = dataset.Generate(gen, tCount, tLen, 42)
	mk := func(tinyCache bool) (*Index, *storage.MemFS) {
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
			Fanout:         3,
			Window:         40,
			Checksums:      checksums,
		}
		if tinyCache {
			// ~2 decoded blocks resident: far below the full key set.
			opt.Cache = blockcache.New(64 << 10)
		}
		ix, err := Build(opt)
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
func requireSameAnswers(t *testing.T, roomy, tiny *Index, data []series.Series) {
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
		if len(w1.Below) != len(w2.Below) || len(w1.Above) != len(w2.Above) {
			t.Fatalf("query %d window sizes diverge: %d/%d vs %d/%d",
				qi, len(w1.Below), len(w1.Above), len(w2.Below), len(w2.Above))
		}
		for i := range w1.Below {
			if w1.Below[i].Key != w2.Below[i].Key || w1.Below[i].Pos != w2.Below[i].Pos {
				t.Fatalf("query %d window below[%d] diverges", qi, i)
			}
		}
		for i := range w1.Above {
			if w1.Above[i].Key != w2.Above[i].Key || w1.Above[i].Pos != w2.Above[i].Pos {
				t.Fatalf("query %d window above[%d] diverges", qi, i)
			}
		}
	}
}

// TestCompressedConformance: every query answer from an index whose cache
// is too small to hold the key set — bulk-built, then grown through
// append/flush/compaction — must be byte-identical to the same index behind
// a cache that holds everything, and exact answers must equal brute force,
// with and without the checksum layer underneath.
func TestCompressedConformance(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		t.Run(fmt.Sprintf("checksums=%v", checksums), func(t *testing.T) {
			roomy, tiny, _, data := buildPair(t, checksums, 1<<20)
			defer roomy.Close()
			defer tiny.Close()
			if tiny.Count() != tCount {
				t.Fatalf("Count = %d", tiny.Count())
			}
			requireSameAnswers(t, roomy, tiny, data)

			// Grow both through the memtable → flush → compaction path.
			extra := dataset.Generate(dataset.NewRandomWalk(), 200, tLen, 77)
			for _, ix := range []*Index{roomy, tiny} {
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
		})
	}
}

// TestCompressedReopen: closing and reopening an index behind the tiny
// cache keeps answers byte-identical.
func TestCompressedReopen(t *testing.T) {
	roomy, tiny, tinyFS, data := buildPair(t, true, 1<<20)
	defer roomy.Close()
	extra := dataset.Generate(dataset.NewRandomWalk(), 100, tLen, 77)
	// Grow the roomy side identically before comparing post-reopen.
	growth := func(ix *Index) {
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
	reopened, err := Open(Options{
		FS:             tinyFS,
		Name:           "lsm",
		S:              tSummarizer(t),
		MemBudgetBytes: 1 << 20,
		Window:         40,
		Cache:          blockcache.New(64 << 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireSameAnswers(t, roomy, reopened, append(data, extra...))
}

// TestCompressedRebuildQuarantined: corrupt one run file; a degraded reopen
// quarantines it, and RebuildQuarantined re-derives the lost records from
// the raw dataset into a fresh run with byte-identical answers.
func TestCompressedRebuildQuarantined(t *testing.T) {
	roomy, tiny, tinyFS, data := buildPair(t, true, 1<<14) // small memtable: several runs
	defer roomy.Close()
	if err := tiny.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the first run file's payload.
	name := "lsm.run.000000"
	b, err := storage.ReadFileAll(tinyFS, name)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := storage.WriteFileAtomic(tinyFS, name, b); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(Options{
		FS:             tinyFS,
		Name:           "lsm",
		S:              tSummarizer(t),
		MemBudgetBytes: 1 << 14,
		Window:         40,
		AllowDegraded:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if !reopened.Degraded() {
		t.Fatal("corrupt run not quarantined")
	}
	if err := reopened.RebuildQuarantined(); err != nil {
		t.Fatal(err)
	}
	if reopened.Degraded() {
		t.Fatal("still degraded after rebuild")
	}
	if reopened.Count() != tCount {
		t.Fatalf("Count = %d after rebuild", reopened.Count())
	}
	requireSameAnswers(t, roomy, reopened, data)
}
