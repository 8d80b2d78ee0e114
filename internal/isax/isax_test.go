package isax

import (
	"bytes"
	"math"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

const (
	tLen   = 64
	tCount = 600
)

func tSummarizer(t *testing.T) *summary.Summarizer {
	t.Helper()
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 8, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildFixture writes a dataset and builds an index in the given mode.
func buildFixture(t *testing.T, mode Mode, budget int64) (*Index, []series.Series, *storage.MemFS) {
	t.Helper()
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	data := dataset.Generate(gen, tCount, tLen, 42)
	ix, err := Build(Options{
		FS:             fs,
		Name:           "ix",
		S:              tSummarizer(t),
		RawName:        "raw",
		Mode:           mode,
		LeafCap:        20,
		MemBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, data, fs
}

func bruteForce1NN(q series.Series, data []series.Series) (int64, float64) {
	best, bestPos := math.Inf(1), int64(-1)
	for i, d := range data {
		dist, _ := series.ED(q, d)
		if dist < best {
			best, bestPos = dist, int64(i)
		}
	}
	return bestPos, best
}

func TestBuildAllModes(t *testing.T) {
	for _, mode := range []Mode{ISAX2, ADSFull, ADSPlus} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, _, _ := buildFixture(t, mode, 1<<20)
			defer ix.Close()
			if ix.Count() != tCount {
				t.Fatalf("Count = %d, want %d", ix.Count(), tCount)
			}
			if err := ix.Trie().CheckInvariants(8); err != nil {
				t.Fatal(err)
			}
			if ix.NumLeaves() == 0 {
				t.Fatal("no leaves")
			}
			if ix.SizeBytes() == 0 {
				t.Fatal("index file empty")
			}
		})
	}
}

func TestBuildSmallMemoryForcesFlushes(t *testing.T) {
	// A tiny budget forces many FBL flushes; the index must still be
	// complete and correct, just with more random I/O.
	ix, data, fs := buildFixture(t, ISAX2, 4<<10)
	defer ix.Close()
	if ix.Count() != tCount {
		t.Fatalf("Count = %d", ix.Count())
	}
	snap := fs.Stats().Snapshot()
	if snap.RandWrites < 10 {
		t.Fatalf("expected many random writes from constrained flushing, got %+v", snap)
	}
	q := data[0]
	res, err := ix.ExactSearchTree(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 {
		t.Fatalf("searching for a member should find distance 0, got %v", res.Dist)
	}
}

func TestApproxSearchReturnsRealDistances(t *testing.T) {
	for _, mode := range []Mode{ISAX2, ADSFull, ADSPlus} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, data, _ := buildFixture(t, mode, 1<<20)
			defer ix.Close()
			qs := dataset.Queries(dataset.NewRandomWalk(), 10, tLen, 77)
			for _, q := range qs {
				res, err := ix.ApproxSearch(q)
				if err != nil {
					t.Fatal(err)
				}
				if res.Pos < 0 || res.Pos >= tCount {
					t.Fatalf("approx position %d out of range", res.Pos)
				}
				want, _ := series.ED(q, data[res.Pos])
				if math.Abs(want-res.Dist) > 1e-9 {
					t.Fatalf("approx distance %v != recomputed %v", res.Dist, want)
				}
				if res.VisitedRecords == 0 {
					t.Fatal("approx search should visit records")
				}
			}
		})
	}
}

func TestExactSearchMatchesBruteForce(t *testing.T) {
	for _, mode := range []Mode{ISAX2, ADSFull, ADSPlus} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, data, _ := buildFixture(t, mode, 1<<20)
			defer ix.Close()
			qs := dataset.Queries(dataset.NewRandomWalk(), 15, tLen, 99)
			for qi, q := range qs {
				_, want := bruteForce1NN(q, data)
				tr, err := ix.ExactSearchTree(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(tr.Dist-want) > 1e-9 {
					t.Fatalf("query %d: tree exact %v != brute force %v", qi, tr.Dist, want)
				}
				si, err := ix.ExactSearchSIMS(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(si.Dist-want) > 1e-9 {
					t.Fatalf("query %d: SIMS %v != brute force %v", qi, si.Dist, want)
				}
			}
		})
	}
}

func TestExactSearchPrunes(t *testing.T) {
	ix, _, _ := buildFixture(t, ISAX2, 1<<20)
	defer ix.Close()
	qs := dataset.Queries(dataset.NewRandomWalk(), 10, tLen, 5)
	var visited int64
	for _, q := range qs {
		res, err := ix.ExactSearchSIMS(q)
		if err != nil {
			t.Fatal(err)
		}
		visited += res.VisitedRecords
	}
	avg := float64(visited) / 10
	if avg >= tCount {
		t.Fatalf("SIMS visited %v records on average — no pruning at all", avg)
	}
}

func TestADSPlusAdaptiveSplitting(t *testing.T) {
	ix, data, _ := buildFixture(t, ADSPlus, 1<<20)
	defer ix.Close()
	before := ix.NumLeaves()
	// ADS+ builds with large leaves; queries split the ones they touch.
	qs := dataset.Queries(dataset.NewRandomWalk(), 30, tLen, 31)
	for _, q := range qs {
		if _, err := ix.ApproxSearch(q); err != nil {
			t.Fatal(err)
		}
	}
	after := ix.NumLeaves()
	if after < before {
		t.Fatalf("leaf count shrank: %d -> %d", before, after)
	}
	if err := ix.Trie().CheckInvariants(8); err != nil {
		t.Fatal(err)
	}
	// Correctness is unaffected by adaptive splits.
	_, want := bruteForce1NN(data[3], data)
	res, err := ix.ExactSearchSIMS(data[3])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Dist-want) > 1e-9 {
		t.Fatalf("post-split exact search wrong: %v vs %v", res.Dist, want)
	}
}

func TestAppendThenSearch(t *testing.T) {
	for _, mode := range []Mode{ISAX2, ADSPlus} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, _, _ := buildFixture(t, mode, 1<<20)
			defer ix.Close()
			batch := dataset.Generate(dataset.NewSeismic(), 50, tLen, 1234)
			if err := ix.Append(batch); err != nil {
				t.Fatal(err)
			}
			if err := ix.FlushBuffers(); err != nil {
				t.Fatal(err)
			}
			if ix.Count() != tCount+50 {
				t.Fatalf("Count after append = %d", ix.Count())
			}
			// The appended series must now be findable at distance 0.
			res, err := ix.ExactSearchSIMS(batch[7])
			if err != nil {
				t.Fatal(err)
			}
			if res.Dist > 1e-9 {
				t.Fatalf("appended series not found: dist %v", res.Dist)
			}
			if res.Pos < tCount {
				t.Fatalf("appended series found at pre-append position %d", res.Pos)
			}
		})
	}
}

func TestLeafFillIsLow(t *testing.T) {
	// Prefix splitting leaves most leaves nearly empty — the paper's
	// central storage observation (§3.2, leaves ~10% full on average).
	ix, _, _ := buildFixture(t, ISAX2, 1<<20)
	defer ix.Close()
	if fill := ix.AvgLeafFill(); fill > 0.8 {
		t.Fatalf("prefix-split leaf fill suspiciously high: %v", fill)
	}
}

func TestOptionsValidation(t *testing.T) {
	fs := storage.NewMemFS()
	s := tSummarizer(t)
	bad := []Options{
		{},
		{FS: fs},
		{FS: fs, Name: "x"},
		{FS: fs, Name: "x", S: s},
		{FS: fs, Name: "x", S: s, RawName: "raw", LeafCap: 1},
	}
	for i, opt := range bad {
		if _, err := Build(opt); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Missing raw file.
	if _, err := Build(Options{FS: fs, Name: "x", S: s, RawName: "nope", LeafCap: 10}); err == nil {
		t.Error("expected error for missing raw file")
	}
}

func TestEmptyDataset(t *testing.T) {
	fs := storage.NewMemFS()
	if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), 0, tLen, 1); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(Options{FS: fs, Name: "ix", S: tSummarizer(t), RawName: "raw", Mode: ISAX2, LeafCap: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Count() != 0 {
		t.Fatalf("Count = %d", ix.Count())
	}
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 2)[0]
	if _, err := ix.ApproxSearch(q); err == nil {
		t.Fatal("expected error searching empty index")
	}
}

func TestMaterializedLeavesServeRawData(t *testing.T) {
	// For materialized indexes the approximate search must not touch the
	// raw file at all — the leaves carry the data.
	ix, _, fs := buildFixture(t, ADSFull, 1<<20)
	defer ix.Close()
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 3)[0]
	before := fs.Stats().Snapshot()
	if _, err := ix.ApproxSearch(q); err != nil {
		t.Fatal(err)
	}
	// Allow the leaf read but no raw-file reads beyond it: the leaf file
	// and raw file are distinct, so check via byte accounting — the bytes
	// read must be a multiple of leaf pages, far below tCount series.
	delta := fs.Stats().Snapshot().Sub(before)
	maxLeafBytes := int64(ix.pageSize()) * int64(ix.NumLeaves())
	if delta.BytesRead > maxLeafBytes {
		t.Fatalf("approx search read %d bytes (> all leaves %d)", delta.BytesRead, maxLeafBytes)
	}
}

// TestBuildIsDeterministic: builds of one dataset under one budget small
// enough to flush the first-level buffers many times write the same leaf
// file with the same counted I/O, every time — the buffers drain in root-key
// order, not in the order of a Go map.
func TestBuildIsDeterministic(t *testing.T) {
	for _, mode := range []Mode{ADSPlus, ADSFull, ISAX2} {
		t.Run(mode.String(), func(t *testing.T) {
			var firstStats storage.Snapshot
			var firstLeaves []byte
			for i := 0; i < 3; i++ {
				ix, _, fs := buildFixture(t, mode, 16<<10)
				stats := fs.Stats().Snapshot()
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				leaves, err := storage.ReadFileAll(fs, "ix.leaves")
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					firstStats, firstLeaves = stats, leaves
					continue
				}
				if stats != firstStats || !bytes.Equal(leaves, firstLeaves) {
					t.Fatalf("build %d: %+v and %d leaf-file bytes, build 0: %+v and %d bytes (equal bytes: %v)",
						i, stats, len(leaves), firstStats, len(firstLeaves), bytes.Equal(leaves, firstLeaves))
				}
			}
		})
	}
}
