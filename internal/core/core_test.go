package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

const (
	tLen   = 64
	tCount = 700
)

func tSummarizer(t *testing.T) *summary.Summarizer {
	t.Helper()
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 8, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fixtureFS(t *testing.T) (*storage.MemFS, []series.Series) {
	t.Helper()
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	return fs, dataset.Generate(gen, tCount, tLen, 42)
}

func baseOptions(t *testing.T, fs storage.FS, materialized bool) Options {
	return Options{
		FS:             fs,
		Name:           "cx",
		S:              tSummarizer(t),
		RawName:        "raw",
		Materialized:   materialized,
		LeafCap:        20,
		MemBudgetBytes: 1 << 20,
	}
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

func TestBuildTreeShape(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, _ := fixtureFS(t)
		ix, err := BuildTree(baseOptions(t, fs, mat))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if ix.Count() != tCount {
			t.Fatalf("Count = %d", ix.Count())
		}
		// Full fill factor: leaves completely packed (bar the last).
		if fill := ix.Shape().LeafFill; fill < 0.9 {
			t.Fatalf("Coconut-Tree fill %v — the paper's headline is ~97%%", fill)
		}
		wantLeaves := (tCount + 19) / 20
		if got := ix.Shape().Leaves; got != wantLeaves {
			t.Fatalf("NumLeaves = %d, want %d", got, wantLeaves)
		}
		if ix.SizeBytes() == 0 {
			t.Fatal("empty index file")
		}
		// The sorted temp file must be cleaned up.
		if fs.Exists("cx.sorted") {
			t.Fatal("sorted temp file left behind")
		}
	}
}

func TestBuildTreeSortedOrderAligned(t *testing.T) {
	fs, _ := fixtureFS(t)
	ix, err := BuildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// keys must be sorted and aligned with tree scan order.
	for i := 1; i < len(ix.keys); i++ {
		if ix.keys[i].Less(ix.keys[i-1]) {
			t.Fatal("summary array not sorted")
		}
	}
	scanned, err := ix.ScanAllPositions()
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned) != len(ix.positions) {
		t.Fatalf("scan has %d records, array %d", len(scanned), len(ix.positions))
	}
	for i := range scanned {
		if scanned[i] != ix.positions[i] {
			t.Fatalf("summary array misaligned at %d", i)
		}
	}
	// Every position 0..N-1 appears exactly once.
	seen := make(map[int64]bool, len(scanned))
	for _, p := range scanned {
		if seen[p] {
			t.Fatalf("duplicate position %d", p)
		}
		seen[p] = true
	}
	if len(seen) != tCount {
		t.Fatalf("positions missing: %d of %d", len(seen), tCount)
	}
}

func TestTreeConstructionIsSequential(t *testing.T) {
	fs, _ := fixtureFS(t)
	before := fs.Stats().Snapshot()
	ix, err := BuildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	delta := fs.Stats().Snapshot().Sub(before)
	// Bottom-up bulk loading: O(N/B) sequential I/O, seeks only per stream.
	if delta.Seeks() > 50 {
		t.Fatalf("Coconut-Tree build should be sequential, got %+v", delta)
	}
}

func TestTreeApproxSearch(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, data := fixtureFS(t)
		ix, err := BuildTree(baseOptions(t, fs, mat))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		qs := dataset.Queries(dataset.NewRandomWalk(), 10, tLen, 7)
		for _, q := range qs {
			res, err := ix.ApproxSearch(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Pos < 0 || res.Pos >= tCount {
				t.Fatalf("approx pos %d out of range", res.Pos)
			}
			want, _ := series.ED(q, data[res.Pos])
			if math.Abs(want-res.Dist) > 1e-9 {
				t.Fatalf("approx distance %v != recomputed %v", res.Dist, want)
			}
			// Radius improves (or equals) the approximate answer.
			res5, err := ix.ApproxSearch(context.Background(), q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if res5.Dist > res.Dist+1e-12 {
				t.Fatalf("radius 5 answer worse than radius 0: %v vs %v", res5.Dist, res.Dist)
			}
			if res5.VisitedLeaves <= res.VisitedLeaves {
				t.Fatal("radius should visit more leaves")
			}
		}
	}
}

// TestApproxWindowMatchesReference holds the window code the tree and the
// trie share (windowCands, ApproxWindow.search) to a linear reference: the
// half-windows around the query key's insertion point — also before the
// first key, past the last, and wider than the index — with each
// candidate's key, position, ordinal and lower bound, the leaves they span,
// and an answer equal to the nearest series of the window.
func TestApproxWindowMatchesReference(t *testing.T) {
	fs, data := fixtureFS(t)
	queries := dataset.Queries(dataset.NewRandomWalk(), 6, tLen, 7)
	low, high := make(series.Series, tLen), make(series.Series, tLen)
	for i := range low {
		low[i], high[i] = -1e6+float64(i), 1e6-float64(i)
	}
	queries = append(queries, low, high, data[3].Clone())
	for _, mat := range []bool{false, true} {
		opt := baseOptions(t, fs, mat)
		tree, err := BuildTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer tree.Close()
		opt.Name = "cx-trie"
		trie, err := BuildTrie(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer trie.Close()
		_, bases := tree.leafBases()
		for name, ix := range map[string]struct {
			keys      []summary.Key
			positions []int64
			leafStart []int
			window    func(series.Series, int) (ApproxWindow, error)
			search    func(context.Context, series.Series, int) (Result, error)
		}{
			"tree": {tree.keys, tree.positions, bases, tree.approxWindow, tree.approxSearch},
			"trie": {trie.keys, trie.positions, trie.leafStart, trie.approxWindow, trie.approxSearch},
		} {
			for qi, q := range queries {
				for _, radius := range []int{0, 1, 3, 100} {
					key, _ := opt.S.KeyOf(q)
					qPAA, _ := opt.S.PAA(q, nil)
					half := tree.opt.ApproxWindow * (radius + 1) / 2
					ins := 0
					for ins < len(ix.keys) && ix.keys[ins].Less(key) {
						ins++
					}
					var below, above []window.Cand
					leaves := map[int]bool{}
					best := Result{Pos: -1, Dist: math.Inf(1)}
					for i := max(ins-half, 0); i < min(ins+half, len(ix.keys)); i++ {
						sax := summary.Deinterleave(ix.keys[i], opt.S.Params().Segments, opt.S.Params().CardBits)
						c := window.Cand{Key: ix.keys[i], Pos: ix.positions[i], Ord: i, LB: opt.S.MinDistSqPAAToSAX(qPAA, sax)}
						if i < ins {
							below = append(below, c)
						} else {
							above = append(above, c)
						}
						leaves[leafOfOrd(ix.leafStart, i)] = true
						if sq, _ := series.SquaredED(q, data[c.Pos]); sq < best.Dist {
							best.Pos, best.Dist = c.Pos, sq
						}
					}
					aw, err := ix.window(q, radius)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(aw.Below, below) || !slices.Equal(aw.Above, above) || aw.Leaves != int64(len(leaves)) {
						t.Fatalf("%s mat=%v query %d radius %d: window %d+%d over %d leaves, reference %d+%d over %d",
							name, mat, qi, radius, len(aw.Below), len(aw.Above), aw.Leaves, len(below), len(above), len(leaves))
					}
					got, err := ix.search(context.Background(), q, radius)
					if err != nil {
						t.Fatal(err)
					}
					if got.Pos != best.Pos || got.Dist != best.Dist || got.VisitedLeaves != aw.Leaves || got.VisitedRecords < 1 || got.VisitedRecords > int64(len(below)+len(above)) {
						t.Fatalf("%s mat=%v query %d radius %d: %+v, nearest of the window %+v", name, mat, qi, radius, got, best)
					}
				}
			}
		}
	}
}

func TestTreeExactMatchesBruteForce(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, data := fixtureFS(t)
		ix, err := BuildTree(baseOptions(t, fs, mat))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		qs := dataset.Queries(dataset.NewRandomWalk(), 15, tLen, 9)
		for qi, q := range qs {
			want := bruteForce1NN(q, data)
			res, err := ix.ExactSearch(context.Background(), q, 1)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Dist-want) > 1e-9 {
				t.Fatalf("mat=%v query %d: %v != brute force %v", mat, qi, res.Dist, want)
			}
		}
	}
}

func TestTreeExactPrunes(t *testing.T) {
	fs, _ := fixtureFS(t)
	ix, err := BuildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	qs := dataset.Queries(dataset.NewRandomWalk(), 10, tLen, 11)
	var visited int64
	for _, q := range qs {
		res, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		visited += res.VisitedRecords
	}
	if avg := float64(visited) / 10; avg >= tCount {
		t.Fatalf("SIMS visited %v on average — no pruning", avg)
	}
}

func TestTreeMemberFound(t *testing.T) {
	fs, data := fixtureFS(t)
	ix, err := BuildTree(baseOptions(t, fs, true))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	res, err := ix.ExactSearch(context.Background(), data[55], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 || res.Pos != 55 {
		t.Fatalf("member not found: pos=%d dist=%v", res.Pos, res.Dist)
	}
}

func TestTreeInsertBatch(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, data := fixtureFS(t)
		opt := baseOptions(t, fs, mat)
		ix, err := BuildTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		batch := dataset.Generate(dataset.NewSeismic(), 60, tLen, 777)
		if err := ix.Insert(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if ix.Count() != tCount+60 {
			t.Fatalf("Count = %d", ix.Count())
		}
		// Newly inserted series must be findable at distance 0.
		res, err := ix.ExactSearch(context.Background(), batch[13], 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist > 1e-9 {
			t.Fatalf("inserted series not found: %v", res.Dist)
		}
		if res.Pos < tCount {
			t.Fatalf("inserted series at stale position %d", res.Pos)
		}
		// Old data still reachable.
		want := bruteForce1NN(data[5], append(append([]series.Series{}, data...), batch...))
		res, err = ix.ExactSearch(context.Background(), data[5], 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Dist-want) > 1e-9 {
			t.Fatalf("post-insert exact search wrong: %v vs %v", res.Dist, want)
		}
	}
}

func TestBuildTrieShape(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, _ := fixtureFS(t)
		ix, err := BuildTrie(baseOptions(t, fs, mat))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if ix.Count() != tCount {
			t.Fatalf("Count = %d", ix.Count())
		}
		if err := ix.Trie().CheckInvariants(8); err != nil {
			t.Fatal(err)
		}
		if ix.Shape().Leaves == 0 || ix.SizeBytes() == 0 {
			t.Fatal("trie index empty")
		}
		// Leaf counts must cover all records.
		var total int64
		for _, l := range ix.leaves {
			total += l.Count
			if l.Count > int64(ix.opt.LeafCap) {
				// Only allowed for fully-identical-key degenerate leaves.
				t.Logf("oversized leaf with %d records", l.Count)
			}
		}
		if total != tCount {
			t.Fatalf("leaves hold %d records", total)
		}
		if fs.Exists("cx.sorted") {
			t.Fatal("sorted temp file left behind")
		}
	}
}

func TestTrieLeavesAreContiguousAndSorted(t *testing.T) {
	fs, _ := fixtureFS(t)
	ix, err := BuildTrie(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// Leaves tile the sorted run in leaf order with no gaps.
	next := 0
	for i, l := range ix.leaves {
		if ix.leafStart[i] != next {
			t.Fatalf("leaf %d not contiguous: starts at record %d, want %d", i, ix.leafStart[i], next)
		}
		next += int(l.Count)
	}
	// Records across leaves follow global key order.
	var prev summary.Key
	first := true
	recSize := ix.opt.recordSize()
	for li := range ix.leaves {
		recs, err := ix.readLeafRecords(li)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(recs); off += recSize {
			key, _, _ := decodeRecord(recs[off:off+recSize], false)
			if !first && key.Less(prev) {
				t.Fatal("leaf records out of global z-order")
			}
			prev, first = key, false
		}
	}
}

func TestTrieApproxAndExact(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, data := fixtureFS(t)
		ix, err := BuildTrie(baseOptions(t, fs, mat))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		qs := dataset.Queries(dataset.NewRandomWalk(), 12, tLen, 13)
		for qi, q := range qs {
			res, err := ix.ApproxSearch(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := series.ED(q, data[res.Pos])
			if math.Abs(want-res.Dist) > 1e-9 {
				t.Fatalf("approx distance mismatch")
			}
			ex, err := ix.ExactSearch(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			bf := bruteForce1NN(q, data)
			if math.Abs(ex.Dist-bf) > 1e-9 {
				t.Fatalf("mat=%v query %d: exact %v != brute force %v", mat, qi, ex.Dist, bf)
			}
		}
	}
}

func TestTrieFillLowerThanTree(t *testing.T) {
	// The paper's reason to prefer Coconut-Tree: prefix-aligned leaves
	// cannot be packed as densely as median-split leaves.
	fs, _ := fixtureFS(t)
	trieIx, err := BuildTrie(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer trieIx.Close()
	fs2, _ := fixtureFS(t)
	treeIx, err := BuildTree(baseOptions(t, fs2, false))
	if err != nil {
		t.Fatal(err)
	}
	defer treeIx.Close()
	if trieIx.Shape().LeafFill >= treeIx.Shape().LeafFill {
		t.Fatalf("trie fill %v should be below tree fill %v",
			trieIx.Shape().LeafFill, treeIx.Shape().LeafFill)
	}
}

func TestSmallMemoryBudgetStillCorrect(t *testing.T) {
	// Tiny sort budget: many runs + multi-pass merge, same result.
	fs, data := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	opt.MemBudgetBytes = 8 << 10
	ix, err := BuildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 17)[0]
	want := bruteForce1NN(q, data)
	res, err := ix.ExactSearch(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Dist-want) > 1e-9 {
		t.Fatalf("limited-memory build broken: %v vs %v", res.Dist, want)
	}
}

func TestEmptyDataset(t *testing.T) {
	fs := storage.NewMemFS()
	dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), 0, tLen, 1)
	ix, err := BuildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Count() != 0 {
		t.Fatal("expected empty index")
	}
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 2)[0]
	if _, err := ix.ApproxSearch(context.Background(), q, 0); err == nil {
		t.Fatal("expected error on empty index")
	}
	tx, err := BuildTrie(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if _, err := tx.ApproxSearch(context.Background(), q, 0); err == nil {
		t.Fatal("expected error on empty trie")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := BuildTree(Options{}); err == nil {
		t.Fatal("expected validation error")
	}
	fs := storage.NewMemFS()
	if _, err := BuildTree(Options{FS: fs, Name: "x", S: tSummarizer(t), RawName: "missing", LeafCap: 10}); err == nil {
		t.Fatal("expected error for missing raw file")
	}
}

func TestFillFactorControlsPacking(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	opt.FillFactor = 0.5
	ix, err := BuildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	fill := ix.Shape().LeafFill
	if fill < 0.4 || fill > 0.6 {
		t.Fatalf("fill factor 0.5 gave %v", fill)
	}
}
