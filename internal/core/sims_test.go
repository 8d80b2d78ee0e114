package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// The tests in this file pin what the fused lower-bound filter must not
// change: answers for every QueryWorkers, and — with one worker, where the
// scan is serial and visit counts are deterministic — the Visited* counters
// the benchmark's count metrics are built from. The expectation comes from
// simsRef, a replay of the verification phase as it ran before the filter:
// a lower bound for EVERY record from the direct kernel on the
// de-interleaved word, then the serial scan over all of them.

// simsRef holds one index's sorted summary array with a reference lower
// bound per record, and the leaf spans (ordinal ranges) when materialized.
type simsRef struct {
	data      []series.Series
	positions []int64
	lbs       []float64
	leaves    [][2]int
}

func newSimsRef(s *summary.Summarizer, q series.Series, data []series.Series, keys []summary.Key, positions []int64, leaves [][2]int) simsRef {
	p := s.Params()
	qPAA, _ := s.PAA(q, nil)
	lbs := make([]float64, len(keys))
	for i, k := range keys {
		lbs[i] = s.MinDistSqPAAToSAX(qPAA, summary.Deinterleave(k, p.Segments, p.CardBits))
	}
	return simsRef{data: data, positions: positions, lbs: lbs, leaves: leaves}
}

// scan replays a serial verification scan. keep says whether a lower bound
// still passes the running bound, visit measures a record and tightens it.
// Non-materialized: every record that passed at collection time (against
// the seed bound, which is what keep sees first), in raw position order.
// Materialized: leaf by leaf in key order, a leaf being read when any of
// its records passes.
func (r simsRef) scan(keep func(lb float64) bool, visit func(ord int)) (records, leaves int64) {
	if r.leaves == nil {
		var ords []int
		for i, lb := range r.lbs {
			if keep(lb) {
				ords = append(ords, i)
			}
		}
		sort.Slice(ords, func(a, b int) bool { return r.positions[ords[a]] < r.positions[ords[b]] })
		for _, i := range ords {
			if keep(r.lbs[i]) {
				visit(i)
				records++
			}
		}
		return records, 0
	}
	for _, span := range r.leaves {
		read := false
		for i := span[0]; i < span[1] && !read; i++ {
			read = keep(r.lbs[i])
		}
		if !read {
			continue
		}
		leaves++
		for i := span[0]; i < span[1]; i++ {
			if keep(r.lbs[i]) {
				visit(i)
				records++
			}
		}
	}
	return records, leaves
}

// exact replays 1-NN verification from a squared-space seed.
func (r simsRef) exact(q series.Series, seed Result) Result {
	best := seed
	records, leaves := r.scan(
		func(lb float64) bool { return lb < best.Dist },
		func(i int) {
			x := r.data[r.positions[i]]
			var sq float64
			ok := true
			if r.leaves == nil {
				sq, ok = series.SquaredEDEarlyAbandon(q, x, best.Dist)
			} else {
				sq, _ = series.SquaredED(q, x)
			}
			if ok && sq < best.Dist {
				best.Dist, best.Pos = sq, r.positions[i]
			}
		})
	best.VisitedRecords += records
	best.VisitedLeaves += leaves
	return finishResult(best)
}

// knn replays k-NN verification from the seeding heap's items.
func (r simsRef) knn(q series.Series, k int, seed []Neighbor, stats Result) ([]Neighbor, Result) {
	lh := shard.NewKNNHeap(k)
	for _, n := range seed {
		lh.Offer(n)
	}
	records, leaves := r.scan(
		func(lb float64) bool { return lb <= lh.Bound() },
		func(i int) {
			x := r.data[r.positions[i]]
			var sq float64
			ok := true
			if r.leaves == nil {
				sq, ok = series.SquaredEDEarlyAbandon(q, x, lh.Bound())
			} else {
				sq, _ = series.SquaredED(q, x)
			}
			if ok {
				lh.Offer(Neighbor{Pos: r.positions[i], Dist: sq})
			}
		})
	stats.VisitedRecords += records
	stats.VisitedLeaves += leaves
	out := lh.Sorted()
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out, stats
}

// simsShapes are the summarizations the path tests run under: the two
// whole-byte-row shapes (transpose kernels) and one that is not (reference
// loop).
var simsShapes = []summary.Params{
	{SeriesLen: tLen, Segments: 16, CardBits: 8},
	{SeriesLen: tLen, Segments: 8, CardBits: 6},
	{SeriesLen: tLen, Segments: 4, CardBits: 8},
}

// simsFixture writes the shared dataset and returns it with queries that
// include two members of it (seed distance zero, so the limit is zero).
func simsFixture(t *testing.T, p summary.Params, materialized bool) (Options, []series.Series, []series.Series) {
	t.Helper()
	fs, data := fixtureFS(t)
	s, err := summary.NewSummarizer(p)
	if err != nil {
		t.Fatal(err)
	}
	opt := baseOptions(t, storage.FS(fs), materialized)
	opt.S = s
	queries := append(dataset.Queries(dataset.NewRandomWalk(), 12, tLen, 77), data[3], data[tCount-1])
	return opt, data, queries
}

var workerSweep = []int{1, 2, 8}

func TestTreeExactMatchesReferencePass(t *testing.T) {
	for _, p := range simsShapes {
		for _, mat := range []bool{false, true} {
			opt, data, queries := simsFixture(t, p, mat)
			ix, err := BuildTree(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			var leaves [][2]int
			if mat {
				dir, bases := ix.leafBases()
				for li, id := range dir {
					leaves = append(leaves, [2]int{bases[li], bases[li] + ix.bt.LeafRecordCount(id)})
				}
			}
			for qi, q := range queries {
				seed, err := ix.approxSearch(context.Background(), q, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := newSimsRef(opt.S, q, data, ix.keys, ix.positions, leaves).exact(q, seed)
				for _, w := range workerSweep {
					ix.opt.QueryWorkers = w
					got, err := ix.ExactSearch(context.Background(), q, 1)
					if err != nil {
						t.Fatal(err)
					}
					if got.Pos != want.Pos || got.Dist != want.Dist || (w == 1 && got != want) {
						t.Fatalf("%dx%d mat=%v query %d workers=%d: %+v, reference pass %+v", p.Segments, p.CardBits, mat, qi, w, got, want)
					}
				}
			}
		}
	}
}

func TestTrieExactMatchesReferencePass(t *testing.T) {
	for _, p := range simsShapes {
		for _, mat := range []bool{false, true} {
			opt, data, queries := simsFixture(t, p, mat)
			ix, err := BuildTrie(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			var leaves [][2]int
			if mat {
				for li, leaf := range ix.leaves {
					leaves = append(leaves, [2]int{ix.leafStart[li], ix.leafStart[li] + int(leaf.Count)})
				}
			}
			for qi, q := range queries {
				seed, err := ix.approxSearch(context.Background(), q, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := newSimsRef(opt.S, q, data, ix.keys, ix.positions, leaves).exact(q, seed)
				for _, w := range workerSweep {
					ix.opt.QueryWorkers = w
					got, err := ix.ExactSearch(context.Background(), q, 1)
					if err != nil {
						t.Fatal(err)
					}
					if got.Pos != want.Pos || got.Dist != want.Dist || (w == 1 && got != want) {
						t.Fatalf("%dx%d mat=%v query %d workers=%d: %+v, reference pass %+v", p.Segments, p.CardBits, mat, qi, w, got, want)
					}
				}
			}
		}
	}
}

func TestKNNMatchesReferencePass(t *testing.T) {
	for _, p := range simsShapes {
		for _, mat := range []bool{false, true} {
			opt, data, queries := simsFixture(t, p, mat)
			ix, err := BuildTree(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			var leaves [][2]int
			if mat {
				dir, bases := ix.leafBases()
				for li, id := range dir {
					leaves = append(leaves, [2]int{bases[li], bases[li] + ix.bt.LeafRecordCount(id)})
				}
			}
			for qi, q := range queries {
				for _, k := range []int{1, 7, tCount + 5} {
					h := shard.NewKNNHeap(k)
					stats := Result{Pos: -1, Dist: math.Inf(1)}
					if err := ix.knnSeed(context.Background(), q, 1, h, &stats); err != nil {
						t.Fatal(err)
					}
					want, wantStats := newSimsRef(opt.S, q, data, ix.keys, ix.positions, leaves).knn(q, k, h.Items(), stats)
					for _, w := range workerSweep {
						ix.opt.QueryWorkers = w
						got, gotStats, err := ix.ExactSearchKNN(context.Background(), q, k, 1)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%dx%d mat=%v query %d k=%d workers=%d: %d neighbors, reference pass %d", p.Segments, p.CardBits, mat, qi, k, w, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%dx%d mat=%v query %d k=%d workers=%d: neighbor %d is %+v, reference pass %+v", p.Segments, p.CardBits, mat, qi, k, w, i, got[i], want[i])
							}
						}
						if w == 1 && (gotStats.VisitedRecords != wantStats.VisitedRecords || gotStats.VisitedLeaves != wantStats.VisitedLeaves) {
							t.Fatalf("%dx%d mat=%v query %d k=%d: visited %d records %d leaves, reference pass %d and %d", p.Segments, p.CardBits, mat, qi, k,
								gotStats.VisitedRecords, gotStats.VisitedLeaves, wantStats.VisitedRecords, wantStats.VisitedLeaves)
						}
					}
				}
			}
		}
	}
}
