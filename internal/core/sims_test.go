package core

import (
	"context"
	"fmt"
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
// bound per record, and whether its records are read in ordinal order (a
// materialized index reads its own leaf run) or in position order (the raw
// file).
type simsRef struct {
	data      []series.Series
	positions []int64
	lbs       []float64
	byOrdinal bool
}

func newSimsRef(s *summary.Summarizer, q series.Series, data []series.Series, sims simsArray, byOrdinal bool) simsRef {
	p := s.Params()
	qPAA, _ := s.PAA(q, nil)
	keys := keysOf(sims.col)
	lbs := make([]float64, len(keys))
	for i, k := range keys {
		lbs[i] = s.MinDistSqPAAToSAX(qPAA, summary.Deinterleave(k, p.Segments, p.CardBits))
	}
	return simsRef{data: data, positions: sims.positions, lbs: lbs, byOrdinal: byOrdinal}
}

// keysOf re-interleaves every row of a column into its key.
func keysOf(col summary.Column) []summary.Key {
	keys := make([]summary.Key, col.Len())
	for i := range keys {
		keys[i] = col.Key(i)
	}
	return keys
}

// scan replays a serial verification scan. keep says whether a lower bound
// still passes the running bound, visit measures a record and tightens it.
// Every record that passed at collection time (against the seed bound,
// which is what keep sees first) is visited while it still passes, in
// ordinal order when materialized, else in raw position order.
func (r simsRef) scan(keep func(lb float64) bool, visit func(ord int)) (records int64) {
	var ords []int
	for i, lb := range r.lbs {
		if keep(lb) {
			ords = append(ords, i)
		}
	}
	if !r.byOrdinal {
		sort.Slice(ords, func(a, b int) bool { return r.positions[ords[a]] < r.positions[ords[b]] })
	}
	for _, i := range ords {
		if keep(r.lbs[i]) {
			visit(i)
			records++
		}
	}
	return records
}

// knn replays k-NN verification from the seed neighbors (squared): a
// record is measured while its lower bound is at or under the k-th best,
// and ranks under the (distance, position) order. stats holds the seed's
// counters; the returned Result adds the scan's and names the best.
func (r simsRef) knn(q series.Series, k int, seed []Neighbor, stats Result) ([]Neighbor, Result) {
	lh := shard.NewKNNHeap(k)
	lh.OfferAll(seed)
	stats.VisitedRecords += r.scan(
		func(lb float64) bool { return lb <= lh.Bound() },
		func(i int) {
			if sq, ok := series.SquaredEDEarlyAbandon(q, r.data[r.positions[i]], lh.Bound()); ok {
				lh.Offer(Neighbor{Pos: r.positions[i], Dist: sq})
			}
		})
	out := lh.Sorted()
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	stats.Pos, stats.Dist = out[0].Pos, out[0].Dist
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

// checkReferencePass holds a tree's exact search, 1-NN through
// ExactSearch and every k of ks through ExactSearchKNN, to the reference
// pass from the same seed — the window's k best — for every QueryWorkers,
// and with one worker to its visit counters too.
func checkReferencePass(t *testing.T, ks []int) {
	for _, p := range simsShapes {
		for _, mat := range []bool{false, true} {
			opt, data, queries := simsFixture(t, p, mat)
			ix, err := buildTree(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for qi, q := range queries {
				for _, k := range ks {
					seed, stats, err := approxKNN(context.Background(), ix.TreeIndex, q, k, 1)
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats := newSimsRef(opt.S, q, data, ix.sims, mat).knn(q, k, seed, stats)
					for _, w := range workerSweep {
						ix.opt.QueryWorkers = w
						var got []Neighbor
						var gotStats Result
						if k == 1 {
							gotStats, err = ix.ExactSearch(context.Background(), q, 1)
							got = []Neighbor{{Pos: gotStats.Pos, Dist: gotStats.Dist}}
						} else {
							got, gotStats, err = ix.ExactSearchKNN(context.Background(), q, k, 1)
						}
						if err != nil {
							t.Fatal(err)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%dx%d mat=%v query %d k=%d workers=%d: %v, reference pass %v", p.Segments, p.CardBits, mat, qi, k, w, got, want)
						}
						if w == 1 && gotStats != wantStats {
							t.Fatalf("%dx%d mat=%v query %d k=%d: %+v, reference pass %+v", p.Segments, p.CardBits, mat, qi, k, gotStats, wantStats)
						}
					}
				}
			}
		}
	}
}

func TestTreeExactMatchesReferencePass(t *testing.T) { checkReferencePass(t, []int{1}) }

// TestKNNMatchesReferencePass: k > 1, k beyond the record count included —
// the seed window then holds fewer than k.
func TestKNNMatchesReferencePass(t *testing.T) { checkReferencePass(t, []int{7, tCount + 5}) }
