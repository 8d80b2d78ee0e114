package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// Neighbor is one k-NN answer: a record position and its Euclidean
// distance to the query. (During the internal scan phases Dist holds the
// SQUARED distance; the public entry takes the square roots once, when the
// final top-k is materialized.) The type is the shared shard.Neighbor, so
// every merge step — per-shard locals, the cross-shard reduce, and the
// cross-partition gather — ranks under the one (dist, pos) total order
// shard.KNNHeap implements.
type Neighbor = shard.Neighbor

// ExactSearchKNN returns the k exact nearest neighbors of q, using the same
// SIMS machinery as ExactSearch with the k-th-best distance as the pruning
// bound. radius controls the approximate seeding phase. Safe for concurrent
// use.
//
// The verification scan is sharded across Options.QueryWorkers: each shard
// runs its contiguous slice of the scan with a private heap seeded from the
// approximate phase, pruning only on its own (monotonically tightening)
// bound with STRICT comparisons, and the shard heaps are reduced in shard
// order. Every candidate that could reach the final top-k under the total
// (distance, position) order is verified by some shard no matter where the
// shard boundaries fall, so the returned neighbors are identical for any
// QueryWorkers; only the Visited* counters vary (weaker per-shard bounds
// verify a few extra candidates).
//
// Cancellation is checked at leaf-visit granularity, a cancelled query
// returns ctx.Err() and never a partial neighbor set, and shards stuck in a
// blocking read are abandoned rather than waited for.
func (ix *TreeIndex) ExactSearchKNN(ctx context.Context, q series.Series, k, radius int) ([]Neighbor, Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	var kb shard.BSF
	kb.Init(math.Inf(1))
	out, stats, err := ix.exactSearchKNN(ctx, q, k, radius, &kb)
	if err != nil {
		return nil, stats, err
	}
	// Materialize Euclidean distances: one sqrt per reported neighbor, the
	// only square roots in the whole k-NN pipeline.
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	if len(out) > 0 {
		stats.Pos = out[0].Pos
		stats.Dist = out[0].Dist
	}
	return out, stats, nil
}

// ExactSearchKNNShared is the partition-layer entry: the index answers
// with its OWN exact top-k (self-seeded — the retained set is the true
// top-k of the local multiset, independent of any seed), while the shared
// cross-partition bound kb is used for pruning only, with the same strict
// comparisons as the shared exact bound. Returned neighbors and stats are
// in SQUARED space. It observes ctx as ExactSearchKNN does.
func (ix *TreeIndex) ExactSearchKNNShared(ctx context.Context, q series.Series, k, radius int, kb *shard.BSF) ([]Neighbor, Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	return ix.exactSearchKNN(ctx, q, k, radius, kb)
}

func (ix *TreeIndex) exactSearchKNN(ctx context.Context, q series.Series, k, radius int, kb *shard.BSF) ([]Neighbor, Result, error) {
	stats := Result{Pos: -1, Dist: math.Inf(1)}
	if k < 1 {
		k = 1
	}
	if ix.count == 0 {
		return nil, stats, ErrEmptyIndex
	}
	h := shard.NewKNNHeap(k)

	// Seed: scan the target neighborhood, collecting up to k candidates.
	if err := ix.knnSeed(ctx, q, radius, h, &stats); err != nil {
		return nil, stats, err
	}
	kb.Lower(h.Bound())
	if err := ix.ensureSIMS(); err != nil {
		return nil, stats, err
	}
	pass, err := ix.opt.S.NewPass(q)
	if err != nil {
		return nil, stats, err
	}
	// seed is a copy of the seeding heap's backing array, so seed[0] is its
	// root: the k-th best squared distance. Collection under it is
	// INCLUSIVE (hence the next float up as the exclusive limit): a
	// candidate whose lower bound exactly ties the seed bound can still
	// outrank the seed root under the (dist, pos) total order, so it must be
	// verified. The shared bound prunes strictly for the same reason.
	seed := append([]Neighbor(nil), h.Items()...)
	seedBound := math.Inf(1)
	if len(seed) >= k {
		seedBound = seed[0].Dist
	}
	limit := kb.Limit(math.Nextafter(seedBound, math.Inf(1)))
	var perShard [][]Neighbor
	if ix.opt.Materialized {
		pass.Cands = pass.Table.Filter(pass.Cands, ix.keys, nil, limit, ix.opt.QueryWorkers)
		perShard, err = ix.knnScanLeaves(ctx, q, k, seed, pass.Cands, &stats, kb)
	} else {
		pass.Cands = pass.Table.Filter(pass.Cands, ix.keys, ix.positions, limit, ix.opt.QueryWorkers)
		perShard, err = ix.knnScanRawFile(ctx, q, k, seed, pass.Cands, &stats, kb)
	}
	if ctx.Err() == nil {
		pass.Release()
	}
	if err != nil {
		return nil, stats, err
	}
	// Reduce in shard order: every shard retained the top-k of (its range ∪
	// seed) under the total order, so folding the shard heaps recovers the
	// global top-k exactly.
	final := shard.NewKNNHeap(k)
	for _, n := range seed {
		final.Offer(n)
	}
	for _, items := range perShard {
		for _, n := range items {
			final.Offer(n)
		}
	}
	return final.Sorted(), stats, nil
}

// knnScanRawFile is the non-materialized verification scan: the candidates
// (IDs are raw-file positions) are put in position order and the order is
// partitioned into contiguous shards, each running its slice through scanRaw
// — the raw file read strictly forward — into a heap of its own.
func (ix *TreeIndex) knnScanRawFile(ctx context.Context, q series.Series, k int, seed []Neighbor, cands []summary.Cand, stats *Result, kb *shard.BSF) ([][]Neighbor, error) {
	slices.SortFunc(cands, func(a, b summary.Cand) int { return cmp.Compare(a.ID, b.ID) })
	workers := shard.Resolve(ix.opt.QueryWorkers, len(cands))
	perShard := make([][]Neighbor, workers)
	visited := make([]int64, workers)
	err := shard.Scan(ctx, workers, len(cands), func(si int, rr shard.Range, cancelled func() bool) error {
		lh := shard.NewKNNHeap(k)
		for _, n := range seed {
			lh.Offer(n)
		}
		// Strict pruning: a tie with either bound is still verified. With the
		// heap in squared space the abandon limit is the heap bound itself,
		// and the kernel abandons only on a STRICT excess, so a candidate
		// whose squared sum exactly ties the bound completes and is offered
		// (the (dist, pos) total order breaks the tie), and everything
		// abandoned strictly loses — the evaluated pool's top-k stays
		// invariant across shard boundaries.
		var err error
		visited[si], err = scanRaw(ix.rawFile, ix.rawSums, q, cands[rr.Lo:rr.Hi], cancelled,
			func(lb float64) (float64, bool) { return lh.Bound(), !(lb > lh.Bound() || kb.Prunes(lb)) },
			func(pos int64, sq float64) {
				if lh.Offer(Neighbor{Pos: pos, Dist: sq}) {
					kb.Lower(lh.Bound())
				}
			})
		if err != nil {
			return err
		}
		perShard[si] = lh.Items()
		return nil
	})
	// On a ctx error the abandoned shards may still be writing perShard and
	// visited: neither is read, the caller sees ctx.Err() and discards.
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	for _, v := range visited {
		stats.VisitedRecords += v
	}
	return perShard, err
}

// knnScanLeaves is the materialized verification scan: the leaf directory
// is partitioned into contiguous shards that skip leaves with no candidate
// (cands in summary-array order, IDs being ordinals) within the shard's
// bound and scan the rest in place.
func (ix *TreeIndex) knnScanLeaves(ctx context.Context, q series.Series, k int, seed []Neighbor, cands []summary.Cand, stats *Result, kb *shard.BSF) ([][]Neighbor, error) {
	dir, bases := ix.leafBases()
	recSize := ix.opt.recordSize()
	workers := shard.Resolve(ix.opt.QueryWorkers, len(dir))
	perShard := make([][]Neighbor, workers)
	visited := make([][2]int64, workers) // records, leaves
	err := shard.Scan(ctx, workers, len(dir), func(si int, rr shard.Range, cancelled func() bool) error {
		lh := shard.NewKNNHeap(k)
		for _, n := range seed {
			lh.Offer(n)
		}
		buf := make([]byte, ix.opt.LeafCap*recSize)
		rest := candsFrom(cands, bases[rr.Lo])
		for li := rr.Lo; li < rr.Hi && len(rest) > 0; li++ {
			if cancelled() {
				return nil
			}
			var leaf []summary.Cand
			leaf, rest = leafCands(rest, bases[li]+ix.bt.LeafRecordCount(dir[li]))
			if !slices.ContainsFunc(leaf, func(c summary.Cand) bool { return c.LB <= lh.Bound() && !kb.Prunes(c.LB) }) {
				continue
			}
			n, err := ix.bt.ReadLeaf(dir[li], buf)
			if err != nil {
				return err
			}
			visited[si][1]++
			for _, c := range leaf {
				i := int(c.ID) - bases[li]
				if i >= n || c.LB > lh.Bound() || kb.Prunes(c.LB) {
					continue
				}
				pos, sq := leafSquaredDistance(q, buf[i*recSize:(i+1)*recSize])
				visited[si][0]++
				if lh.Offer(Neighbor{Pos: pos, Dist: sq}) {
					kb.Lower(lh.Bound())
				}
			}
		}
		perShard[si] = lh.Items()
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	for _, v := range visited {
		stats.VisitedRecords += v[0]
		stats.VisitedLeaves += v[1]
	}
	return perShard, err
}

// knnSeed scans the query's target leaf (±radius) into the heap,
// checking ctx once per leaf.
func (ix *TreeIndex) knnSeed(ctx context.Context, q series.Series, radius int, h *shard.KNNHeap, stats *Result) (err error) {
	key, err := ix.opt.S.KeyOf(q)
	if err != nil {
		return err
	}
	cur, err := ix.bt.Seek(key[:])
	if err != nil {
		return err
	}
	dir := ix.bt.LeafDir()
	var center int
	if cur.Valid() {
		center = ix.leafIndexOf(cur.LeafID())
	} else {
		center = len(dir) - 1
	}
	lo, hi := center-radius, center+radius
	if lo < 0 {
		lo = 0
	}
	if hi >= len(dir) {
		hi = len(dir) - 1
	}
	p := ix.opt.S.Params()
	qPAA, err := ix.opt.S.PAA(q, nil)
	if err != nil {
		return err
	}
	sc := GetRawScratch(p.SeriesLen, 1)
	defer PutRawScratch(sc)
	raw := storage.PinViews(ix.rawFile)
	defer raw.Release(&err)
	saxScratch := make(summary.SAX, p.Segments)
	buf := make([]byte, ix.opt.LeafCap*ix.opt.recordSize())
	for li := lo; li <= hi; li++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := ix.bt.ReadLeaf(dir[li], buf)
		if err != nil {
			return err
		}
		stats.VisitedLeaves++
		for i := 0; i < n; i++ {
			rec := buf[i*ix.opt.recordSize() : (i+1)*ix.opt.recordSize()]
			if !ix.opt.Materialized {
				k, _, _ := decodeRecord(rec, false)
				sax := summary.DeinterleaveInto(k, p.CardBits, saxScratch)
				if ix.opt.S.MinDistSqPAAToSAX(qPAA, sax) > h.Bound() {
					continue
				}
			}
			pos, sq, err := recordSquaredDistance(&ix.opt, raw, ix.rawSums, q, rec, sc)
			if err != nil {
				return err
			}
			stats.VisitedRecords++
			h.Offer(Neighbor{Pos: pos, Dist: sq})
		}
	}
	return nil
}
