package isax

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/trie"
)

// ApproxSearch visits the single most promising leaf and returns the best
// answer inside it (§4.2 "Queries"). For ADS+ this is also where adaptive
// leaf splitting happens: a construction-time leaf bigger than the
// query-time leaf size is refined (and its pieces rewritten) before it is
// examined — queries pay part of the construction cost.
func (ix *Index) ApproxSearch(q series.Series) (Result, error) {
	res, err := ix.approxSearch(q)
	res.Dist = math.Sqrt(res.Dist)
	return res, err
}

// approxSearch is the internal form of ApproxSearch: res.Dist holds the
// SQUARED best distance. Like the Coconut query paths, the whole family
// prunes in squared space and materializes the Euclidean distance once at
// the public boundary.
func (ix *Index) approxSearch(q series.Series) (Result, error) {
	res := Result{Pos: -1, Dist: math.Inf(1)}
	if ix.count == 0 {
		return res, errNoData
	}
	word, err := ix.opt.S.SAXOf(q)
	if err != nil {
		return res, err
	}
	qPAA, err := ix.opt.S.PAA(q, nil)
	if err != nil {
		return res, err
	}
	leaf := ix.tr.Descend(word)
	if leaf == nil || !leaf.Leaf {
		leaf = ix.tr.BestLeaf(qPAA)
	}
	if leaf == nil {
		return res, errNoData
	}
	if ix.opt.Mode == ADSPlus {
		leaf, err = ix.adaptiveSplit(leaf, word, qPAA)
		if err != nil {
			return res, err
		}
	}
	if err := ix.scanLeaf(q, leaf, &res); err != nil {
		return res, err
	}
	return res, nil
}

// scanLeaf computes true squared distances for the leaf's records, updating
// res with the best. For non-materialized leaves, each record's stored SAX
// word prunes hopeless raw-file fetches first (squared bound vs squared
// best-so-far).
func (ix *Index) scanLeaf(q series.Series, leaf *trie.Node, res *Result) error {
	recs, err := ix.readLeafRecords(leaf)
	if err != nil {
		return err
	}
	res.VisitedLeaves++
	qPAA, err := ix.opt.S.PAA(q, nil)
	if err != nil {
		return err
	}
	scratch := make(series.Series, ix.opt.S.Params().SeriesLen)
	for _, r := range recs {
		if r.Raw == nil && ix.opt.S.MinDistSqPAAToSAX(qPAA, r.Word) >= res.Dist {
			continue
		}
		sq, err := ix.recordSquaredDistance(q, r, scratch)
		if err != nil {
			return err
		}
		res.VisitedRecords++
		if sq < res.Dist {
			res.Dist = sq
			res.Pos = r.Pos
		}
	}
	return nil
}

// adaptiveSplit refines an oversized ADS+ leaf down to the query-time leaf
// size along the query's path, returning the leaf the query word lands in.
func (ix *Index) adaptiveSplit(leaf *trie.Node, word summary.SAX, qPAA []float64) (*trie.Node, error) {
	cardBits := ix.opt.S.Params().CardBits
	for leaf.Count > int64(ix.opt.LeafCap) {
		recs, err := ix.readLeafRecords(leaf)
		if err != nil {
			return nil, err
		}
		seg := trie.ChooseSplitSegment(leaf, recs, cardBits)
		if seg < 0 {
			return leaf, nil
		}
		if leaf.PageNum > 0 {
			ix.deadPages += leaf.PageNum
			leaf.PageStart, leaf.PageNum = 0, 0
		}
		leaf.Buf = recs
		zero, one := ix.tr.SplitLeaf(leaf, seg)
		zrecs, orecs := zero.Buf, one.Buf
		zero.Buf, one.Buf = nil, nil
		zero.Count, one.Count = int64(len(zrecs)), int64(len(orecs))
		if err := ix.writeLeafRecords(zero, zrecs); err != nil {
			return nil, err
		}
		if err := ix.writeLeafRecords(one, orecs); err != nil {
			return nil, err
		}
		if zero.Matches(word, cardBits) {
			leaf = zero
		} else if one.Matches(word, cardBits) {
			leaf = one
		} else if ix.tr.MinDistSq(qPAA, zero) <= ix.tr.MinDistSq(qPAA, one) {
			leaf = zero
		} else {
			leaf = one
		}
	}
	return leaf, nil
}

// nodeItem is a priority-queue entry for best-first exact search.
type nodeItem struct {
	n    *trie.Node
	dist float64
}

type nodeQueue []nodeItem

func (q nodeQueue) Len() int           { return len(q) }
func (q nodeQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q nodeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)        { *q = append(*q, x.(nodeItem)) }
func (q *nodeQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// ExactSearchTree is the classic best-first exact algorithm (Shieh &
// Keogh): seed a best-so-far with approximate search, then traverse nodes
// in MINDIST order, pruning every subtree whose bound exceeds the bsf. Node
// and record bounds come from one per-query MinDistTable (squared space:
// MINDIST order and pruning are identical, with no sqrt per node or
// record).
func (ix *Index) ExactSearchTree(q series.Series) (Result, error) {
	res, err := ix.exactSearchTree(q)
	res.Dist = math.Sqrt(res.Dist)
	return res, err
}

// exactSearchTree is the internal, squared-space form of ExactSearchTree.
func (ix *Index) exactSearchTree(q series.Series) (Result, error) {
	res, err := ix.approxSearch(q)
	if err != nil {
		return res, err
	}
	qPAA, err := ix.opt.S.PAA(q, nil)
	if err != nil {
		return res, err
	}
	tbl := ix.opt.S.BuildMinDistTable(qPAA, nil)
	pq := &nodeQueue{}
	for _, n := range ix.tr.Roots() {
		heap.Push(pq, nodeItem{n, tbl.Prefix(n.Syms, n.Bits)})
	}
	scratch := make(series.Series, ix.opt.S.Params().SeriesLen)
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeItem)
		if it.dist >= res.Dist {
			break // everything left is at least this far
		}
		if !it.n.Leaf {
			for _, c := range it.n.Children {
				if d := tbl.Prefix(c.Syms, c.Bits); d < res.Dist {
					heap.Push(pq, nodeItem{c, d})
				}
			}
			continue
		}
		recs, err := ix.readLeafRecords(it.n)
		if err != nil {
			return res, err
		}
		res.VisitedLeaves++
		for _, r := range recs {
			// Record-level lower bound before touching raw data.
			if lb := tbl.Word(r.Word); lb >= res.Dist {
				continue
			}
			sq, err := ix.recordSquaredDistance(q, r, scratch)
			if err != nil {
				return res, err
			}
			res.VisitedRecords++
			if sq < res.Dist {
				res.Dist = sq
				res.Pos = r.Pos
			}
		}
	}
	return res, nil
}

// ExactSearchSIMS is the ADS-style exact algorithm (§4.3, Algorithm 5
// adapted to the prefix-split family): approximate search seeds the bsf,
// squared lower bounds are computed for EVERY series from the in-memory
// summary array (in parallel, through the per-query table), and the raw
// file is scanned skip-sequentially, fetching only unpruned series in file
// order.
func (ix *Index) ExactSearchSIMS(q series.Series) (Result, error) {
	res, err := ix.exactSearchSIMS(q)
	res.Dist = math.Sqrt(res.Dist)
	return res, err
}

// exactSearchSIMS is the internal, squared-space form of ExactSearchSIMS.
func (ix *Index) exactSearchSIMS(q series.Series) (Result, error) {
	res, err := ix.approxSearch(q)
	if err != nil {
		return res, err
	}
	qPAA, err := ix.opt.S.PAA(q, nil)
	if err != nil {
		return res, err
	}
	tbl := ix.opt.S.BuildMinDistTable(qPAA, nil)
	mindists := ix.parallelMinDists(tbl)
	scratch := make(series.Series, ix.opt.S.Params().SeriesLen)
	for pos := int64(0); pos < int64(len(mindists)); pos++ {
		if mindists[pos] >= res.Dist {
			continue
		}
		if err := ix.readRaw(pos, scratch); err != nil {
			return res, err
		}
		res.VisitedRecords++
		sq, ok := series.SquaredEDEarlyAbandon(q, scratch, res.Dist)
		if !ok {
			continue
		}
		if sq < res.Dist {
			res.Dist = sq
			res.Pos = pos
		}
	}
	return res, nil
}

// parallelMinDists computes the per-series squared lower bounds from the
// in-memory summaries using all cores (the paper's parallelMinDists). The
// table is read-only, so all workers share it.
func (ix *Index) parallelMinDists(tbl *summary.MinDistTable) []float64 {
	out := make([]float64, len(ix.sums))
	// The shards never fail and nothing cancels the scan: no error to see.
	_ = shard.Scan(context.Background(), 0, len(ix.sums), func(_ int, r shard.Range, _ func() bool) error {
		for i := r.Lo; i < r.Hi; i++ {
			out[i] = tbl.Word(ix.sums[i])
		}
		return nil
	})
	return out
}

// Append indexes new series arriving after the initial build (Figure 10a):
// the raw bytes are appended to the dataset file and the summaries are
// inserted top-down through the FBL, exactly like construction.
func (ix *Index) Append(batch []series.Series) error {
	p := ix.opt.S.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	end, err := ix.rawFile.Size()
	if err != nil {
		return err
	}
	if end%sz != 0 {
		return fmt.Errorf("isax: raw file size %d not aligned to series size", end)
	}
	pos := end / sz
	buf := make([]byte, 0, sz)
	for _, s := range batch {
		if len(s) != p.SeriesLen {
			return fmt.Errorf("isax: appended series has length %d, want %d", len(s), p.SeriesLen)
		}
		buf = series.AppendEncode(buf[:0], s)
		if _, err := ix.rawFile.WriteAt(buf, pos*sz); err != nil {
			return err
		}
		word, err := ix.opt.S.SAXOf(s)
		if err != nil {
			return err
		}
		rec := trie.Record{Word: word, Pos: pos}
		if ix.opt.Mode.Materialized() {
			rec.Raw = append([]byte(nil), buf...)
		}
		if err := ix.bufferInsert(rec); err != nil {
			return err
		}
		ix.sums = append(ix.sums, word)
		pos++
	}
	return nil
}
