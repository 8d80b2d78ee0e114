package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/coconut-db/coconut/internal/extsort"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// loneTree drives one tree the way internal/partition drives the one child
// of an unpartitioned index: it owns the raw log and the build's record
// stream (the summarization pass over the raw file), a whole query is the
// tree's window evaluated by EvalWindow seeding its verification step, and
// an insert appends to the raw log before it hands the records over. The
// partition package and the public one test the composite itself.
type loneTree struct {
	*TreeIndex
	sums *storage.RecordSums
}

// buildTree bulk-loads a tree from the sorted summarization pass over opt's
// raw file, under the fresh raw log the pass fills and the sort's budget and
// temporaries the partition layer gives an unpartitioned build.
func buildTree(opt Options) (*loneTree, error) {
	if opt.FS == nil || opt.S == nil {
		return nil, errors.New("core test: nil FS or summarizer")
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	src, sums, err := SummarySource(opt.FS, opt.S, raw, opt.RawName, opt.Workers)
	if err != nil {
		return nil, err
	}
	budget := opt.MemBudgetBytes
	if budget <= 0 {
		budget = DefaultMemBudget
	}
	sorted, _, err := extsort.Sorted(extsort.Config{FS: opt.FS, MemBudget: budget,
		TempPrefix: opt.Name + ".sort", Workers: opt.Workers}, src)
	if err == nil {
		defer sorted.Close()
		err = sums.Flush()
	}
	if err != nil {
		sums.Close()
		return nil, err
	}
	opt.Records, opt.RawSums = sorted, sums
	ix, err := BuildTree(opt)
	if err != nil {
		return nil, err
	}
	return &loneTree{ix, sums}, nil
}

// openTree reopens a tree under the raw log its persisted sidecar loads.
func openTree(opt Options) (*loneTree, error) {
	if opt.FS == nil || opt.S == nil {
		return nil, errors.New("core test: nil FS or summarizer")
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	sums, err := storage.LoadRecordSums(opt.FS, opt.RawName, series.EncodedSize(opt.S.Params().SeriesLen), raw)
	if err != nil {
		return nil, err
	}
	opt.RawSums = sums
	ix, err := OpenTree(opt)
	if err != nil {
		sums.Close()
		return nil, err
	}
	return &loneTree{ix, sums}, nil
}

// approxKNN is the one-child composite's approximate top-k, in squared
// space: the index's window, trimmed to window.Half records a side,
// evaluated by EvalWindow. The Result holds its visit counters.
func approxKNN(ctx context.Context, ix *TreeIndex, q series.Series, k, radius int) ([]Neighbor, Result, error) {
	res := Result{Pos: -1, Dist: math.Inf(1)}
	if ix.Count() == 0 {
		return nil, res, ErrEmptyIndex
	}
	aw, err := ix.ApproxWindowCands(ctx, q, radius)
	if err != nil {
		return nil, res, err
	}
	top, visited, err := EvalWindow(ctx, q, k, window.Merge(window.Half(radius, int(ix.Count())), aw.Source).Cands, aw)
	res.VisitedRecords, res.VisitedLeaves = visited, aw.Leaves
	return top, res, err
}

// approx is the approximate answer, in squared space: the window's best.
func approx(ctx context.Context, ix *TreeIndex, q series.Series, radius int) (Result, error) {
	top, res, err := approxKNN(ctx, ix, q, 1, radius)
	if len(top) > 0 {
		res.Pos, res.Dist = top[0].Pos, top[0].Dist
	}
	return res, err
}

// exactKNN is the one-child composite's exact top-k: the window's k best
// seed the verification step, and the distances are rooted once, at the
// end. The Result holds the best neighbor and the visit counters.
func exactKNN(ctx context.Context, ix *TreeIndex, q series.Series, k, radius int) ([]Neighbor, Result, error) {
	k = max(k, 1)
	seed, res, err := approxKNN(ctx, ix, q, k, radius)
	if err != nil {
		return nil, res, err
	}
	var bound shard.BSF
	bound.Init(math.Inf(1))
	if len(seed) == k {
		bound.Init(seed[k-1].Dist)
	}
	ns, v, err := ix.ExactVerify(ctx, q, k, seed, &bound)
	if err != nil {
		return nil, res, err
	}
	top := shard.NewKNNHeap(k)
	top.OfferAll(ns)
	out := top.Sorted()
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	res.Pos, res.Dist = out[0].Pos, out[0].Dist
	res.VisitedRecords += v.VisitedRecords
	return out, res, nil
}

// exact is exactKNN with k = 1.
func exact(ctx context.Context, ix *TreeIndex, q series.Series, radius int) (Result, error) {
	_, res, err := exactKNN(ctx, ix, q, 1, radius)
	return res, err
}

func rooted(r Result) Result {
	r.Dist = math.Sqrt(r.Dist)
	return r
}

func (l *loneTree) approxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	return approx(ctx, l.TreeIndex, q, radius)
}

func (l *loneTree) ApproxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	res, err := l.approxSearch(ctx, q, radius)
	return rooted(res), err
}

func (l *loneTree) ExactSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	return exact(ctx, l.TreeIndex, q, radius)
}

// positions reads every indexed position of the tree in key order, leaf by
// leaf.
func (l *loneTree) positions() ([]int64, error) {
	var out []int64
	recSize := l.opt.recordSize()
	for li := 0; li < l.Shape().Leaves; li++ {
		recs, err := l.readLeaf(li, nil)
		if err != nil {
			return nil, err
		}
		for off := 0; off < len(recs); off += recSize {
			rec := summary.DecodeRecord(recs[off:])
			out = append(out, rec.Pos)
		}
	}
	return out, nil
}

// ExactSearchKNN is the one-child composite's k-NN.
func (l *loneTree) ExactSearchKNN(ctx context.Context, q series.Series, k, radius int) ([]Neighbor, Result, error) {
	return exactKNN(ctx, l.TreeIndex, q, k, radius)
}

// Insert appends the batch to the raw log and inserts its records; they
// become durable at Sync.
func (l *loneTree) Insert(ctx context.Context, batch []series.Series) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p := l.opt.S.Params()
	sz := series.EncodedSize(p.SeriesLen)
	enc := make([]byte, 0, len(batch)*sz)
	recs := make([]summary.Record, len(batch))
	for i, s := range batch {
		if len(s) != p.SeriesLen {
			return fmt.Errorf("core test: inserted series has length %d, want %d", len(s), p.SeriesLen)
		}
		enc = series.AppendEncode(enc, s)
		key, err := l.opt.S.KeyOf(s)
		if err != nil {
			return err
		}
		recs[i].Key = key
	}
	first, err := l.sums.Append(enc)
	if err != nil {
		return err
	}
	for i := range recs {
		recs[i].Pos = first + int64(i)
	}
	return l.InsertRecords(recs)
}

func (l *loneTree) Close() error { return errors.Join(l.TreeIndex.Close(), l.sums.Close()) }
