package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/window"
)

// loneTree and loneTrie drive one index the way internal/partition drives
// the one child of an unpartitioned index: they own the raw log and the
// build's record stream (the summarization pass over the raw file), a whole
// query is the index's window evaluated by EvalWindow seeding its
// verification step, and an insert appends to the raw log before it hands
// the records over. The partition package and the public one test the
// composite itself.
type (
	loneTree struct {
		*TreeIndex
		sums *storage.RecordSums
	}
	loneTrie struct {
		*TrieIndex
		sums *storage.RecordSums
	}
)

func buildTree(opt Options) (*loneTree, error) {
	ix, sums, err := buildLone(opt, BuildTree)
	if err != nil {
		return nil, err
	}
	return &loneTree{ix, sums}, nil
}

func openTree(opt Options) (*loneTree, error) {
	ix, sums, err := openLone(opt, OpenTree)
	if err != nil {
		return nil, err
	}
	return &loneTree{ix, sums}, nil
}

func buildTrie(opt Options) (*loneTrie, error) {
	ix, sums, err := buildLone(opt, BuildTrie)
	if err != nil {
		return nil, err
	}
	return &loneTrie{ix, sums}, nil
}

func openTrie(opt Options) (*loneTrie, error) {
	ix, sums, err := openLone(opt, OpenTrie)
	if err != nil {
		return nil, err
	}
	return &loneTrie{ix, sums}, nil
}

// buildLone bulk-loads an index from the summarization pass over opt's raw
// file, under the fresh raw log the pass fills.
func buildLone[T any](opt Options, build func(Options) (T, error)) (ix T, sums *storage.RecordSums, err error) {
	if opt.FS == nil || opt.S == nil {
		return ix, nil, errors.New("core test: nil FS or summarizer")
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return ix, nil, err
	}
	defer raw.Close()
	src, sums, err := SummarySource(opt.FS, opt.S, raw, opt.RawName, opt.Materialized, opt.Workers)
	if err != nil {
		return ix, nil, err
	}
	defer src.Close()
	opt.Records, opt.RawSums = src, sums
	ix, err = build(opt)
	return ix, sums, err
}

// openLone reopens an index under the raw log its persisted sidecar loads.
func openLone[T any](opt Options, open func(Options) (T, error)) (ix T, sums *storage.RecordSums, err error) {
	if opt.FS == nil || opt.S == nil {
		return ix, nil, errors.New("core test: nil FS or summarizer")
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return ix, nil, err
	}
	defer raw.Close()
	if sums, err = storage.LoadRecordSums(opt.FS, opt.RawName, series.EncodedSize(opt.S.Params().SeriesLen), raw); err != nil {
		return ix, nil, err
	}
	opt.RawSums = sums
	if ix, err = open(opt); err != nil {
		sums.Close()
	}
	return ix, sums, err
}

// child is the query surface both index types offer the partition layer.
type child interface {
	ApproxWindowCands(ctx context.Context, q series.Series, radius int) (ApproxWindow, error)
	ExactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (Result, error)
	Count() int64
}

// approx is the one-child composite's approximate answer, in squared space:
// the index's window, trimmed to half records a side, evaluated by
// EvalWindow.
func approx(ctx context.Context, ix child, half int, q series.Series, radius int) (Result, error) {
	res := Result{Pos: -1, Dist: math.Inf(1)}
	if ix.Count() == 0 {
		return res, ErrEmptyIndex
	}
	aw, err := ix.ApproxWindowCands(ctx, q, radius)
	if err != nil {
		return res, err
	}
	res.Pos, res.Dist, res.VisitedRecords, err = EvalWindow(ctx, q, window.Merge(aw.Below, aw.Above, half), aw)
	res.VisitedLeaves = aw.Leaves
	return res, err
}

// exact is the one-child composite's exact answer: the approximate one
// seeds the verification step, and the distance is rooted once, at the end.
func exact(ctx context.Context, ix child, half int, q series.Series, radius int) (Result, error) {
	res, err := approx(ctx, ix, half, q, radius)
	if err == nil {
		var bound shard.BSF
		bound.Init(res.Dist)
		var v Result
		v, err = ix.ExactVerify(ctx, q, res.Pos, res.Dist, &bound)
		res.Pos, res.Dist = v.Pos, v.Dist
		res.VisitedRecords += v.VisitedRecords
		res.VisitedLeaves += v.VisitedLeaves
	}
	return rooted(res), err
}

func rooted(r Result) Result {
	r.Dist = math.Sqrt(r.Dist)
	return r
}

func (o *Options) half(radius int) int { return o.ApproxWindow * (radius + 1) / 2 }

func (l *loneTree) approxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	return approx(ctx, l.TreeIndex, l.opt.half(radius), q, radius)
}

func (l *loneTree) ApproxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	res, err := l.approxSearch(ctx, q, radius)
	return rooted(res), err
}

func (l *loneTree) ExactSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	return exact(ctx, l.TreeIndex, l.opt.half(radius), q, radius)
}

func (l *loneTrie) approxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	return approx(ctx, l.TrieIndex, l.opt.half(radius), q, radius)
}

func (l *loneTrie) ApproxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	res, err := l.approxSearch(ctx, q, radius)
	return rooted(res), err
}

func (l *loneTrie) ExactSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	return exact(ctx, l.TrieIndex, l.opt.half(radius), q, radius)
}

// positions reads every indexed position of the tree in key order, leaf by
// leaf.
func (l *loneTree) positions() ([]int64, error) {
	var out []int64
	recSize := l.opt.recordSize()
	for li := 0; li+1 < len(l.starts); li++ {
		recs, err := l.readLeaf(li, nil)
		if err != nil {
			return nil, err
		}
		for off := 0; off < len(recs); off += recSize {
			_, pos, _ := decodeRecord(recs[off:], false)
			out = append(out, pos)
		}
	}
	return out, nil
}

// ExactSearchKNN is the one-child composite's k-NN: the tree's own top-k
// under an unset shared bound, rooted.
func (l *loneTree) ExactSearchKNN(ctx context.Context, q series.Series, k, radius int) ([]Neighbor, Result, error) {
	var kb shard.BSF
	kb.Init(math.Inf(1))
	out, stats, err := l.ExactSearchKNNShared(ctx, q, k, radius, &kb)
	if err != nil {
		return nil, stats, err
	}
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	if len(out) > 0 {
		stats.Pos, stats.Dist = out[0].Pos, out[0].Dist
	}
	return out, stats, nil
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
	recs := make([]InsertRec, len(batch))
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
		if l.opt.Materialized {
			recs[i].Raw = enc[i*sz : (i+1)*sz]
		}
	}
	return l.InsertRecords(recs)
}

func (l *loneTree) Close() error { return errors.Join(l.TreeIndex.Close(), l.sums.Close()) }

func (l *loneTrie) Close() error { return errors.Join(l.TrieIndex.Close(), l.sums.Close()) }
