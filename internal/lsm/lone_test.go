package lsm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/extsort"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// lone drives one Coconut-LSM the way internal/partition drives the one
// child of an unpartitioned index: it owns the raw log and the build's
// record stream (the summarization pass over the raw file), a whole query
// is the index's window evaluated by core.EvalWindow seeding its
// verification step, and an insert appends the batch to the raw log, hands
// the records over and commits the log. The manifest, naming the index's
// layout, commits after the build, an insert that flushed, a Flush or Sync,
// and at Close. The partition package and the public one test the composite
// itself.
type lone struct {
	*Index
	sums *storage.RecordSums
	// stored is the layout the manifest names, nil before the first commit.
	stored *manifest.Layout
}

func buildLone(opt Options) (*lone, error) {
	if opt.FS == nil || opt.S == nil {
		return nil, errors.New("lsm test: nil FS or summarizer")
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	src, sums, err := core.SummarySource(opt.FS, opt.S, raw, opt.RawName, opt.Workers)
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
	ix, err := Build(opt)
	if err != nil {
		return nil, err
	}
	l := &lone{Index: ix, sums: sums}
	if err := l.commit(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func openLone(opt Options) (*lone, error) {
	if opt.FS == nil || opt.S == nil {
		return nil, errors.New("lsm test: nil FS or summarizer")
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
	m, err := manifest.Load(opt.FS, opt.Name)
	if err == nil {
		err = m.CheckParams(opt.S.Params(), false, opt.RawName)
	}
	var ix *Index
	if err == nil {
		ix, err = Open(opt, m.Children[0])
	}
	if err != nil {
		sums.Close()
		return nil, err
	}
	l := &lone{Index: ix, sums: sums, stored: &m.Children[0]}
	if err := l.commit(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// commit commits the manifest naming the index's layout when it changed,
// after the raw log, and then removes the compaction inputs it supersedes.
func (l *lone) commit() error {
	lay, obsolete := l.Layout()
	if s := l.stored; s == nil || lay.NextSeq != s.NextSeq || lay.Flushed != s.Flushed || !slices.Equal(lay.Runs, s.Runs) {
		if err := l.sums.Commit(context.Background(), l.sums.Records()); err != nil {
			return err
		}
		p := l.opt.S.Params()
		if err := manifest.Commit(l.opt.FS, l.opt.Name, &manifest.Manifest{
			Variant: manifest.VariantLSM, SeriesLen: p.SeriesLen, Segments: p.Segments, CardBits: p.CardBits,
			RawName: l.opt.RawName, Children: []manifest.Layout{lay},
		}); err != nil {
			return err
		}
		l.stored = &lay
	}
	for _, name := range obsolete {
		_ = l.opt.FS.Remove(name)
	}
	return nil
}

// Flush flushes the memtable, runs the ready compactions and commits what
// landed.
func (l *lone) Flush() error {
	err := l.Index.Flush()
	if cerr := l.commit(); err == nil {
		err = cerr
	}
	return err
}

// Sync is Flush.
func (l *lone) Sync() error { return l.Flush() }

// approxKNN is the one-child composite's approximate top-k at radius, in
// squared space; the Result holds its visit counters.
func (l *lone) approxKNN(ctx context.Context, q series.Series, k, radius int) ([]core.Neighbor, core.Result, error) {
	res := core.Result{Pos: -1, Dist: math.Inf(1)}
	if l.Count() == 0 {
		return nil, res, core.ErrEmptyIndex
	}
	aw, err := l.ApproxWindowCands(ctx, q, radius)
	if err != nil {
		return nil, res, err
	}
	top, visited, err := core.EvalWindow(ctx, q, k, window.Merge(window.Half(radius, int(l.Count())), aw.Source).Cands, aw)
	res.VisitedRecords, res.VisitedLeaves = visited, aw.Leaves
	return top, res, err
}

// approxSq is the approximate answer at radius, in squared space: the
// window's best.
func (l *lone) approxSq(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	top, res, err := l.approxKNN(ctx, q, 1, radius)
	if len(top) > 0 {
		res.Pos, res.Dist = top[0].Pos, top[0].Dist
	}
	return res, err
}

func (l *lone) ApproxSearch(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	res, err := l.approxSq(ctx, q, radius)
	res.Dist = math.Sqrt(res.Dist)
	return res, err
}

// ExactSearchKNN seeds the verification step with the k best of the
// radius window and roots the distances once, at the end.
func (l *lone) ExactSearchKNN(ctx context.Context, q series.Series, k, radius int) ([]core.Neighbor, core.Result, error) {
	k = max(k, 1)
	seed, res, err := l.approxKNN(ctx, q, k, radius)
	if err != nil {
		return nil, res, err
	}
	var bound shard.BSF
	bound.Init(math.Inf(1))
	if len(seed) == k {
		bound.Init(seed[k-1].Dist)
	}
	ns, v, err := l.ExactVerify(ctx, q, k, seed, &bound)
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

// ExactSearch is ExactSearchKNN with k = 1.
func (l *lone) ExactSearch(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	_, res, err := l.ExactSearchKNN(ctx, q, 1, radius)
	return res, err
}

// Insert appends the batch to the raw log, inserts its records and commits
// the log: a nil return means the batch is durable.
func (l *lone) Insert(ctx context.Context, batch []series.Series) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p := l.opt.S.Params()
	for _, s := range batch {
		if len(s) != p.SeriesLen {
			return fmt.Errorf("lsm test: series length %d, want %d", len(s), p.SeriesLen)
		}
	}
	keys, err := l.opt.S.KeysOf(batch, l.opt.Workers)
	if err != nil {
		return err
	}
	var enc []byte
	for _, s := range batch {
		enc = series.AppendEncode(enc, s)
	}
	first, err := l.sums.Append(enc)
	if err != nil {
		return err
	}
	recs := make([]summary.Record, len(batch))
	for i := range recs {
		recs[i] = summary.Record{Key: keys[i], Pos: first + int64(i)}
	}
	err = l.InsertRecords(recs)
	if cerr := l.commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return l.sums.Commit(ctx, first+int64(len(recs)))
}

// Close flushes (see Flush), then closes the index and the raw log.
func (l *lone) Close() error {
	var err error
	if !l.closed {
		err = l.Flush()
	}
	return errors.Join(err, l.Index.Close(), l.sums.Close())
}
