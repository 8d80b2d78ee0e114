package partition

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/extsort"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// Composite is the one index: N children of one Variant split by invSAX
// key range — one, stored under the index name, when unpartitioned —
// answering byte-identically for any N. It owns what the children share:
// the raw log, the manifest and the handle locks. Every Composite answers
// every search, exact search for any k, and takes inserts; what the
// children can do beyond that — LSM housekeeping — the Composite can do,
// and nothing more.
type Composite struct {
	v      Variant
	bounds []summary.Key
	// kids holds one child per partition.
	kids []Child

	// rawSums is the raw log of the shared dataset file: only the Composite
	// appends raw bytes, and it commits them once per insert for every child.
	rawSums *storage.RecordSums

	// mu is the handle lock. A query holds it shared from its first child
	// step to its last fetch: a window's candidates are read after the steps
	// that collected them have returned. An insert's append and route hold it
	// exclusively — raw-log appends assign global arrival-order positions
	// before records route to their owning child, and no query reads a run
	// an insert merge is replacing — but not its commits; Close holds it
	// exclusively too.
	mu     sync.RWMutex
	closed bool

	// wmu is the write lock: every mutation — an insert's route and
	// commit, Sync, Flush, Close — holds it, so one commit at a time sees
	// every child's layout at rest. Queries never take it, so they proceed
	// during a slow manifest commit.
	wmu sync.Mutex
	// stored is the children's layouts the manifest names.
	stored []manifest.Layout
	// err is the first failed manifest commit, sticky: the last committed
	// manifest stays authoritative, so no later commit may supersede it, and
	// every later write and Sync returns it.
	err error
}

// Build builds the Composite of parts children of v; a failed build removes
// the children it finished. One summarization pass over the raw file feeds
// one sort of its records; once the pass has been read to its end, the raw
// log's fresh sidecar is made durable, and the children are written one
// after another from the sorted stream, each from the records below its
// key-range boundary; the manifest, naming them all, commits last. With
// parts < 2 the one child holds every record, its files under v's name.
// bounds, when set, are the parts-1 boundaries to keep — a rebuild's, so
// that every child holds exactly the records of the child it replaces; nil
// samples them from the dataset.
func Build(v Variant, parts int, bounds []summary.Key) (*Composite, error) {
	raw, err := v.fs.Open(v.rawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	parts = max(parts, 1)
	if parts > 1 && bounds == nil {
		if bounds, err = selectBoundaries(raw, v.s, parts); err != nil {
			return nil, err
		}
	}
	src, sums, err := core.SummarySource(v.fs, v.s, raw, v.rawName, v.workers)
	if err != nil {
		return nil, err
	}
	c := &Composite{v: v, bounds: bounds, rawSums: sums}
	err = c.buildChildren(src, parts)
	// The manifest commits last: nothing after it can fail the build.
	if err == nil {
		err = c.commitLocked()
	}
	if err != nil {
		for i, k := range c.kids {
			k.Close()
			v.remove(v.fs, manifest.ChildName(v.name, i, parts))
		}
		c.rawSums.Close()
		return nil, err
	}
	return c, nil
}

// buildChildren sorts the record stream src once and writes the parts
// children from it in key order, each from the records below its boundary.
func (c *Composite) buildChildren(src summary.RecordReader, parts int) error {
	v := c.v
	sorted, total, err := extsort.Sorted(extsort.Config{
		FS:         v.fs,
		MemBudget:  v.memBudget,
		TempPrefix: v.name + ".sort",
		Workers:    v.workers,
	}, src)
	if err != nil {
		return err
	}
	defer sorted.Close()
	// The sort has read the summarization pass to its end, so the sidecar
	// it filled is complete; it is durable before any child is written.
	if err := c.rawSums.Flush(); err != nil {
		return err
	}
	for i := range parts {
		// Child i takes the records below bounds[i], and reserves room for
		// the share a balanced split gives it; the last takes the rest, whose
		// length the stream knows.
		records := summary.RecordReader(sorted)
		if i < len(c.bounds) {
			bound, share := c.bounds[i], int((total+int64(parts)-1)/int64(parts))
			records = sorted.While(func(rec summary.Record) bool { return rec.Key.Less(bound) }, share)
		}
		ix, err := v.child(childPlan{i: i, parts: parts, name: manifest.ChildName(v.name, i, parts),
			records: records, bounds: c.bounds, sums: c.rawSums})
		if err != nil {
			if parts > 1 {
				err = fmt.Errorf("partition %d: %w", i, err)
			}
			return err
		}
		c.kids = append(c.kids, ix)
	}
	return sorted.Close()
}

// Open reopens the Composite of v from m, its manifest as the caller loaded
// it (manifest.Load), each child from its layout there. parts == 0 adopts
// the stored partition count; a non-zero mismatch, like any other between v
// and m, fails with manifest.ErrConfigMismatch. A child that fails to open
// closes the already-open siblings — never a partial handle. What reopening
// changed — compactions a crash left ready — commits before Open returns.
func Open(v Variant, parts int, m *manifest.Manifest) (*Composite, error) {
	if err := checkStored(v, parts, m); err != nil {
		return nil, err
	}
	sums, err := attachRawSums(v)
	if err != nil {
		return nil, err
	}
	c := &Composite{v: v, bounds: m.Boundaries, stored: m.Children, rawSums: sums}
	n := len(m.Children)
	for i, l := range m.Children {
		name := manifest.ChildName(v.name, i, n)
		ix, err := v.child(childPlan{i: i, parts: n, name: name, layout: l, bounds: c.bounds, sums: c.rawSums})
		if err != nil {
			c.closeFiles()
			return nil, fmt.Errorf("partition: opening child %q: %w", name, err)
		}
		c.kids = append(c.kids, ix)
	}
	if err := c.commitLocked(); err != nil {
		c.closeFiles()
		return nil, err
	}
	return c, nil
}

// commitLocked is the one commit path: it pulls every child's layout and,
// when they differ from the ones the manifest names, commits the raw log
// they may reference and then the manifest naming them all, in one rename.
// The files the layouts supersede are removed only after that commit
// succeeds; a failed manifest commit is sticky (see err). Callers hold wmu,
// or own the Composite alone.
func (c *Composite) commitLocked() error {
	if c.err != nil {
		return c.err
	}
	layouts := make([]manifest.Layout, len(c.kids))
	var obsolete []string
	for i, k := range c.kids {
		var old []string
		layouts[i], old = k.Layout()
		obsolete = append(obsolete, old...)
	}
	if !slices.EqualFunc(layouts, c.stored, sameLayout) {
		if err := c.commitRaw(); err != nil {
			return err
		}
		p := c.v.s.Params()
		if err := manifest.Commit(c.v.fs, c.v.name, &manifest.Manifest{
			Variant:      c.v.kind,
			SeriesLen:    p.SeriesLen,
			Segments:     p.Segments,
			CardBits:     p.CardBits,
			Materialized: c.v.materialized,
			RawName:      c.v.rawName,
			Boundaries:   c.bounds,
			Children:     layouts,
		}); err != nil {
			c.err = err
			return err
		}
		c.stored = layouts
	}
	for _, name := range obsolete {
		_ = c.v.fs.Remove(name)
	}
	return nil
}

// sameLayout reports whether a and b describe the same stored state.
func sameLayout(a, b manifest.Layout) bool {
	return a.Count == b.Count && a.Gen == b.Gen && a.NextSeq == b.NextSeq &&
		a.Flushed == b.Flushed && slices.Equal(a.Runs, b.Runs)
}

// closeFiles closes every child and then the raw log, keeping the first
// error.
func (c *Composite) closeFiles() error {
	var first error
	for _, k := range c.kids {
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := c.rawSums.Close(); first == nil {
		first = err
	}
	return first
}

// Count returns the number of indexed series across the partitions.
func (c *Composite) Count() int64 {
	var n int64
	for _, k := range c.kids {
		n += k.Count()
	}
	return n
}

// each runs step on every child and returns the outcome: the caller's
// cancellation first — a query never reports a child error when the caller
// itself gave up — then the first child failure (a sibling that merely
// observed the cancellation it caused reports context.Canceled, which must
// not mask it). Several children run concurrently under a derived context
// that the first failure cancels, so a parent cancel reaches every child
// too; a lone child runs on the caller's goroutine under the caller's own
// context, so its scans start no watcher for a scope nobody else cancels.
// On a ctx error abandoned children may still be writing the slots step
// fills; the caller must not read them.
func (c *Composite) each(ctx context.Context, step func(ctx context.Context, i int) error) error {
	if len(c.kids) == 1 {
		err := step(ctx, 0)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu    sync.Mutex
		first error
	)
	ferr := shard.FanOut(ctx, shard.Resolve(c.v.queryWorkers, len(c.kids)), len(c.kids),
		func(i int, cancelled func() bool) error {
			if cancelled() {
				return nil
			}
			err := step(cctx, i)
			if err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				cancel()
			}
			return err
		})
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	mu.Lock()
	defer mu.Unlock()
	if first != nil {
		return first
	}
	return ferr
}

// approxSq is the scatter-gather approximate search for the k best
// (squared space): every partition contributes its window candidates as
// one list in record order, internal/window merges the lists into exactly
// the window a single sorted sequence of the union would produce, and one
// global evaluation visits them best-lower-bound-first, dispatching fetches
// back to the owning partition.
// Callers hold mu shared.
func (c *Composite) approxSq(ctx context.Context, q series.Series, k, radius int) ([]core.Neighbor, core.Result, error) {
	res := core.Result{Pos: -1, Dist: math.Inf(1)}
	n := c.Count()
	if n == 0 {
		return nil, res, core.ErrEmptyIndex
	}
	aws := make([]core.ApproxWindow, len(c.kids))
	err := c.each(ctx, func(ctx context.Context, i int) (err error) {
		aws[i], err = c.kids[i].ApproxWindowCands(ctx, q, radius)
		return err
	})
	if err != nil {
		return nil, res, err
	}
	// Each child's candidates are its own, so they are tagged with their
	// source in place.
	srcs := make([]window.Source, len(aws))
	for i := range aws {
		for j := range aws[i].Cands {
			aws[i].Cands[j].Src = i
		}
		srcs[i] = aws[i].Source
		res.VisitedLeaves += aws[i].Leaves
	}
	top, visited, err := core.EvalWindow(ctx, q, k, window.Merge(window.Half(radius, int(n)), srcs...).Cands, aws...)
	res.VisitedRecords = visited
	return top, res, err
}

// ExactSearchKNN returns the k exact nearest neighbors of q, best first,
// identical for any partition count: the GLOBAL approximate window's k best
// seed every partition's verification (each child would otherwise seed from
// a different local approximation), the shared atomic bound on the k-th best
// lets partitions prune each other, and the per-partition top-k sets merge
// under the total (distance, position) order — the order a single index's
// sharded scan reduces under, so a distance tie goes to the lower position.
// The Result holds the best neighbor and the query's visit counters. An
// empty index fails with core.ErrEmptyIndex; k < 1 means 1, and k over the
// record count means all of them. A parent cancel cancels every partition's
// verification, the first child error cancels its siblings, and a done ctx
// returns ctx.Err() — never a partial top-k.
func (c *Composite) ExactSearchKNN(ctx context.Context, q series.Series, k int) ([]core.Neighbor, core.Result, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k = max(k, 1)
	seed, res, err := c.approxSq(ctx, q, k, c.v.seedRadius)
	if err != nil {
		return nil, res, err
	}
	var bound shard.BSF
	bound.Init(math.Inf(1))
	if len(seed) == k {
		bound.Init(seed[k-1].Dist)
	}
	perChild := make([][]core.Neighbor, len(c.kids))
	outs := make([]core.Result, len(c.kids))
	err = c.each(ctx, func(ctx context.Context, i int) (err error) {
		perChild[i], outs[i], err = c.kids[i].ExactVerify(ctx, q, k, seed, &bound)
		return err
	})
	if err != nil {
		// On a ctx error abandoned children may still be writing perChild
		// and outs; neither is read on this path.
		return nil, res, err
	}
	// Every child's top-k holds the seed's neighbors it did not beat.
	top := shard.NewKNNHeap(k)
	for i, ns := range perChild {
		top.OfferAll(ns)
		res.VisitedRecords += outs[i].VisitedRecords
	}
	out := top.Sorted()
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	if len(out) > 0 {
		res.Pos, res.Dist = out[0].Pos, out[0].Dist
	}
	return out, res, nil
}

// ExactSearch returns the exact nearest neighbor of q: ExactSearchKNN with
// k = 1, whose Result it is.
func (c *Composite) ExactSearch(ctx context.Context, q series.Series) (core.Result, error) {
	_, res, err := c.ExactSearchKNN(ctx, q, 1)
	return res, err
}

// ApproxSearch returns the approximate nearest neighbor from the merged
// cross-partition window — the first strict improvement in its evaluation
// order — with its Euclidean distance; it observes ctx as ExactSearchKNN
// does.
func (c *Composite) ApproxSearch(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	top, res, err := c.approxSq(ctx, q, 1, radius)
	if len(top) > 0 {
		res.Pos, res.Dist = top[0].Pos, math.Sqrt(top[0].Dist)
	}
	return res, err
}

// Insert adds new series: raw bytes go to the shared raw log under the
// composite's lock (assigning global arrival-order positions), then each
// record routes to its owning partition — a tree inserts it, an LSM adds it
// to its memtable — and partitions flush and compact independently; what
// their flushes changed commits once the route is done. Over LSM children
// the insert is acknowledged by one commit of the shared log after the locks
// are released, so concurrent Insert calls share its rounds.
//
// Cancellation is admission control: the context is checked once before any
// raw byte lands; once admitted the batch is fully routed (aborting
// mid-route would leave raw bytes some partitions indexed and others did
// not). A cancelled caller abandons the commit wait — the round still
// fsyncs the batch, so the index stays consistent.
func (c *Composite) Insert(ctx context.Context, batch []series.Series) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	c.wmu.Lock()
	if c.err != nil {
		c.wmu.Unlock()
		return c.err
	}
	c.mu.Lock()
	end, err := c.routeLocked(ctx, batch)
	c.mu.Unlock()
	if cerr := c.commitLocked(); err == nil {
		err = cerr
	}
	c.wmu.Unlock()
	if err != nil || !c.v.ackInserts {
		return err
	}
	return c.rawSums.Commit(ctx, end)
}

// routeLocked appends the batch's raw bytes to the log, routes its records
// and hands them to each owning child; it returns the log position after the
// batch.
func (c *Composite) routeLocked(ctx context.Context, batch []series.Series) (int64, error) {
	p := c.v.s.Params()
	sz := series.EncodedSize(p.SeriesLen)
	for _, s := range batch {
		if len(s) != p.SeriesLen {
			return 0, fmt.Errorf("partition: inserted series has length %d, want %d", len(s), p.SeriesLen)
		}
	}
	enc := make([]byte, 0, len(batch)*sz)
	for _, s := range batch {
		enc = series.AppendEncode(enc, s)
	}
	keys := c.v.s.KeysOfEncoded(enc, c.v.workers)
	first, err := c.rawSums.Append(enc)
	if err != nil {
		return 0, err
	}
	perChild := make([][]summary.Record, len(c.kids))
	for i, key := range keys {
		owner := route(c.bounds, key)
		perChild[owner] = append(perChild[owner], summary.Record{Key: key, Pos: first + int64(i)})
	}
	// The batch is admitted: it routes to completion whatever the caller's
	// context does meanwhile.
	err = shard.FanOut(context.WithoutCancel(ctx), shard.Resolve(c.v.workers, len(c.kids)), len(c.kids),
		func(i int, cancelled func() bool) error {
			if cancelled() || len(perChild[i]) == 0 {
				return nil
			}
			return c.kids[i].InsertRecords(perChild[i])
		})
	return first + int64(len(batch)), err
}

// Shape sums the children's: leaves and runs add up, and the fill is the
// leaf-weighted mean occupancy.
func (c *Composite) Shape() core.Shape {
	var sh core.Shape
	var filled float64
	for _, k := range c.kids {
		ks := k.Shape()
		filled += ks.LeafFill * float64(ks.Leaves)
		sh.Leaves += ks.Leaves
		sh.Runs += ks.Runs
	}
	if sh.Leaves > 0 {
		sh.LeafFill = filled / float64(sh.Leaves)
	}
	return sh
}

// SizeBytes returns the total on-device size across partitions.
func (c *Composite) SizeBytes() int64 {
	var n int64
	for _, k := range c.kids {
		n += k.SizeBytes()
	}
	return n
}

// commitRaw commits every record appended to the shared raw log: child
// metadata may reference its positions only once they are durable.
func (c *Composite) commitRaw() error {
	return c.rawSums.Commit(context.Background(), c.rawSums.Records())
}

// persist commits the raw log, runs step on every child in order until
// one fails, and commits what the steps made durable. Callers hold wmu.
func (c *Composite) persist(step func(Child) error) error {
	if c.err != nil {
		return c.err
	}
	err := c.commitRaw()
	for _, k := range c.kids {
		if err != nil {
			break
		}
		err = step(k)
	}
	if cerr := c.commitLocked(); err == nil {
		err = cerr
	}
	return err
}

// Sync persists every partition's pending state in one manifest commit —
// for LSM children the global quiescence barrier: memtables flushed, ready
// compactions landed.
func (c *Composite) Sync() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.persist(Child.Sync)
}

// Flush forces every partition's memtable to disk; a tree has none
// (ErrUnsupported).
func (c *Composite) Flush() error {
	if _, ok := c.kids[0].(Maintainer); !ok {
		return ErrUnsupported
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.persist(func(k Child) error { return k.(Maintainer).Flush() })
}

// CacheStats returns the block cache's counters — whole-index numbers,
// since LSM children share one cache; zeros over children that read none.
func (c *Composite) CacheStats() blockcache.Stats {
	for _, k := range c.kids {
		if m, ok := k.(Maintainer); ok {
			return m.CacheStats()
		}
	}
	return blockcache.Stats{}
}

// Close syncs (see Sync) and closes every partition and releases the raw
// log, waiting for in-flight queries. It is idempotent and safe to call
// concurrently with cancelled queries and abandoned commit waits.
func (c *Composite) Close() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	first := c.persist(Child.Sync)
	if err := c.closeFiles(); first == nil {
		first = err
	}
	return first
}
