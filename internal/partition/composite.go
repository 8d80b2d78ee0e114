package partition

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// Composite is the N-way partitioned index: N independent children of one
// Variant split by invSAX key range, answering byte-identically to a single
// index over the same records. What the children can do beyond searching —
// k-NN, inserts, LSM housekeeping — the Composite can do, and nothing more.
type Composite struct {
	v      Variant
	bounds []summary.Key
	// kids holds one child per partition; nil is a partition quarantined
	// whole at open (degraded names it): it contributes no candidates and no
	// count, so answers cover exactly the healthy remainder.
	kids     []Child
	degraded []string

	// rawSums is the parent-owned CRC sidecar for the shared dataset file
	// (nil when checksums are off): only the parent writes raw bytes, so only
	// the parent appends to and flushes it.
	rawSums *storage.RecordSums

	// mu serializes inserts: raw-file appends assign global arrival-order
	// positions before records route to their owning partition.
	mu     sync.Mutex
	closed bool
	// rawFile is the append handle on the shared dataset; nil over children
	// that take no inserts.
	rawFile storage.File
}

// Build builds the N-way Composite of v: one summarization pass scatters
// records to per-partition files by key range, the children bulk-load in
// parallel, and the parent manifest commits last. A failed build removes
// the children it finished.
func Build(v Variant, parts int) (*Composite, error) {
	sc, err := scatterDataset(v, parts)
	if err != nil {
		return nil, err
	}
	c := &Composite{v: v, bounds: sc.bounds, kids: make([]Child, parts), rawSums: sc.sums}
	buildPar := shard.Resolve(v.workers, parts)
	err = shard.FanOut(context.Background(), buildPar, parts, func(i int, cancelled func() bool) error {
		if cancelled() {
			return nil
		}
		ix, err := v.child(childPlan{i: i, parts: parts, par: buildPar, name: sc.children[i],
			records: scatterName(v.name, i), bounds: sc.bounds, sums: sc.sums, checksums: v.checksums})
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		c.kids[i] = ix
		return nil
	})
	removeScatter(v.fs, v.name, parts)
	// The parent manifest commits last: nothing after it can fail the build.
	if err == nil {
		err = c.openRaw()
	}
	if err == nil {
		err = commitParent(v, sc)
	}
	if err != nil {
		c.closeFiles()
		for i, k := range c.kids {
			if k != nil {
				v.remove(v.fs, sc.children[i])
			}
		}
		return nil, err
	}
	return c, nil
}

// Open reopens the Composite of v from its parent manifest; each child
// restores its own state from its child manifest, which stays authoritative
// for everything mutable. parts == 0 adopts the stored partition count; a
// non-zero mismatch fails with manifest.ErrConfigMismatch. Where v allows
// degraded opens, a child whose artifacts are corrupt or missing is
// quarantined (answers cover the healthy remainder); otherwise a child that
// fails to open closes the already-open siblings — never a partial handle.
func Open(v Variant, parts int) (*Composite, error) {
	m, err := loadParent(v, parts)
	if err != nil {
		return nil, err
	}
	// Checksums are a property of the stored bytes, not the caller's
	// configuration: adopt the flag the build recorded.
	v.checksums = m.Checksums
	c := &Composite{v: v, bounds: m.Part.Boundaries, kids: make([]Child, m.Part.Partitions)}
	if v.checksums {
		if c.rawSums, err = attachRawSums(v); err != nil {
			return nil, err
		}
	}
	n := len(c.kids)
	for i, cname := range m.Part.Children {
		ix, err := v.child(childPlan{i: i, parts: n, par: n, name: cname,
			bounds: c.bounds, sums: c.rawSums, checksums: v.checksums})
		if err != nil {
			if quarantineChild(v.allowDegraded, err) {
				c.degraded = append(c.degraded, cname)
				continue
			}
			c.closeFiles()
			return nil, fmt.Errorf("partition: opening child %q: %w", cname, err)
		}
		c.kids[i] = ix
	}
	if err = c.openRaw(); err == nil && c.rawFile == nil && c.rawSums != nil {
		// Immutable children: nothing later flushes the sidecar, so persist
		// any reconciliation attachRawSums made now.
		err = c.rawSums.Flush()
	}
	if err != nil {
		c.closeFiles()
		return nil, err
	}
	return c, nil
}

// openRaw opens the append handle on the shared dataset when the children
// take routed inserts.
func (c *Composite) openRaw() (err error) {
	if _, ok := capable[recordInserter](c.kids); ok {
		c.rawFile, err = c.v.fs.Open(c.v.rawName)
	}
	return err
}

// closeFiles closes every child and the raw handle, keeping the first error.
func (c *Composite) closeFiles() error {
	var first error
	for _, k := range c.kids {
		if k == nil {
			continue
		}
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.rawFile != nil {
		if err := c.rawFile.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Count returns the number of indexed series across the healthy partitions.
func (c *Composite) Count() int64 {
	var n int64
	for _, k := range c.kids {
		if k != nil {
			n += k.Count()
		}
	}
	return n
}

// approxSq is the scatter-gather approximate search (squared space): every
// partition contributes its window candidates, internal/window merges them
// into exactly the window a single sorted sequence of the union would
// produce, and one global evaluation visits them best-lower-bound-first,
// dispatching fetches back to the owning partition.
func (c *Composite) approxSq(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	res := core.Result{Pos: -1, Dist: math.Inf(1)}
	if c.Count() == 0 {
		return res, core.ErrEmptyIndex
	}
	cc := newChildCancel(ctx)
	defer cc.cancel()
	aws := make([]core.ApproxWindow, len(c.kids))
	ferr := shard.FanOut(ctx, shard.Resolve(c.v.queryWorkers, len(c.kids)), len(c.kids),
		func(i int, cancelled func() bool) error {
			if cancelled() || c.kids[i] == nil {
				return nil
			}
			aw, err := c.kids[i].ApproxWindowCands(cc.cctx, q, radius)
			if err != nil {
				return cc.fail(err)
			}
			aws[i] = aw
			return nil
		})
	if err := cc.resolve(ctx, ferr); err != nil {
		// On a ctx error abandoned children may still be writing aws; it is
		// never read on this path.
		return res, err
	}
	var below, above []window.Cand
	for i := range aws {
		for _, cand := range aws[i].Below {
			cand.Src = i
			below = append(below, cand)
		}
		for _, cand := range aws[i].Above {
			cand.Src = i
			above = append(above, cand)
		}
		res.VisitedLeaves += aws[i].Leaves
	}
	pos, sq, visited, err := core.EvalWindow(ctx, q, window.Merge(below, above, c.v.half(radius)), aws...)
	res.Pos, res.Dist, res.VisitedRecords = pos, sq, visited
	return res, err
}

// exactSq is the scatter-gather exact search (squared space): the GLOBAL
// approximate answer seeds every partition's verification (each child
// would otherwise seed from a different local approximation and tie-break
// differently), the shared atomic bound lets partitions prune each other,
// and the per-partition results merge under the total (distance, position)
// order — the same order a single index's sharded scan reduces under.
func (c *Composite) exactSq(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	res, err := c.approxSq(ctx, q, radius)
	if err != nil {
		return res, err
	}
	var bound shard.BSF
	bound.Init(res.Dist)
	outs := make([]core.Result, len(c.kids))
	for i := range outs {
		outs[i] = core.Result{Pos: -1, Dist: math.Inf(1)}
	}
	cc := newChildCancel(ctx)
	defer cc.cancel()
	ferr := shard.FanOut(ctx, shard.Resolve(c.v.queryWorkers, len(c.kids)), len(c.kids),
		func(i int, cancelled func() bool) error {
			if cancelled() || c.kids[i] == nil {
				return nil
			}
			r, err := c.kids[i].ExactVerify(cc.cctx, q, res.Pos, res.Dist, &bound)
			if err != nil {
				return cc.fail(err)
			}
			outs[i] = r
			return nil
		})
	if err := cc.resolve(ctx, ferr); err != nil {
		// On a ctx error abandoned children may still be writing outs; it is
		// never read on this path.
		return res, err
	}
	for _, r := range outs {
		res.VisitedRecords += r.VisitedRecords
		res.VisitedLeaves += r.VisitedLeaves
		if r.Pos >= 0 && (r.Dist < res.Dist || (r.Dist == res.Dist && r.Pos < res.Pos)) {
			res.Pos, res.Dist = r.Pos, r.Dist
		}
	}
	return res, nil
}

// finish materializes the Euclidean distance — the single square root of a
// partitioned query.
func finish(r core.Result, err error) (core.Result, error) {
	r.Dist = math.Sqrt(r.Dist)
	return r, err
}

// ExactSearch returns the exact nearest neighbor of q via scatter-gather
// SIMS, identical to a single index's answer. A parent cancel cancels every
// partition's verification, the first child error cancels its siblings, and
// a done ctx returns ctx.Err() — never a partial answer.
func (c *Composite) ExactSearch(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	return finish(c.exactSq(ctx, q, radius))
}

// ApproxSearch returns the approximate nearest neighbor from the merged
// cross-partition window; it observes ctx as ExactSearch does.
func (c *Composite) ApproxSearch(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	return finish(c.approxSq(ctx, q, radius))
}

// ExactSearchKNN returns the k exact nearest neighbors: every partition
// answers with its self-seeded local top-k (pruning on the shared bound),
// and the per-partition sets merge under the (distance, position) total
// order. A parent cancel cancels every partition's scan, the first child
// error cancels its siblings, and a done ctx returns ctx.Err() — never a
// partial top-k.
func (c *Composite) ExactSearchKNN(ctx context.Context, q series.Series, k, radius int) ([]core.Neighbor, core.Result, error) {
	stats := core.Result{Pos: -1, Dist: math.Inf(1)}
	kids, ok := capable[sharedKNN](c.kids)
	if !ok {
		return nil, stats, ErrUnsupported
	}
	if k < 1 {
		k = 1
	}
	if c.Count() == 0 {
		return nil, stats, core.ErrEmptyIndex
	}
	var kb shard.BSF
	kb.Init(math.Inf(1))
	n := len(kids)
	perChild := make([][]core.Neighbor, n)
	childStats := make([]core.Result, n)
	cc := newChildCancel(ctx)
	defer cc.cancel()
	ferr := shard.FanOut(ctx, shard.Resolve(c.v.queryWorkers, n), n, func(i int, cancelled func() bool) error {
		if cancelled() || c.kids[i] == nil || c.kids[i].Count() == 0 {
			return nil
		}
		ns, st, err := kids[i].ExactSearchKNNShared(cc.cctx, q, k, radius, &kb)
		if err != nil {
			return cc.fail(err)
		}
		perChild[i], childStats[i] = ns, st
		return nil
	})
	if err := cc.resolve(ctx, ferr); err != nil {
		// On a ctx error abandoned children may still be writing perChild
		// and childStats; neither is read on this path.
		return nil, stats, err
	}
	final := shard.NewKNNHeap(k)
	for _, ns := range perChild {
		for _, nb := range ns {
			final.Offer(nb)
		}
	}
	out := final.Sorted()
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	for _, st := range childStats {
		stats.VisitedRecords += st.VisitedRecords
		stats.VisitedLeaves += st.VisitedLeaves
	}
	if len(out) > 0 {
		stats.Pos, stats.Dist = out[0].Pos, out[0].Dist
	}
	return out, stats, nil
}

// Insert adds new series: raw bytes go to the shared dataset file under the
// composite's lock (assigning global arrival-order positions), then each
// record routes to its owning partition — a tree inserts it, an LSM logs it
// to its own memtable and WAL, and partitions flush, group-commit and
// compact independently. Children are only logged to under the lock; their
// durability tokens are waited on after releasing it, so concurrent Insert
// calls share each child's group commit instead of serializing whole-batch
// fsyncs.
//
// Cancellation is admission control: the context is checked once before any
// raw byte lands; once admitted the batch is fully routed (aborting
// mid-route would leave raw bytes some partitions indexed and others did
// not). A cancelled caller abandons the durability waits — the children's
// group commits still fsync the logged entries, so the index stays
// consistent.
func (c *Composite) Insert(ctx context.Context, batch []series.Series) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	kids, ok := capable[recordInserter](c.kids)
	if !ok {
		return ErrUnsupported
	}
	if len(batch) == 0 {
		return nil
	}
	c.mu.Lock()
	tokens, err := c.routeLocked(ctx, kids, batch)
	c.mu.Unlock()
	waiters, waits := capable[durabilityWaiter](c.kids)
	if err != nil || !waits {
		return err
	}
	return shard.FanOut(ctx, shard.Resolve(c.v.workers, len(kids)), len(kids),
		func(i int, cancelled func() bool) error {
			if cancelled() || tokens[i] < 0 {
				return nil
			}
			return waiters[i].WaitDurable(ctx, tokens[i])
		})
}

// routeLocked writes the batch's raw bytes, routes its records, and hands
// them to each owning child; tokens[i] is child i's durability token (-1
// when the batch routed nothing to it).
func (c *Composite) routeLocked(ctx context.Context, kids []recordInserter, batch []series.Series) ([]int64, error) {
	p := c.v.s.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	end, err := c.rawFile.Size()
	if err != nil {
		return nil, err
	}
	// A torn raw tail can survive a crash (the partial record was never
	// acknowledged); rounding the write position down overwrites it, exactly
	// as the single-index path does.
	if end%sz != 0 && !c.v.tornTail {
		return nil, fmt.Errorf("partition: raw file size %d not aligned", end)
	}
	for _, s := range batch {
		if len(s) != p.SeriesLen {
			return nil, fmt.Errorf("partition: inserted series has length %d, want %d", len(s), p.SeriesLen)
		}
	}
	keys, err := c.v.s.KeysOf(batch, c.v.workers)
	if err != nil {
		return nil, err
	}
	// Refuse the whole batch before writing any raw bytes if a record
	// routes to a quarantined partition: a degraded index fails writes
	// loudly rather than silently dropping them.
	routes := make([]int, len(batch))
	for i := range keys {
		routes[i] = route(c.bounds, keys[i])
		if c.kids[routes[i]] == nil {
			return nil, fmt.Errorf("partition: partition %d is quarantined; cannot accept writes until repaired", routes[i])
		}
	}
	pos := end / sz
	perChild := make([][]core.InsertRec, len(kids))
	enc := make([]byte, 0, sz)
	for i, s := range batch {
		enc = series.AppendEncode(enc[:0], s)
		if _, err := c.rawFile.WriteAt(enc, pos*sz); err != nil {
			return nil, err
		}
		if c.rawSums != nil {
			c.rawSums.Set(pos, enc)
		}
		rec := core.InsertRec{Key: keys[i], Pos: pos}
		if c.v.materialized {
			rec.Raw = append([]byte(nil), enc...)
		}
		perChild[routes[i]] = append(perChild[routes[i]], rec)
		pos++
	}
	tokens := make([]int64, len(kids))
	// The batch is admitted: it routes to completion whatever the caller's
	// context does meanwhile.
	err = shard.FanOut(context.WithoutCancel(ctx), shard.Resolve(c.v.workers, len(kids)), len(kids),
		func(i int, cancelled func() bool) error {
			tokens[i] = -1
			if cancelled() || len(perChild[i]) == 0 {
				return nil
			}
			var err error
			tokens[i], err = kids[i].InsertRecords(perChild[i])
			return err
		})
	return tokens, err
}

// Shape sums the children's: leaves and runs add up, and the fill is the
// leaf-weighted mean occupancy.
func (c *Composite) Shape() core.Shape {
	var sh core.Shape
	var filled float64
	for _, k := range c.kids {
		if k == nil {
			continue
		}
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
		if k != nil {
			n += k.SizeBytes()
		}
	}
	return n
}

// Degraded reports whether any partition (or anything inside a healthy
// partition) is quarantined: answers cover only the healthy remainder.
func (c *Composite) Degraded() bool {
	if len(c.degraded) > 0 {
		return true
	}
	for _, k := range c.kids {
		if k != nil && k.Degraded() {
			return true
		}
	}
	return false
}

// flushRawSums persists the parent sidecar's dirty tail; it must land
// before child metadata can reference the new raw positions.
func (c *Composite) flushRawSums() error {
	if c.rawSums == nil || c.rawFile == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rawSums.Flush()
}

// eachChild persists the parent sidecar, then runs fn on every healthy
// child in order, stopping at the first error.
func (c *Composite) eachChild(fn func(Child) error) error {
	if err := c.flushRawSums(); err != nil {
		return err
	}
	for _, k := range c.kids {
		if k == nil {
			continue
		}
		if err := fn(k); err != nil {
			return err
		}
	}
	return nil
}

// Sync persists every partition's pending state — for LSM children the
// global quiescence barrier: memtables flushed, background compactions
// drained. The parent manifest is immutable and needs no re-commit: child
// manifests are authoritative for mutable state.
func (c *Composite) Sync() error { return c.eachChild(Child.Sync) }

// Flush forces every partition's memtable to disk.
func (c *Composite) Flush() error {
	if _, ok := capable[Maintainer](c.kids); !ok {
		return ErrUnsupported
	}
	return c.eachChild(func(k Child) error { return k.(Maintainer).Flush() })
}

// RebuildQuarantined re-derives every healthy partition's quarantined runs
// from the shared raw dataset. Partitions quarantined whole need a full
// rebuild and are reported, not repaired.
func (c *Composite) RebuildQuarantined() error {
	kids, ok := capable[Maintainer](c.kids)
	if !ok {
		return ErrUnsupported
	}
	for _, k := range kids {
		if k == nil {
			continue
		}
		if err := k.RebuildQuarantined(); err != nil {
			return err
		}
	}
	if len(c.degraded) > 0 {
		return fmt.Errorf("partition: %d partition(s) quarantined whole (%v); rebuild the index to repair",
			len(c.degraded), c.degraded)
	}
	return nil
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

// Close syncs and closes every partition and releases the raw handle. It is
// idempotent and safe to call concurrently with cancelled queries and
// abandoned durability waiters.
func (c *Composite) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	first := c.flushRawSums()
	if err := c.closeFiles(); first == nil {
		first = err
	}
	return first
}
