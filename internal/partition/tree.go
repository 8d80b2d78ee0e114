package partition

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// Tree is an N-way partitioned Coconut-Tree: N independent core.TreeIndex
// children split by invSAX key range, answering byte-identically to a
// single tree over the same records.
type Tree struct {
	fs      storage.FS
	s       *summary.Summarizer
	rawName string
	mat     bool
	workers int
	bounds  []summary.Key
	kids    []*core.TreeIndex
	g       gather

	// rawSums is the parent-owned CRC sidecar for the shared dataset file
	// (nil when checksums are off); only the parent writes raw bytes, so
	// only the parent appends to and flushes it. degraded names children
	// quarantined whole at open.
	rawSums  *storage.RecordSums
	degraded []string

	// mu serializes inserts: raw-file appends assign global arrival-order
	// positions before records route to their owning partition.
	mu      sync.Mutex
	closed  bool
	rawFile storage.File
}

// treeChildOptions derives partition i's build options: same geometry and
// summarization, divided worker and memory budgets, and the scatter file
// as the record source.
func treeChildOptions(opt core.Options, i, parts, buildPar int) core.Options {
	co := opt
	co.Name = childName(opt.Name, i)
	co.RecordsName = scatterName(opt.Name, i)
	co.MemBudgetBytes = divideBudget(opt.MemBudgetBytes, buildPar, 1<<20)
	co.Workers = shard.PerGroup(opt.Workers, buildPar)
	co.QueryWorkers = shard.PerGroup(opt.QueryWorkers, parts)
	return co
}

// BuildTree builds an N-way partitioned Coconut-Tree: one summarization
// pass scatters records to per-partition files by key range, the children
// bulk-load in parallel, and the parent manifest commits last. A failed
// build removes the children it finished.
func BuildTree(opt core.Options, parts int) (*Tree, error) {
	sc, err := scatterDataset(opt.FS, opt.Name, opt.RawName, opt.S, opt.Materialized, opt.Checksums, opt.Workers, parts)
	if err != nil {
		return nil, err
	}
	opt.RawSums = sc.sums
	kids := make([]*core.TreeIndex, parts)
	buildPar := shard.Resolve(opt.Workers, parts)
	err = shard.FanOut(buildPar, parts, func(i int, cancelled func() bool) error {
		if cancelled() {
			return nil
		}
		ix, err := core.BuildTree(treeChildOptions(opt, i, parts, buildPar))
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		kids[i] = ix
		return nil
	})
	removeScatter(opt.FS, opt.Name, parts)
	// The parent manifest commits last: nothing after it can fail the build.
	var rawFile storage.File
	if err == nil {
		rawFile, err = opt.FS.Open(opt.RawName)
	}
	if err == nil {
		err = commitParent(opt.FS, opt.Name, manifest.VariantTree, opt.S,
			opt.Materialized, opt.LeafCap, opt.RawName, sc.total, opt.Checksums, sc.bounds, sc.children)
	}
	if err != nil {
		if rawFile != nil {
			rawFile.Close()
		}
		for i, k := range kids {
			if k != nil {
				k.Close()
				core.RemoveTree(opt.FS, sc.children[i])
			}
		}
		return nil, err
	}
	return newTree(opt, sc.bounds, kids, rawFile, nil), nil
}

// OpenTree reopens a partitioned Coconut-Tree from its parent manifest.
// parts == 0 adopts the stored partition count; a non-zero mismatch fails
// with manifest.ErrConfigMismatch. With allowDegraded, a child whose
// artifacts are corrupt or missing is quarantined (answers cover the
// healthy remainder); otherwise a child that fails to open closes the
// already-open siblings — never a partial handle.
func OpenTree(opt core.Options, parts int, allowDegraded bool) (*Tree, error) {
	m, err := loadParent(opt.FS, opt.Name, manifest.VariantTree, parts,
		opt.S.Params(), opt.Materialized, opt.RawName)
	if err != nil {
		return nil, err
	}
	opt.Checksums = m.Checksums
	if opt.Checksums {
		sums, serr := attachRawSums(opt.FS, opt.RawName, series.EncodedSize(opt.S.Params().SeriesLen))
		if serr != nil {
			return nil, serr
		}
		opt.RawSums = sums
	}
	n := m.Part.Partitions
	kids := make([]*core.TreeIndex, n)
	closeKids := func() {
		for _, k := range kids {
			if k != nil {
				k.Close()
			}
		}
	}
	var degraded []string
	for i, cname := range m.Part.Children {
		co := opt
		co.Name = cname
		co.MemBudgetBytes = divideBudget(opt.MemBudgetBytes, n, 1<<20)
		co.Workers = shard.PerGroup(opt.Workers, n)
		co.QueryWorkers = shard.PerGroup(opt.QueryWorkers, n)
		ix, err := core.OpenTree(co)
		if err != nil {
			if quarantineChild(allowDegraded, err) {
				degraded = append(degraded, cname)
				continue
			}
			closeKids()
			return nil, fmt.Errorf("partition: opening child %q: %w", cname, err)
		}
		kids[i] = ix
	}
	rawFile, err := opt.FS.Open(opt.RawName)
	if err != nil {
		closeKids()
		return nil, err
	}
	return newTree(opt, m.Part.Boundaries, kids, rawFile, degraded), nil
}

func newTree(opt core.Options, bounds []summary.Key, kids []*core.TreeIndex, rawFile storage.File, degraded []string) *Tree {
	t := &Tree{
		fs:       opt.FS,
		s:        opt.S,
		rawName:  opt.RawName,
		mat:      opt.Materialized,
		workers:  opt.Workers,
		bounds:   bounds,
		kids:     kids,
		rawFile:  rawFile,
		rawSums:  opt.RawSums,
		degraded: degraded,
	}
	sks := make([]searcher, len(kids))
	for i, k := range kids {
		if k != nil {
			sks[i] = treeChild{k}
		}
	}
	aw := opt.ApproxWindow
	if aw <= 0 {
		aw = 32
	}
	t.g = gather{
		kids:    sks,
		workers: opt.QueryWorkers,
		half:    func(radius int) int { return aw * (radius + 1) / 2 },
	}
	return t
}

type treeChild struct{ ix *core.TreeIndex }

func (c treeChild) count() int64 { return c.ix.Count() }
func (c treeChild) approxWindow(ctx context.Context, q series.Series, radius int) (core.ApproxWindow, error) {
	return c.ix.ApproxWindowCandsCtx(ctx, q, radius)
}
func (c treeChild) exactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (core.Result, error) {
	return c.ix.ExactVerifyCtx(ctx, q, seedPos, seedSq, bound)
}

// ExactSearch returns the exact nearest neighbor of q via scatter-gather
// SIMS, identical to a single-partition index's answer.
func (t *Tree) ExactSearch(q series.Series, radius int) (core.Result, error) {
	return t.ExactSearchCtx(context.Background(), q, radius)
}

// ExactSearchCtx is ExactSearch with cancellation: a parent cancel cancels
// every partition's verification, the first child error cancels its
// siblings, and a done ctx returns ctx.Err() — never a partial answer.
func (t *Tree) ExactSearchCtx(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	r, err := t.g.exactSq(ctx, q, radius)
	return finish(r), err
}

// ApproxSearch returns the approximate nearest neighbor from the merged
// cross-partition window.
func (t *Tree) ApproxSearch(q series.Series, radius int) (core.Result, error) {
	return t.ApproxSearchCtx(context.Background(), q, radius)
}

// ApproxSearchCtx is ApproxSearch with cancellation (see ExactSearchCtx).
func (t *Tree) ApproxSearchCtx(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	r, err := t.g.approxSq(ctx, q, radius)
	return finish(r), err
}

// ExactSearchKNN returns the k exact nearest neighbors: every partition
// answers with its self-seeded local top-k (pruning on the shared bound),
// and the per-partition sets merge under the (distance, position) total
// order.
func (t *Tree) ExactSearchKNN(q series.Series, k, radius int) ([]core.Neighbor, core.Result, error) {
	return t.ExactSearchKNNCtx(context.Background(), q, k, radius)
}

// ExactSearchKNNCtx is ExactSearchKNN with cancellation: a parent cancel
// cancels every partition's scan, the first child error cancels its
// siblings, and a done ctx returns ctx.Err() — never a partial top-k.
func (t *Tree) ExactSearchKNNCtx(ctx context.Context, q series.Series, k, radius int) ([]core.Neighbor, core.Result, error) {
	stats := core.Result{Pos: -1, Dist: math.Inf(1)}
	if k < 1 {
		k = 1
	}
	if t.g.total() == 0 {
		return nil, stats, core.ErrEmptyIndex
	}
	var kb shard.BSF
	kb.Init(math.Inf(1))
	n := len(t.kids)
	perChild := make([][]core.Neighbor, n)
	childStats := make([]core.Result, n)
	cc := newChildCancel(ctx)
	defer cc.cancel()
	ferr := shard.FanOutCtx(ctx, shard.Resolve(t.g.workers, n), n, func(i int, cancelled func() bool) error {
		if cancelled() || t.kids[i] == nil || t.kids[i].Count() == 0 {
			return nil
		}
		ns, st, err := t.kids[i].ExactSearchKNNSharedCtx(cc.cctx, q, k, radius, &kb)
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

// InsertBatch appends new series to the shared dataset file (assigning
// global arrival-order positions under the partition-level lock) and
// routes each record to its owning partition's tree.
func (t *Tree) InsertBatch(batch []series.Series) error {
	return t.InsertBatchCtx(context.Background(), batch)
}

// InsertBatchCtx is InsertBatch with cancellation as admission control:
// the context is checked once before any raw byte lands; once admitted the
// batch runs to completion — aborting mid-route would leave raw bytes some
// partitions indexed and others did not.
func (t *Tree) InsertBatchCtx(ctx context.Context, batch []series.Series) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	p := t.s.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	end, err := t.rawFile.Size()
	if err != nil {
		return err
	}
	if end%sz != 0 {
		return fmt.Errorf("partition: raw file size %d not aligned", end)
	}
	for _, s := range batch {
		if len(s) != p.SeriesLen {
			return fmt.Errorf("partition: inserted series has length %d, want %d", len(s), p.SeriesLen)
		}
	}
	keys, err := t.s.KeysOf(batch, t.workers)
	if err != nil {
		return err
	}
	// Refuse the whole batch before writing any raw bytes if a record
	// routes to a quarantined partition.
	routes := make([]int, len(batch))
	for i := range keys {
		routes[i] = route(t.bounds, keys[i])
		if t.kids[routes[i]] == nil {
			return fmt.Errorf("partition: partition %d is quarantined; cannot accept writes until repaired", routes[i])
		}
	}
	pos := end / sz
	perChild := make([][]core.InsertRec, len(t.kids))
	enc := make([]byte, 0, sz)
	for i, s := range batch {
		enc = series.AppendEncode(enc[:0], s)
		if _, err := t.rawFile.WriteAt(enc, pos*sz); err != nil {
			return err
		}
		if t.rawSums != nil {
			t.rawSums.Set(pos, enc)
		}
		rec := core.InsertRec{Key: keys[i], Pos: pos}
		if t.mat {
			rec.Raw = append([]byte(nil), enc...)
		}
		perChild[routes[i]] = append(perChild[routes[i]], rec)
		pos++
	}
	return shard.FanOut(shard.Resolve(t.workers, len(t.kids)), len(t.kids),
		func(i int, cancelled func() bool) error {
			if cancelled() || len(perChild[i]) == 0 {
				return nil
			}
			return t.kids[i].InsertRecords(perChild[i])
		})
}

// Partitions returns the partition count.
func (t *Tree) Partitions() int { return len(t.kids) }

// Count returns the number of indexed series across all partitions.
func (t *Tree) Count() int64 { return t.g.total() }

// NumLeaves returns the total leaf count across partitions.
func (t *Tree) NumLeaves() int {
	n := 0
	for _, k := range t.kids {
		if k != nil {
			n += k.NumLeaves()
		}
	}
	return n
}

// AvgLeafFill returns the leaf-weighted mean occupancy across partitions.
func (t *Tree) AvgLeafFill() float64 {
	var sum float64
	var leaves int
	for _, k := range t.kids {
		if k == nil {
			continue
		}
		n := k.NumLeaves()
		sum += k.AvgLeafFill() * float64(n)
		leaves += n
	}
	if leaves == 0 {
		return 0
	}
	return sum / float64(leaves)
}

// SizeBytes returns the total on-device size across partitions.
func (t *Tree) SizeBytes() int64 {
	var n int64
	for _, k := range t.kids {
		if k != nil {
			n += k.SizeBytes()
		}
	}
	return n
}

// Degraded reports whether any partition was quarantined at open.
func (t *Tree) Degraded() bool { return len(t.degraded) > 0 }

// QuarantinedChildren returns the names of quarantined partitions.
func (t *Tree) QuarantinedChildren() []string { return append([]string(nil), t.degraded...) }

// flushRawSums persists the parent sidecar's dirty tail; it must land
// before child metadata can reference the new raw positions.
func (t *Tree) flushRawSums() error {
	if t.rawSums == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rawSums.Flush()
}

// Sync persists every partition's pending metadata. The parent manifest is
// immutable and needs no re-commit: child manifests are authoritative for
// mutable state.
func (t *Tree) Sync() error {
	if err := t.flushRawSums(); err != nil {
		return err
	}
	for _, k := range t.kids {
		if k == nil {
			continue
		}
		if err := k.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and closes every partition and releases the raw handle. It
// is idempotent and safe to call concurrently with cancelled queries.
func (t *Tree) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	first := t.flushRawSums()
	for _, k := range t.kids {
		if k == nil {
			continue
		}
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := t.rawFile.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
