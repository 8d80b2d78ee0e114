package partition

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

// LSM is an N-way partitioned Coconut-LSM: streaming writes route to the
// owning partition's memtable, each partition compacts independently
// (background pools and pending-run budgets divided from the global
// configuration), and queries scatter-gather like the other variants.
type LSM struct {
	s       *summary.Summarizer
	workers int
	bounds  []summary.Key
	kids    []*lsm.Index
	g       gather

	// rawSums is the parent-owned CRC sidecar for the shared dataset file
	// (nil when checksums are off); the parent is the sole raw writer, so
	// it alone appends to and flushes the sidecar. degraded names children
	// quarantined whole at open (manifest unreadable).
	rawSums  *storage.RecordSums
	degraded []string

	// cache is the decoded-block cache every child reads through (one
	// shared budget across partitions).
	cache *blockcache.Cache

	// mu serializes appends: raw-file writes assign global arrival-order
	// positions before entries route to their owning partition's memtable.
	mu      sync.Mutex
	closed  bool
	rawFile storage.File
}

// lsmChildOptions derives partition i's options: the global memory,
// compaction-worker, and pending-run budgets divide across partitions so
// aggregate resource use matches the unpartitioned configuration. The
// ownership filter scopes any reconstruction-from-raw to the child's key
// range — the raw dataset is shared, and a child re-indexing a sibling's
// records would duplicate them across the index.
func lsmChildOptions(opt lsm.Options, i, parts, buildPar int, bounds []summary.Key) lsm.Options {
	co := opt
	co.Name = childName(opt.Name, i)
	co.Owns = func(k summary.Key) bool { return route(bounds, k) == i }
	co.MemBudgetBytes = divideBudget(opt.MemBudgetBytes, parts, 64<<10)
	co.Workers = shard.PerGroup(opt.Workers, buildPar)
	co.QueryWorkers = shard.PerGroup(opt.QueryWorkers, parts)
	co.CompactionWorkers = shard.PerGroup(opt.CompactionWorkers, parts)
	if opt.MaxPendingRuns > 0 {
		co.MaxPendingRuns = opt.MaxPendingRuns / parts
		if co.MaxPendingRuns < 1 {
			co.MaxPendingRuns = 1
		}
	}
	return co
}

// BuildLSM bulk-loads an N-way partitioned Coconut-LSM: one summarization
// pass scatters (key, position) records by key range, each partition sorts
// its records into an initial run in parallel, and the parent manifest
// commits last.
func BuildLSM(opt lsm.Options, parts int) (*LSM, error) {
	if opt.Cache == nil {
		opt.Cache = blockcache.New(0) // one budget for every child
	}
	sc, err := scatterDataset(opt.FS, opt.Name, opt.RawName, opt.S, false, opt.Checksums, opt.Workers, parts)
	if err != nil {
		return nil, err
	}
	opt.RawSums = sc.sums
	kids := make([]*lsm.Index, parts)
	buildPar := shard.Resolve(opt.Workers, parts)
	err = shard.FanOut(buildPar, parts, func(i int, cancelled func() bool) error {
		if cancelled() {
			return nil
		}
		co := lsmChildOptions(opt, i, parts, buildPar, sc.bounds)
		co.RecordsName = scatterName(opt.Name, i)
		ix, err := lsm.Build(co)
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
		err = commitParent(opt.FS, opt.Name, manifest.VariantLSM, opt.S,
			false, 0, opt.RawName, sc.total, opt.Checksums, sc.bounds, sc.children)
	}
	if err != nil {
		if rawFile != nil {
			rawFile.Close()
		}
		for _, k := range kids {
			if k != nil {
				k.Close()
			}
		}
		return nil, err
	}
	return newLSM(opt, sc.bounds, kids, rawFile, nil), nil
}

// OpenLSM reopens a partitioned Coconut-LSM from its parent manifest; each
// child restores its own run set and compaction cursors from its child
// manifest (which stays authoritative for mutable state). parts == 0
// adopts the stored partition count; a non-zero mismatch fails with
// manifest.ErrConfigMismatch. Never returns a partial handle.
func OpenLSM(opt lsm.Options, parts int) (*LSM, error) {
	if opt.Cache == nil {
		opt.Cache = blockcache.New(0) // one budget for every child
	}
	m, err := loadParent(opt.FS, opt.Name, manifest.VariantLSM, parts,
		opt.S.Params(), false, opt.RawName)
	if err != nil {
		return nil, err
	}
	// Checksums are a property of the stored bytes, not the caller's
	// configuration: adopt the flag the build recorded.
	opt.Checksums = m.Checksums
	if opt.Checksums {
		recSize := series.EncodedSize(opt.S.Params().SeriesLen)
		sums, serr := attachRawSums(opt.FS, opt.RawName, recSize)
		if serr != nil {
			return nil, serr
		}
		opt.RawSums = sums
	}
	n := m.Part.Partitions
	kids := make([]*lsm.Index, n)
	closeKids := func() {
		for _, k := range kids {
			if k != nil {
				k.Close()
			}
		}
	}
	var degraded []string
	for i, cname := range m.Part.Children {
		co := lsmChildOptions(opt, i, n, n, m.Part.Boundaries)
		co.Name = cname
		ix, err := lsm.Open(co)
		if err != nil {
			if quarantineChild(opt.AllowDegraded, err) {
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
	return newLSM(opt, m.Part.Boundaries, kids, rawFile, degraded), nil
}

func newLSM(opt lsm.Options, bounds []summary.Key, kids []*lsm.Index, rawFile storage.File, degraded []string) *LSM {
	l := &LSM{
		s:        opt.S,
		workers:  opt.Workers,
		bounds:   bounds,
		kids:     kids,
		rawFile:  rawFile,
		rawSums:  opt.RawSums,
		cache:    opt.Cache,
		degraded: degraded,
	}
	sks := make([]searcher, len(kids))
	for i, k := range kids {
		if k != nil {
			sks[i] = lsmChild{k}
		}
	}
	w := opt.Window
	if w <= 0 {
		w = 100
	}
	l.g = gather{
		kids:    sks,
		workers: opt.QueryWorkers,
		half:    func(int) int { return w / 2 },
	}
	return l
}

type lsmChild struct{ ix *lsm.Index }

func (c lsmChild) count() int64 { return c.ix.Count() }
func (c lsmChild) approxWindow(ctx context.Context, q series.Series, _ int) (core.ApproxWindow, error) {
	return c.ix.ApproxWindowCandsCtx(ctx, q)
}
func (c lsmChild) exactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (core.Result, error) {
	r, err := c.ix.ExactVerifyCtx(ctx, q, seedPos, seedSq, bound)
	return core.Result{Pos: r.Pos, Dist: r.Dist, VisitedRecords: r.VisitedRecords, VisitedLeaves: r.VisitedRuns}, err
}

// fromCore maps the gather result back into the LSM result shape (runs
// probed travel in the VisitedLeaves slot internally).
func lsmResult(r core.Result) lsm.Result {
	return lsm.Result{Pos: r.Pos, Dist: r.Dist, VisitedRecords: r.VisitedRecords, VisitedRuns: r.VisitedLeaves}
}

// ExactSearch returns the exact nearest neighbor of q via scatter-gather
// SIMS, identical to a single-partition index's answer.
func (l *LSM) ExactSearch(q series.Series) (lsm.Result, error) {
	return l.ExactSearchCtx(context.Background(), q)
}

// ExactSearchCtx is ExactSearch with cancellation: a parent cancel cancels
// every partition's verification, the first child error cancels its
// siblings, and a done ctx returns ctx.Err() — never a partial answer.
func (l *LSM) ExactSearchCtx(ctx context.Context, q series.Series) (lsm.Result, error) {
	r, err := l.g.exactSq(ctx, q, 0)
	r.Dist = math.Sqrt(r.Dist)
	return lsmResult(r), err
}

// ApproxSearch returns the approximate nearest neighbor from the merged
// cross-partition window.
func (l *LSM) ApproxSearch(q series.Series) (lsm.Result, error) {
	return l.ApproxSearchCtx(context.Background(), q)
}

// ApproxSearchCtx is ApproxSearch with cancellation (see ExactSearchCtx).
func (l *LSM) ApproxSearchCtx(ctx context.Context, q series.Series) (lsm.Result, error) {
	r, err := l.g.approxSq(ctx, q, 0)
	r.Dist = math.Sqrt(r.Dist)
	return lsmResult(r), err
}

// Append adds new series: raw bytes go to the shared dataset file under
// the partition-level lock (assigning global arrival-order positions),
// then each record routes to its owning partition's memtable and WAL —
// partitions flush, group-commit, and compact independently. Routing uses
// AppendEntriesNoWait under the lock and waits on every child's
// durability token after releasing it, so concurrent Append calls share
// each child's group commit instead of serializing whole-batch fsyncs.
func (l *LSM) Append(batch []series.Series) error {
	return l.AppendCtx(context.Background(), batch)
}

// AppendCtx is Append with cancellation as admission control: the context
// is checked once before any raw byte lands; once admitted the batch is
// fully routed and logged (aborting mid-route would leave raw bytes some
// partitions indexed and others did not). A cancelled appender abandons
// the durability waits — the children's group commits still fsync the
// logged entries, so the index stays consistent.
func (l *LSM) AppendCtx(ctx context.Context, batch []series.Series) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	l.mu.Lock()
	tokens, err := l.appendLocked(batch)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return shard.FanOutCtx(ctx, shard.Resolve(l.workers, len(l.kids)), len(l.kids),
		func(i int, cancelled func() bool) error {
			if cancelled() || tokens[i] < 0 {
				return nil
			}
			return l.kids[i].WaitDurableCtx(ctx, tokens[i])
		})
}

// appendLocked writes raw bytes, routes records, and logs them into each
// owning child; tokens[i] is child i's durability token (-1 when the
// batch routed nothing to it).
func (l *LSM) appendLocked(batch []series.Series) ([]int64, error) {
	p := l.s.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	end, err := l.rawFile.Size()
	if err != nil {
		return nil, err
	}
	for _, s := range batch {
		if len(s) != p.SeriesLen {
			return nil, fmt.Errorf("partition: series length %d, want %d", len(s), p.SeriesLen)
		}
	}
	keys, err := l.s.KeysOf(batch, l.workers)
	if err != nil {
		return nil, err
	}
	// Refuse the whole batch before writing any raw bytes if a record
	// routes to a quarantined partition: a degraded index fails writes
	// loudly rather than silently dropping them.
	routes := make([]int, len(batch))
	for i := range keys {
		routes[i] = route(l.bounds, keys[i])
		if l.kids[routes[i]] == nil {
			return nil, fmt.Errorf("partition: partition %d is quarantined; cannot accept writes until repaired", routes[i])
		}
	}
	// A torn raw tail can survive a crash (the partial record was never
	// acknowledged); the round-down overwrites it, exactly as the
	// single-index path does.
	pos := end / sz
	perChild := make([][]lsm.Entry, len(l.kids))
	enc := make([]byte, 0, sz)
	for i := range batch {
		enc = series.AppendEncode(enc[:0], batch[i])
		if _, err := l.rawFile.WriteAt(enc, pos*sz); err != nil {
			return nil, err
		}
		if l.rawSums != nil {
			l.rawSums.Set(pos, enc)
		}
		perChild[routes[i]] = append(perChild[routes[i]], lsm.Entry{Key: keys[i], Pos: pos})
		pos++
	}
	tokens := make([]int64, len(l.kids))
	for i, entries := range perChild {
		tokens[i] = -1
		if len(entries) == 0 {
			continue
		}
		lsn, err := l.kids[i].AppendEntriesNoWait(entries)
		if err != nil {
			return nil, err
		}
		tokens[i] = lsn
	}
	return tokens, nil
}

// flushRawSums persists the parent sidecar's dirty tail; it must land
// before child manifests can reference the new raw positions.
func (l *LSM) flushRawSums() error {
	if l.rawSums == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rawSums.Flush()
}

// Flush forces every partition's memtable to disk.
func (l *LSM) Flush() error {
	if err := l.flushRawSums(); err != nil {
		return err
	}
	for _, k := range l.kids {
		if k == nil {
			continue
		}
		if err := k.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes every partition and drains its background compactions —
// the global quiescence barrier.
func (l *LSM) Sync() error {
	if err := l.flushRawSums(); err != nil {
		return err
	}
	for _, k := range l.kids {
		if k == nil {
			continue
		}
		if err := k.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Degraded reports whether any partition (or any run inside a healthy
// partition) is quarantined: answers cover only the healthy remainder.
func (l *LSM) Degraded() bool {
	if len(l.degraded) > 0 {
		return true
	}
	for _, k := range l.kids {
		if k != nil && k.Degraded() {
			return true
		}
	}
	return false
}

// QuarantinedChildren returns the names of partitions quarantined whole
// at open (unreadable child manifests).
func (l *LSM) QuarantinedChildren() []string { return append([]string(nil), l.degraded...) }

// RebuildQuarantined re-derives every healthy partition's quarantined
// runs from the shared raw dataset. Partitions quarantined whole need a
// full rebuild and are reported, not repaired.
func (l *LSM) RebuildQuarantined() error {
	for _, k := range l.kids {
		if k == nil {
			continue
		}
		if err := k.RebuildQuarantined(); err != nil {
			return err
		}
	}
	if len(l.degraded) > 0 {
		return fmt.Errorf("partition: %d partition(s) quarantined whole (%v); rebuild the index to repair",
			len(l.degraded), l.degraded)
	}
	return nil
}

// CacheStats returns the shared block cache's counters — whole-index
// numbers, since one cache serves every partition.
func (l *LSM) CacheStats() blockcache.Stats { return l.cache.Stats() }

// Partitions returns the partition count.
func (l *LSM) Partitions() int { return len(l.kids) }

// Count returns the number of indexed series across all partitions.
func (l *LSM) Count() int64 { return l.g.total() }

// NumRuns returns the total on-disk run count across partitions.
func (l *LSM) NumRuns() int {
	n := 0
	for _, k := range l.kids {
		if k != nil {
			n += k.NumRuns()
		}
	}
	return n
}

// SizeBytes returns the total size of all runs across partitions.
func (l *LSM) SizeBytes() int64 {
	var n int64
	for _, k := range l.kids {
		if k != nil {
			n += k.SizeBytes()
		}
	}
	return n
}

// Close flushes, drains, and closes every partition, then releases the
// raw handle. It is idempotent and safe to call concurrently with
// cancelled queries and abandoned durability waiters.
func (l *LSM) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	first := l.flushRawSums()
	for _, k := range l.kids {
		if k == nil {
			continue
		}
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := l.rawFile.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
