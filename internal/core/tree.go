package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/bptree"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// TreeIndex is Coconut-Tree (Algorithm 3): leaf pages bulk-loaded
// bottom-up over sorted invSAX keys, contiguous and packed to the fill
// factor, under a flat leaf directory that lives in the manifest.
// Approximate search lands on the query key's position in the sorted
// summary array, and exact search is CoconutTreeSIMS (Algorithm 5).
//
// A TreeIndex is a partition child (internal/partition): it answers through
// the two steps of a query — its approximate window contribution and the
// SIMS verification under a seed — and takes records whose raw bytes the
// partition layer appended to the raw log. Any number of steps may run at
// once on one handle, and InsertRecords/Sync/Close serialize against them
// through a handle-level RWMutex; a query's window fetches, which outlive
// ApproxWindowCands, are serialized against inserts by the partition layer's
// handle lock. Per-query scratch buffers are allocated per call, and the
// lazily rebuilt SIMS summary array is guarded by its own mutex.
type TreeIndex struct {
	opt     Options
	bt      *bptree.Tree
	rawFile storage.File
	count   int64
	// rawSums is the partition layer's raw log: it verifies raw reads, and
	// Sync commits it before the manifest may reference inserted positions.
	rawSums *storage.RecordSums
	// qmu is the handle lock: queries hold it shared, mutations
	// (InsertRecords, Sync, Close) exclusively.
	qmu sync.RWMutex
	// closed makes Close idempotent: a second Close (or one racing a
	// cancelled query's teardown) is a no-op instead of a double file close.
	closed bool
	// lazyMu guards the lazily (re)built state below: the SIMS summary
	// array refresh after inserts/Open. Queries only ever read that state
	// after passing through a lazyMu critical section, so concurrent readers
	// are safe.
	lazyMu sync.Mutex
	// sims is the in-memory sorted summary array, aligned with the tree's
	// leaf order.
	sims simsArray
	// simsDirty marks the summary array stale after inserts.
	simsDirty bool
	// dirty marks the committed leaf pages and directory (the manifest)
	// stale after inserts; Sync/Close make both durable again.
	dirty bool
}

// BuildTree runs the Coconut-Tree pipeline over opt.Records: external sort
// straight into packed leaf pages (the UB-tree bulk load), capturing the
// sorted summary array on the way. A failed build leaves none of its files
// behind.
func BuildTree(opt Options) (*TreeIndex, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := &TreeIndex{opt: opt, rawFile: raw, rawSums: opt.RawSums}
	if err := ix.build(); err != nil {
		if ix.bt != nil {
			ix.bt.Close()
		}
		raw.Close()
		removeFiles(opt.FS, treeLeafFile(opt.Name))
		return nil, err
	}
	return ix, nil
}

// treeLeafFile names what a tree build of name writes besides its manifest.
func treeLeafFile(name string) string { return name + ".bt.leaves" }

// RemoveTree deletes every file of the Coconut-Tree name, manifest
// included: the partition layer's undo for the finished children of a build
// that failed as a whole.
func RemoveTree(fs storage.FS, name string) {
	removeFiles(fs, treeLeafFile(name), manifest.FileName(name))
}

func (ix *TreeIndex) build() error {
	opt := &ix.opt
	cfg := bptree.Config{
		FS:         opt.FS,
		Name:       opt.Name + ".bt",
		RecordSize: opt.recordSize(),
		KeyLen:     summary.KeySize,
		LeafCap:    opt.LeafCap,
		FillFactor: opt.FillFactor,
	}
	ld, err := bptree.NewLoader(cfg)
	if err != nil {
		return err
	}
	if ix.sims, err = sortRecords(opt, treeLeafFile(opt.Name), ld.Wrap); err != nil {
		return fmt.Errorf("core: sorting summarizations into leaves: %w", err)
	}
	if ix.bt, err = bptree.Open(cfg, ld.Leaves()); err != nil {
		return err
	}
	ix.count = ix.bt.Count()
	// The manifest commit is the durability point: from here on the index
	// can be reopened with OpenTree without touching the raw dataset.
	return ix.writeManifest()
}

// OpenTree reopens a previously built Coconut-Tree from its manifest, which
// holds the leaf directory, and its leaf file. The options must name the
// same FS, Name, RawName, summarizer configuration, and materialization as
// the build — mismatches fail loudly with manifest.ErrConfigMismatch. The
// in-memory summary array is rebuilt lazily on the first query — from the
// index's own leaves, never from the raw dataset — and a page that does not
// match its directory entry (a leaf file of another geometry, or a page
// written after the manifest was committed) fails it with
// storage.ErrCorruptData.
func OpenTree(opt Options) (*TreeIndex, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	m, err := LoadManifest(opt.FS, opt.Name)
	if err != nil {
		return nil, err
	}
	if err := checkOpenConfig(&opt, m, manifest.VariantTree); err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	bt, err := bptree.Open(treeLeaves(opt.FS, opt.Name, m))
	if err != nil {
		raw.Close()
		// Like a trie's leaf file, the manifest-referenced leaf file types
		// its corruption as both kinds (see openLeafFile).
		if errors.Is(err, storage.ErrCorruptData) {
			err = fmt.Errorf("%w: %w", manifest.ErrCorruptManifest, err)
		}
		return nil, fmt.Errorf("core: open tree: %w", err)
	}
	return &TreeIndex{opt: opt, bt: bt, rawFile: raw, rawSums: opt.RawSums, count: bt.Count(), simsDirty: true}, nil
}

// Count returns the number of indexed series.
func (ix *TreeIndex) Count() int64 {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	return ix.count
}

// Shape returns the leaf-page count and the mean leaf occupancy (the
// paper's ~97%).
func (ix *TreeIndex) Shape() Shape {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	return Shape{Leaves: ix.bt.NumLeaves(), LeafFill: ix.bt.AvgLeafFill()}
}

// SizeBytes returns the on-device index footprint.
func (ix *TreeIndex) SizeBytes() int64 {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	return ix.bt.SizeBytes()
}

// Sync persists what inserts made stale — the leaf pages and the manifest
// that holds their directory — so a subsequent OpenTree observes the
// inserted records. A freshly built or unmodified handle syncs for free.
func (ix *TreeIndex) Sync() error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	return ix.syncLocked()
}

func (ix *TreeIndex) syncLocked() error {
	if !ix.dirty {
		return nil
	}
	// The raw log first (leaf records reference its positions), then the
	// leaf pages, then the one commit point: the manifest, with the
	// directory of those pages.
	if err := ix.rawSums.Commit(context.Background(), ix.rawSums.Records()); err != nil {
		return err
	}
	if err := ix.bt.Sync(); err != nil {
		return err
	}
	if err := ix.writeManifest(); err != nil {
		return err
	}
	ix.dirty = false
	return nil
}

// Close persists pending metadata (see Sync) and releases the file
// handles. It must not race in-flight queries; the handle lock makes it
// wait for them. Close is idempotent, and shards a cancelled query
// abandoned may still touch the files after Close — those reads fail with
// an I/O error that nobody reads, which is safe by construction.
func (ix *TreeIndex) Close() error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	if ix.closed {
		return nil
	}
	ix.closed = true
	return errors.Join(ix.syncLocked(), ix.bt.Close(), ix.rawFile.Close())
}

// ApproxWindowCands is the tree's contribution to an approximate search,
// Algorithm 4 on the sorted summary array: the ApproxWindow*(radius+1)
// records surrounding the query key's insertion position in the global
// record order — the paper's "all data series in a specific radius from this
// specific point ... usually a disk page" (§4.3) — which the partition layer
// merges with its siblings' and evaluates in lower-bound order with early
// stop (see internal/window). Its candidates are read from the index/dataset
// files after the handle lock is released, under the partition layer's
// handle lock, which keeps inserts out until the last fetch. An empty index
// contributes nothing. Whoever evaluates the merged window (EvalWindow)
// observes its ctx between records.
func (ix *TreeIndex) ApproxWindowCands(_ context.Context, q series.Series, radius int) (ApproxWindow, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	if ix.count == 0 {
		return ApproxWindow{}, nil
	}
	return ix.approxWindow(q, radius)
}

// approxWindow collects the tree's window contribution: the trailing and
// leading half-windows around the query key's insertion position in the
// sorted summary array. Leaves counts the leaf pages the window ordinals
// span.
func (ix *TreeIndex) approxWindow(q series.Series, radius int) (ApproxWindow, error) {
	if err := ix.ensureSIMS(); err != nil {
		return ApproxWindow{}, err
	}
	aw, lo, hi, err := windowCands(&ix.opt, &ix.sims, q, radius)
	if err == nil && lo < hi {
		_, bases := ix.leafBases()
		aw.Leaves = int64(leafOfOrd(bases, hi-1) - leafOfOrd(bases, lo) + 1)
	}
	if aw.Fetch = ix.leafFetch(); aw.Fetch == nil {
		aw.Raw, aw.Sums = ix.rawFile, ix.rawSums
	}
	return aw, err
}

// leafBases returns the leaf directory and each leaf's starting ordinal in
// the global record order.
func (ix *TreeIndex) leafBases() ([]bptree.Leaf, []int) {
	dir := ix.bt.Leaves()
	bases := make([]int, len(dir))
	base := 0
	for i, l := range dir {
		bases[i] = base
		base += l.Count
	}
	return dir, bases
}

// leafFetch returns a materialized index's per-query window candidate
// fetcher: it reads the index's own leaves, caching each page for the
// duration of the query and never touching the raw dataset. Nil when not
// materialized: the candidates are read from the raw dataset
// (ApproxWindow.Raw).
func (ix *TreeIndex) leafFetch() window.FetchFunc {
	if !ix.opt.Materialized {
		return nil
	}
	recSize := ix.opt.recordSize()
	var (
		bases []int
		cache map[int][]byte
	)
	return func(c window.Cand, _ []byte) ([]byte, error) {
		if cache == nil {
			_, bases = ix.leafBases()
			cache = make(map[int][]byte)
		}
		li := leafOfOrd(bases, c.Ord)
		buf, ok := cache[li]
		if !ok {
			b := make([]byte, ix.opt.LeafCap*recSize)
			n, err := ix.bt.ReadLeaf(li, b)
			if err != nil {
				return nil, err
			}
			buf = b[:n*recSize]
			cache[li] = buf
		}
		_, _, raw := decodeRecord(buf[(c.Ord-bases[li])*recSize:(c.Ord-bases[li]+1)*recSize], true)
		return raw, nil
	}
}

// ensureSIMS rebuilds the in-memory sorted summary array after updates by
// one sequential pass over the leaves in directory order, into arrays sized
// for the tree's count. The rebuild is serialized on lazyMu; concurrent
// queries that lose the race wait and then read the fresh arrays (the
// mutex's happens-before makes that safe).
func (ix *TreeIndex) ensureSIMS() error {
	ix.lazyMu.Lock()
	defer ix.lazyMu.Unlock()
	if !ix.simsDirty {
		return nil
	}
	sims := newSimsArray(ix.opt.S, int(ix.count))
	err := ix.bt.ScanAll(func(rec []byte) error {
		sims.add(rec)
		return nil
	})
	if err != nil {
		return err
	}
	ix.sims, ix.simsDirty = sims, false
	return nil
}

// ExactVerify is the verification phase of CoconutTreeSIMS (Algorithm 5)
// against an externally computed seed (the partition layer's global
// approximate answer) and a shared cross-partition bound: lower bounds are
// computed for all series in parallel from the in-memory sorted summaries,
// and unpruned candidates are fetched with a skip-sequential scan sharded
// across Options.QueryWorkers — over the tree's own leaves when
// materialized, else over the raw file in position order, file-adjacent
// candidates sharing one read (scanRaw). The returned Result is in SQUARED
// space and its counters cover this index's verification work only; an
// index that finds no improvement returns the seed unchanged. (Pos, Dist) is
// identical for any worker count. Cancellation is checked at leaf-visit
// granularity, a cancelled query returns ctx.Err() promptly (never a partial
// answer), and shards stuck in a blocking read are abandoned rather than
// waited for.
func (ix *TreeIndex) ExactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	res := Result{Pos: seedPos, Dist: seedSq}
	if ix.count == 0 {
		return res, nil
	}
	if err := ix.ensureSIMS(); err != nil {
		return res, err
	}
	return simsVerify(ctx, &ix.opt, q, &ix.sims, res, bound, ix.rawFile, ix.rawSums, ix.simsOverLeaves)
}

// applyScan folds a ScanReduce result into res.
func applyScan(res Result, pos int64, dist float64, vr, vl int64) Result {
	res.Pos, res.Dist = pos, dist
	res.VisitedRecords += vr
	res.VisitedLeaves += vl
	return res
}

// simsOverLeaves is the materialized scan: walk the leaf directory in
// order, skipping leaves with no unpruned candidate. cands are the
// survivors of the lower-bound pass in summary-array order, IDs being
// ordinals; a record that is not among them was at or above the seed bound
// and could pass none of the checks below. The directory is partitioned
// into contiguous shards that scan concurrently, sharing a best-so-far
// bound; each shard prunes with its own running bound (exact serial
// semantics) plus the shared bound under strict inequality, which keeps the
// reduced answer identical to a serial scan. Lower bounds and all Dist
// fields are squared distances; the pruning logic is oblivious to the space
// because sqrt preserves order.
func (ix *TreeIndex) simsOverLeaves(ctx context.Context, q series.Series, cands []summary.Cand, res Result, bound *shard.BSF) (Result, error) {
	dir, bases := ix.leafBases()
	recSize := ix.opt.recordSize()
	pos, dist, vr, vl, err := shard.ScanReduce(ctx, ix.opt.QueryWorkers, len(dir), res.Pos, res.Dist, func(r shard.Range, local *shard.Outcome, cancelled func() bool) error {
		buf := make([]byte, ix.opt.LeafCap*recSize)
		rest := candsFrom(cands, bases[r.Lo])
		for li := r.Lo; li < r.Hi && len(rest) > 0; li++ {
			if cancelled() {
				return nil
			}
			var leaf []summary.Cand
			leaf, rest = leafCands(rest, bases[li]+dir[li].Count)
			if !slices.ContainsFunc(leaf, func(c summary.Cand) bool { return c.LB < local.Dist && !bound.Prunes(c.LB) }) {
				continue
			}
			n, err := ix.bt.ReadLeaf(li, buf)
			if err != nil {
				return err
			}
			local.VisitedLeaves++
			for _, c := range leaf {
				i := int(c.ID) - bases[li]
				if i >= n || c.LB >= local.Dist || bound.Prunes(c.LB) {
					continue
				}
				pos, sq := leafSquaredDistance(q, buf[i*recSize:(i+1)*recSize])
				local.VisitedRecords++
				if sq < local.Dist {
					local.Dist, local.Pos = sq, pos
					bound.Lower(sq)
				}
			}
		}
		return nil
	})
	return applyScan(res, pos, dist, vr, vl), err
}

// InsertRecords inserts pre-summarized records whose raw bytes the
// partition layer already appended to the raw log, top-down with median
// splits (the update path of Figure 10a). Sorting the batch by key first
// concentrates the leaf touches — larger batches approach bulk-load
// locality, which is why Coconut wins when updates arrive in volume. The
// inserts become durable at the next Sync.
func (ix *TreeIndex) InsertRecords(recs []InsertRec) error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	if len(recs) == 0 {
		return nil
	}
	recs = append([]InsertRec(nil), recs...)
	sort.Slice(recs, func(a, b int) bool { return recs[a].Key.Less(recs[b].Key) })
	rec := make([]byte, ix.opt.recordSize())
	for _, r := range recs {
		encodeRecord(rec, r.Key, r.Pos, r.Raw)
		if err := ix.bt.Insert(rec); err != nil {
			return err
		}
	}
	ix.count += int64(len(recs))
	ix.simsDirty = true
	ix.dirty = true
	return nil
}

var _ io.Closer = (*TreeIndex)(nil)
