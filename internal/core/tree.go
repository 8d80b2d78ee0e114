package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/bptree"
	"github.com/coconut-db/coconut/internal/extsort"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// TreeIndex is Coconut-Tree (Algorithm 3): a balanced B+-tree bulk-loaded
// bottom-up over sorted invSAX keys. Leaves are contiguous, chained, and
// packed to the fill factor; approximate search lands on the leaf where the
// query's key would live, and exact search is CoconutTreeSIMS (Algorithm 5).
//
// A TreeIndex handle is safe for concurrent use: any number of queries
// (ApproxSearch, ExactSearch, ExactSearchKNN) may run at once on one
// handle, and Insert/Close serialize against them through a
// handle-level RWMutex. Per-query scratch buffers are allocated per call,
// and the lazily rebuilt SIMS summary array and leaf-directory index are
// guarded by their own mutex.
type TreeIndex struct {
	opt     Options
	bt      *bptree.Tree
	rawFile storage.File
	count   int64
	// rawSums verifies raw-dataset reads when checksums are on; ownSums
	// marks the handle as this index's own (built/opened here, maintained
	// on inserts) rather than the partition layer's shared one.
	rawSums *storage.RecordSums
	ownSums bool
	// qmu is the handle lock: queries hold it shared, mutations
	// (Insert, DropCaches, Close) exclusively.
	qmu sync.RWMutex
	// closed makes Close idempotent: a second Close (or one racing a
	// cancelled query's teardown) is a no-op instead of a double file close.
	closed bool
	// lazyMu guards the lazily (re)built state below: the SIMS summary
	// array refresh after inserts/Open, and the leaf-id -> chain-position
	// index. Queries only ever read that state after passing through a
	// lazyMu critical section, so concurrent readers are safe.
	lazyMu sync.Mutex
	// keys/positions hold the in-memory sorted summary array aligned with
	// the tree's leaf order (the paper: summaries are orders of magnitude
	// smaller than the data and stay in memory).
	keys      []summary.Key
	positions []int64
	// simsDirty marks the summary array stale after inserts.
	simsDirty bool
	// metaDirty marks the persisted meta (B+-tree directory + manifest)
	// stale after inserts; Sync/Close rewrite both.
	metaDirty bool
	// leafIdx maps a leaf page id to its chain position (lazily rebuilt).
	leafIdx map[int64]int
}

// teeSource forwards a sorted record stream into the bulk loader while
// capturing the (key, position) pairs for the in-memory summary array.
type teeSource struct {
	rr        *extsort.RecordReader
	keys      *[]summary.Key
	positions *[]int64
}

func (t *teeSource) Next() ([]byte, error) {
	rec, err := t.rr.Next()
	if err != nil {
		return nil, err
	}
	key, pos, _ := decodeRecord(rec, false)
	*t.keys = append(*t.keys, key)
	*t.positions = append(*t.positions, pos)
	return rec, nil
}

// BuildTree runs the full Coconut-Tree pipeline: summarize -> external sort
// -> UB-tree bulk load. A failed build leaves none of its files behind.
func BuildTree(opt Options) (*TreeIndex, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := &TreeIndex{opt: opt, rawFile: raw}
	if err := ix.build(); err != nil {
		if ix.bt != nil {
			ix.bt.Close()
		}
		raw.Close()
		removeFiles(opt.FS, treeFiles(opt.Name)...)
		return nil, err
	}
	return ix, nil
}

// treeFiles lists what a tree build of name writes besides its manifest.
func treeFiles(name string) []string {
	return []string{name + ".sorted", name + ".bt.leaves", name + ".bt.meta"}
}

// RemoveTree deletes every file of the Coconut-Tree name, manifest
// included: the partition layer's undo for the finished children of a build
// that failed as a whole.
func RemoveTree(fs storage.FS, name string) {
	removeFiles(fs, append(treeFiles(name), manifest.FileName(name))...)
}

func (ix *TreeIndex) build() error {
	opt := &ix.opt
	sortedName := opt.Name + ".sorted"
	var err error
	if ix.rawSums, ix.ownSums, err = sortRecords(opt, ix.rawFile, sortedName, nil, nil); err != nil {
		return fmt.Errorf("core: sorting summarizations: %w", err)
	}
	rr, err := extsort.OpenRecords(opt.FS, sortedName, opt.recordSize(), 0)
	if err != nil {
		return err
	}
	tee := &teeSource{rr: rr, keys: &ix.keys, positions: &ix.positions}
	bt, err := bptree.BulkLoad(bptree.Config{
		FS:         opt.FS,
		Name:       opt.Name + ".bt",
		RecordSize: opt.recordSize(),
		KeyLen:     summary.KeySize,
		LeafCap:    opt.LeafCap,
		FillFactor: opt.FillFactor,
		Fanout:     opt.Fanout,
		Checksums:  opt.Checksums,
	}, tee)
	rr.Close()
	if err != nil {
		return fmt.Errorf("core: bulk loading: %w", err)
	}
	ix.bt = bt
	ix.count = bt.Count()
	_ = opt.FS.Remove(sortedName) // a stray temporary does not fail a build
	if err := bt.Save(); err != nil {
		return err
	}
	// The manifest commit is the durability point: from here on the index
	// can be reopened with OpenTree without touching the raw dataset.
	return ix.writeManifest()
}

// OpenTree reopens a previously built Coconut-Tree from its manifest and
// persisted B+-tree. The options must name the same FS, Name, RawName,
// summarizer configuration, and materialization as the build — mismatches
// fail loudly with manifest.ErrConfigMismatch, and a manifest that
// disagrees with the B+-tree meta (stale or mixed builds) fails with
// manifest.ErrCorruptManifest. The tree geometry is restored from the
// persisted metadata and the in-memory summary array is rebuilt lazily on
// the first exact query — from the index's own leaves, never from the raw
// dataset.
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
	// Like Materialized, the checksummed-block layout is a property of the
	// stored bytes; adopt the manifest's flag so the pages are read the
	// only way they can be.
	opt.Checksums = m.Checksums
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	bt, err := bptree.Open(bptree.Config{FS: opt.FS, Name: opt.Name + ".bt", Checksums: opt.Checksums})
	if err != nil {
		raw.Close()
		return nil, err
	}
	stale, err := checkTreeGeometry(opt, m, bt.Geometry())
	if err != nil {
		bt.Close()
		raw.Close()
		return nil, err
	}
	ix := &TreeIndex{opt: opt, bt: bt, rawFile: raw, count: bt.Count(), simsDirty: true}
	if ix.rawSums, ix.ownSums, err = AttachRawSums(opt.FS, opt.RawName, opt.S, opt.Checksums, opt.RawSums, raw); err != nil {
		bt.Close()
		raw.Close()
		return nil, err
	}
	if stale {
		// Crash window between meta save and manifest commit: the meta is
		// newer. Heal by recommitting the manifest from the live tree.
		if err := ix.writeManifest(); err != nil {
			bt.Close()
			raw.Close()
			return nil, err
		}
	}
	return ix, nil
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

// Degraded is always false: a tree opens whole or not at all.
func (ix *TreeIndex) Degraded() bool { return false }

// SizeBytes returns the on-device index footprint.
func (ix *TreeIndex) SizeBytes() int64 {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	return ix.bt.SizeBytes() + ix.bt.MetaSizeBytes()
}

// Sync persists any metadata made stale by inserts — the B+-tree leaf
// directory and the index manifest — so a subsequent OpenTree observes the
// inserted records. A freshly built or unmodified handle syncs for free.
func (ix *TreeIndex) Sync() error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	return ix.syncLocked()
}

func (ix *TreeIndex) syncLocked() error {
	if !ix.metaDirty {
		return nil
	}
	// Inserted raw bytes first (leaf records reference their positions),
	// then the raw CRC sidecar (it describes the fsynced raw bytes), then
	// the leaf file + meta (bt.Save syncs both), then the manifest.
	if err := ix.rawFile.Sync(); err != nil {
		return err
	}
	if ix.ownSums && ix.rawSums != nil {
		if err := ix.rawSums.Flush(); err != nil {
			return err
		}
	}
	if err := ix.bt.Save(); err != nil {
		return err
	}
	if err := ix.writeManifest(); err != nil {
		return err
	}
	ix.metaDirty = false
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
	syncErr := ix.syncLocked()
	err1 := ix.bt.Close()
	err2 := ix.rawFile.Close()
	if syncErr != nil {
		return syncErr
	}
	if err1 != nil {
		return err1
	}
	return err2
}

// DropCaches flushes the tree's page cache (cold-start experiments).
func (ix *TreeIndex) DropCaches() error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	return ix.bt.DropCache()
}

func (ix *TreeIndex) leafIndexOf(id int64) int {
	ix.lazyMu.Lock()
	defer ix.lazyMu.Unlock()
	if ix.leafIdx == nil || len(ix.leafIdx) != ix.bt.NumLeaves() {
		ix.leafIdx = make(map[int64]int, ix.bt.NumLeaves())
		for i, lid := range ix.bt.LeafDir() {
			ix.leafIdx[lid] = i
		}
	}
	return ix.leafIdx[id]
}

// finishResult converts an internal squared-space Result into the public
// Euclidean form. sqrt is monotone on non-negative reals, so the winning
// (Pos, squared distance) pair picked by squared comparisons is the same
// record the sqrt-space scan would pick, and sqrt of its exact squared sum
// is byte-identical to the distance the sqrt-space scan would report.
func finishResult(res Result) Result {
	res.Dist = math.Sqrt(res.Dist)
	return res
}

// ApproxSearch implements Algorithm 4 on the sorted summary array: examine
// the ApproxWindow*(radius+1) records surrounding the query key's insertion
// position in the global record order — the paper's "all data series in a
// specific radius from this specific point ... usually a disk page" (§4.3)
// — fetching them in lower-bound order with early stop. The window depends
// only on the sorted record multiset, so the answer is identical across
// layouts (see internal/window). Safe for concurrent use. Cancellation is
// checked before every candidate fetch, and a cancelled query returns
// ctx.Err().
func (ix *TreeIndex) ApproxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	res, err := ix.approxSearch(ctx, q, radius)
	return finishResult(res), err
}

// approxSearch is the internal form of ApproxSearch; res.Dist holds the
// SQUARED best distance.
func (ix *TreeIndex) approxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	if ix.count == 0 {
		return Result{Pos: -1, Dist: math.Inf(1)}, ErrEmptyIndex
	}
	aw, err := ix.approxWindow(q, radius)
	if err != nil {
		return Result{Pos: -1, Dist: math.Inf(1)}, err
	}
	return aw.search(ctx, q, ix.opt.ApproxWindow*(radius+1)/2)
}

// ApproxWindowCands exposes the tree's window contribution to the
// partition layer's cross-partition approximate search. Its candidates are
// read from the index/dataset files after the handle lock is released; the
// partition layer serializes queries against mutations with its own lock.
// An empty index contributes nothing. Whoever evaluates the merged window
// (EvalWindow) observes its ctx between records.
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
	aw, lo, hi, err := windowCands(&ix.opt, ix.keys, ix.positions, q, radius)
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
func (ix *TreeIndex) leafBases() ([]int64, []int) {
	dir := ix.bt.LeafDir()
	bases := make([]int, len(dir))
	base := 0
	for i, id := range dir {
		bases[i] = base
		base += ix.bt.LeafRecordCount(id)
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
		dir   []int64
		bases []int
		cache map[int][]byte
	)
	return func(c window.Cand, _ []byte) ([]byte, error) {
		if cache == nil {
			dir, bases = ix.leafBases()
			cache = make(map[int][]byte)
		}
		li := leafOfOrd(bases, c.Ord)
		buf, ok := cache[li]
		if !ok {
			b := make([]byte, ix.opt.LeafCap*recSize)
			n, err := ix.bt.ReadLeaf(dir[li], b)
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
// one sequential pass over the chained leaves. The rebuild is serialized on
// lazyMu; concurrent queries that lose the race wait and then read the
// fresh arrays (the mutex's happens-before makes that safe).
func (ix *TreeIndex) ensureSIMS() error {
	ix.lazyMu.Lock()
	defer ix.lazyMu.Unlock()
	if !ix.simsDirty {
		return nil
	}
	ix.keys = ix.keys[:0]
	ix.positions = ix.positions[:0]
	err := ix.bt.ScanAll(func(rec []byte) error {
		key, pos, _ := decodeRecord(rec, false)
		ix.keys = append(ix.keys, key)
		ix.positions = append(ix.positions, pos)
		return nil
	})
	if err != nil {
		return err
	}
	ix.simsDirty = false
	return nil
}

// ExactSearch runs CoconutTreeSIMS (Algorithm 5): approximate search seeds
// the best-so-far, lower bounds are computed for all series in parallel
// from the in-memory sorted summaries, and unpruned candidates are fetched
// with a skip-sequential scan sharded across Options.QueryWorkers — over
// the tree's own leaves when materialized, else over the raw file in
// position order, file-adjacent candidates sharing one read (scanRaw). Safe
// for concurrent use; (Pos, Dist) is identical for any worker count.
// Cancellation is checked at leaf-visit granularity in the verification
// scan, a cancelled query returns ctx.Err() promptly (never a partial
// answer), and shards stuck in a blocking read are abandoned rather than
// waited for.
func (ix *TreeIndex) ExactSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	res, err := ix.exactSearch(ctx, q, radius)
	return finishResult(res), err
}

// exactSearch runs the whole SIMS pipeline in squared space: the seed, the
// lower bounds, the shared best-so-far, and the verification scans all
// carry squared distances, so the per-key sqrt of the old kernel and the
// per-candidate sqrt of the old scan are gone entirely.
func (ix *TreeIndex) exactSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	res, err := ix.approxSearch(ctx, q, radius)
	if err != nil {
		return res, err
	}
	var bound shard.BSF
	bound.Init(res.Dist)
	return ix.exactVerify(ctx, q, res, &bound)
}

// exactVerify is the SIMS verification phase: res carries the (squared)
// seed answer, bound the shared best-so-far — the query's own when
// monolithic, the cross-partition bound when scatter-gathered.
func (ix *TreeIndex) exactVerify(ctx context.Context, q series.Series, res Result, bound *shard.BSF) (Result, error) {
	if err := ix.ensureSIMS(); err != nil {
		return res, err
	}
	return simsVerify(ctx, &ix.opt, q, ix.keys, ix.positions, res, bound, ix.rawFile, ix.rawSums, ix.simsOverLeaves)
}

// ExactVerify runs only the verification phase against an externally
// computed seed (the partition layer's global approximate answer) and a
// shared cross-partition bound. The returned Result is in SQUARED space
// and its counters cover this index's verification work only; an index
// that finds no improvement returns the seed unchanged. It observes ctx as
// ExactSearch does.
func (ix *TreeIndex) ExactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	res := Result{Pos: seedPos, Dist: seedSq}
	if ix.count == 0 {
		return res, nil
	}
	return ix.exactVerify(ctx, q, res, bound)
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
			leaf, rest = leafCands(rest, bases[li]+ix.bt.LeafRecordCount(dir[li]))
			if !slices.ContainsFunc(leaf, func(c summary.Cand) bool { return c.LB < local.Dist && !bound.Prunes(c.LB) }) {
				continue
			}
			n, err := ix.bt.ReadLeaf(dir[li], buf)
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

// Insert appends new series to the dataset and inserts them into the
// tree top-down with median splits (the update path of Figure 10a).
// Sorting the batch by key first concentrates the leaf touches — larger
// batches approach bulk-load locality, which is why Coconut wins when
// updates arrive in volume. Insert takes the handle lock exclusively,
// so it serializes against in-flight queries.
//
// Cancellation is checked only at entry (and while queued on the handle
// lock is not interruptible): once raw bytes start landing the batch runs
// to completion, because a half-applied insert would leave the tree and the
// dataset disagreeing. Write-path cancellation is therefore admission
// control, not abort.
func (ix *TreeIndex) Insert(ctx context.Context, batch []series.Series) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	p := ix.opt.S.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	end, err := ix.rawFile.Size()
	if err != nil {
		return err
	}
	if end%sz != 0 {
		return fmt.Errorf("core: raw file size %d not aligned", end)
	}
	pos := end / sz

	recs := make([]InsertRec, 0, len(batch))
	encoded := make([]byte, 0, sz)
	for _, s := range batch {
		if len(s) != p.SeriesLen {
			return fmt.Errorf("core: inserted series has length %d, want %d", len(s), p.SeriesLen)
		}
		encoded = series.AppendEncode(encoded[:0], s)
		if _, err := ix.rawFile.WriteAt(encoded, pos*sz); err != nil {
			return err
		}
		if ix.ownSums && ix.rawSums != nil {
			ix.rawSums.Set(pos, encoded)
		}
		key, err := ix.opt.S.KeyOf(s)
		if err != nil {
			return err
		}
		rec := InsertRec{Key: key, Pos: pos}
		if ix.opt.Materialized {
			rec.Raw = append([]byte(nil), encoded...)
		}
		recs = append(recs, rec)
		pos++
	}
	return ix.insertRecsLocked(recs)
}

// InsertRecords inserts pre-summarized records whose raw bytes were
// already written to the shared dataset file by the partition layer. The
// durability token is always 0: tree inserts become durable at Sync, so
// there is no group commit to wait for.
func (ix *TreeIndex) InsertRecords(recs []InsertRec) (int64, error) {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	return 0, ix.insertRecsLocked(append([]InsertRec(nil), recs...))
}

// insertRecsLocked is the shared tail of the insert paths: sort the batch
// by key to concentrate leaf touches, insert top-down with median splits,
// and mark the lazily rebuilt state stale. recs is sorted in place.
func (ix *TreeIndex) insertRecsLocked(recs []InsertRec) error {
	if len(recs) == 0 {
		return nil
	}
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
	ix.metaDirty = true
	ix.leafIdx = nil
	return nil
}

// ScanAllPositions streams every indexed position in key order (testing and
// verification helper).
func (ix *TreeIndex) ScanAllPositions() ([]int64, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	var out []int64
	err := ix.bt.ScanAll(func(rec []byte) error {
		_, pos, _ := decodeRecord(rec, false)
		out = append(out, pos)
		return nil
	})
	return out, err
}

var _ io.Closer = (*TreeIndex)(nil)
