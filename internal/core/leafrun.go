package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// The leaf run is the one stored form of a TreeIndex: the sorted (key,
// position[, raw series]) record run, flat and unpadded in one checksummed
// file, whose leaves are its checksum blocks (leafBlockSize). Everything that
// touches the file is here: the bulk load, the one loader Open and Scrub both
// run, and the merge an insert batch makes into the next generation of the
// run. Both steps of a query read candidate records, not leaves, from the
// store (see store) — the run itself when materialized — through the scan
// every index uses; leaves are only counted (leafBlocks).

// runName names generation gen of the leaf run of index name.
func runName(name string, gen int64) string {
	if gen == 0 {
		return name + ".leaves"
	}
	return fmt.Sprintf("%s.%d.leaves", name, gen)
}

// leafBlockSize is the checksum-block payload of a leaf run, which is also
// its leaf: a whole number of records, about 4 KiB (the paper's disk page),
// so no record straddles two blocks and a record read verifies little
// beyond its own leaf.
func leafBlockSize(recordSize int) int {
	return max(1, 4096/recordSize) * recordSize
}

// leafBlocks returns the leaves — checksum blocks — that records [lo, hi) of
// a leaf run of recordSize-byte records span: with lo = 0 and hi the count,
// the leaves of the run. The leaf counters (Shape, ApproxWindow.Leaves,
// VerifyLeafRun) all derive from it, never from stored state.
func leafBlocks(lo, hi int64, recordSize int) int64 {
	if lo >= hi {
		return 0
	}
	per := int64(leafBlockSize(recordSize) / recordSize)
	return (hi-1)/per - lo/per + 1
}

// genWriter writes one generation of the run: records in run order,
// through the run's checksum blocks, each added on the way to the summary
// column of the generation — what a bulk load (build) and an insert merge
// (mergeNext) write alike.
type genWriter struct {
	fs   storage.FS
	name string
	f    storage.File
	w    *storage.SequentialWriter
	sims simsArray
	// rec is the leaf record put encodes. A materialized record's raw
	// series is gathered into it by position — from gathered when gather read
	// it ahead, else fetched from src, the raw store, through raw, the
	// caller's pin of its file.
	rec []byte
	raw storage.Views
	src Store
	// gathered holds the verified series of the records at positions, in
	// position order (see gather).
	positions []int64
	gathered  []byte
}

// createGen starts generation gen of the run, with room in its summary
// column for n records; raw is the caller's pin of the raw file
// (storage.PinViews), which put gathers raw series through.
func (ix *TreeIndex) createGen(gen int64, n int, raw storage.Views) (*genWriter, error) {
	fs, name := ix.opt.FS, runName(ix.opt.Name, gen)
	inner, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	f, err := storage.CreateChecksumFile(inner, leafBlockSize(ix.opt.recordSize()))
	if err != nil {
		inner.Close()
		removeFiles(fs, name)
		return nil, err
	}
	// The checksum file frames its blocks itself: the writer's buffer only
	// batches the calls into it.
	return &genWriter{fs: fs, name: name, f: f, w: storage.NewSequentialWriter(f, 0, 64<<10),
		sims: newSimsArray(ix.opt.S, n), rec: make([]byte, ix.opt.recordSize()), raw: raw, src: ix.rawStore()}, nil
}

// put appends rec as enc, its leaf record in the current generation, or
// when enc is nil encoded: the key, the position little-endian and, in a
// materialized run, the raw series at that position.
func (g *genWriter) put(rec summary.Record, enc []byte) error {
	if enc == nil {
		enc = g.rec
		rec.Encode(enc)
		if series := enc[summary.RecordSize:]; len(series) > 0 {
			if i, ok := slices.BinarySearch(g.positions, rec.Pos); ok {
				copy(series, g.gathered[i*len(series):])
			} else {
				raw, err := g.src.Fetch(g.raw, rec.Pos, series)
				if err != nil {
					return err
				}
				copy(series, raw) // a view, unless ReadAt filled series itself
			}
		}
	}
	g.sims.add(rec)
	_, err := g.w.Write(enc)
	return err
}

// gather reads ahead the raw series of recs from the raw store: their
// positions, sorted, cut into maximal runs of adjacent positions, each run
// read with one read and every series verified — the records themselves and
// no byte between them.
func (g *genWriter) gather(recs []summary.Record) error {
	st := &g.src
	g.positions = make([]int64, len(recs))
	for i, rec := range recs {
		g.positions[i] = rec.Pos
	}
	slices.Sort(g.positions)
	g.gathered = make([]byte, len(recs)*st.RecSize)
	for i := 0; i < len(g.positions); {
		first, n := g.positions[i], 1
		for i+n < len(g.positions) && g.positions[i+n] == first+int64(n) {
			n++
		}
		dst := g.gathered[i*st.RecSize : (i+n)*st.RecSize]
		run, err := st.read(g.raw, first, n, dst)
		if err != nil {
			return err
		}
		copy(dst, run) // a view, unless ReadAt filled dst itself
		for k := range n {
			if err := st.verify(first+int64(k), st.series(dst, k)); err != nil {
				return err
			}
		}
		i += n
	}
	return nil
}

// close completes the generation and closes it; err is the writer's own
// failure, and with it, or a failure here, the file is removed.
func (g *genWriter) close(err error) error {
	if err == nil {
		err = g.w.Flush()
	}
	if cerr := g.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		removeFiles(g.fs, g.name)
	}
	return err
}

// openGen opens generation gen of the run. A corrupt structure in this
// manifest-referenced artifact is typed as both the stored-bytes failure and
// the broken manifest promise, matching the LSM run convention.
func (ix *TreeIndex) openGen(gen int64) (storage.File, error) {
	inner, err := ix.opt.FS.Open(runName(ix.opt.Name, gen))
	if err != nil {
		return nil, err
	}
	f, err := storage.OpenChecksumFile(inner)
	if err != nil {
		inner.Close()
		if errors.Is(err, storage.ErrCorruptData) {
			err = fmt.Errorf("%w: %w", manifest.ErrCorruptManifest, err)
		}
		return nil, fmt.Errorf("core: open leaf run: %w", err)
	}
	return f, nil
}

// build is the bulk load: opt.Records, sorted, written straight into
// generation 0 of the leaf run — the one large sequential write that
// replaces the state of the art's scattered allocations — capturing the
// summary column, sized for the stream's Len, on the way; a materialized run
// gathers each record's raw series by position as it is written. The run is
// durable when build returns: the partition layer's manifest commit, which
// names it, makes the index durable.
func (ix *TreeIndex) build() (err error) {
	raw := storage.PinViews(ix.rawFile)
	defer raw.Release(&err)
	g, err := ix.createGen(0, ix.opt.Records.Len(), raw)
	if err != nil {
		return err
	}
	buf := make([]summary.Record, 4096)
	for err == nil {
		var n int
		n, err = ix.opt.Records.Read(buf)
		for i := 0; i < n && err == nil; i++ {
			err = g.put(buf[i], nil)
		}
	}
	if err == io.EOF {
		err = nil
	}
	ix.opt.Records = nil // the handle outlives the build's stream
	if err = g.close(err); err != nil {
		return fmt.Errorf("core: writing the leaf run: %w", err)
	}
	g.sims.clip()
	ix.sims = g.sims
	if ix.file, err = ix.openGen(0); err != nil {
		return err
	}
	// The manifest that will name the run references it; it must be on
	// stable storage first.
	ix.syncedCount = int64(ix.sims.col.Len())
	return ix.file.Sync()
}

// Remove deletes the file a tree build of name writes: the partition
// layer's undo for the finished children of a build that failed as a whole.
func Remove(fs storage.FS, name string) {
	removeFiles(fs, runName(name, 0))
}

// load opens the run generation l names and checks it against l — what
// Open and Scrub both run: the run holds exactly l.Count records (a run
// cut at a checksum-block boundary passes every block check), every block
// verifies, and the keys are in order. The summary column is filled on the
// way.
func (ix *TreeIndex) load(l manifest.Layout) error {
	ix.gen, ix.synced, ix.syncedCount = l.Gen, l.Gen, l.Count
	var err error
	if ix.file, err = ix.openGen(ix.gen); err != nil {
		return err
	}
	recSize := ix.opt.recordSize()
	size, err := ix.file.Size()
	if err != nil {
		return err
	}
	if want := l.Count * int64(recSize); size != want {
		return fmt.Errorf("core: %w: leaf run holds %d bytes, the manifest's %d records take %d: %w",
			manifest.ErrCorruptManifest, size, l.Count, want, storage.ErrCorruptData)
	}
	sr := storage.NewSequentialReader(ix.file, 0, size, 0)
	rec := make([]byte, recSize)
	ix.sims = newSimsArray(ix.opt.S, int(l.Count))
	var prev summary.Key
	for i := int64(0); i < l.Count; i++ {
		if _, err := io.ReadFull(sr, rec); err != nil {
			return fmt.Errorf("core: read leaf run: %w", truncatedLeaves(err))
		}
		next := summary.DecodeRecord(rec)
		if i > 0 && next.Key.Less(prev) {
			return fmt.Errorf("core: %w: leaf records out of key order", manifest.ErrCorruptManifest)
		}
		prev = next.Key
		ix.sims.add(next)
	}
	return nil
}

// VerifyLeafRun checks the leaf run of the tree index name against l, its
// layout in manifest m, with the loader Open runs, and returns the run's
// file name and the number of checksum blocks — leaves — it holds.
func VerifyLeafRun(fs storage.FS, name string, m *manifest.Manifest, l manifest.Layout) (string, int64, error) {
	file := runName(name, l.Gen)
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: m.SeriesLen, Segments: m.Segments, CardBits: m.CardBits})
	if err != nil {
		return file, 0, err
	}
	ix := &TreeIndex{opt: Options{FS: fs, Name: name, S: s, Materialized: m.Materialized}}
	err = ix.load(l)
	if ix.file != nil {
		ix.file.Close()
	}
	return file, leafBlocks(0, l.Count, ix.opt.recordSize()), err
}

// mergeNext merges batch — records sorted under the run's order — and the
// current run into the next generation of the run: one sequential pass, the
// current generation read through its checksum blocks and copied as it is
// against the in-memory batch, whose records are encoded as they are
// written (their raw series, when materialized, read ahead by gather), that
// captures the new summary column on the way. The new generation becomes the
// current one, and the one it replaces is removed unless a Sync made it
// durable — the manifest names it, or is about to; a failed merge removes
// what it wrote of the new one.
func (ix *TreeIndex) mergeNext(batch []summary.Record) (err error) {
	raw := storage.PinViews(ix.rawFile)
	defer raw.Release(&err)
	recSize := ix.opt.recordSize()
	n := ix.sims.col.Len()
	g, err := ix.createGen(ix.gen+1, n+len(batch), raw)
	if err != nil {
		return err
	}
	if ix.opt.Materialized {
		// The batch's series lie in the range of the raw file the batch was
		// just appended to: all of it, or a partition's share of it.
		err = g.gather(batch)
	}
	// Each record of the current generation is written after the batch's
	// records below it.
	in := storage.NewSequentialReader(ix.file, 0, int64(n)*int64(recSize), 0)
	enc := make([]byte, recSize)
	for i := 0; i < n && err == nil; i++ {
		if _, err = io.ReadFull(in, enc); err != nil {
			err = fmt.Errorf("core: read leaf run: %w", truncatedLeaves(err))
			break
		}
		cur := summary.DecodeRecord(enc)
		for ; err == nil && len(batch) > 0 && summary.CompareRecords(batch[0], cur) < 0; batch = batch[1:] {
			err = g.put(batch[0], nil)
		}
		if err == nil {
			err = g.put(cur, enc)
		}
	}
	for ; err == nil && len(batch) > 0; batch = batch[1:] {
		err = g.put(batch[0], nil)
	}
	if err = g.close(err); err != nil {
		return fmt.Errorf("core: merging inserts into the leaf run: %w", err)
	}
	f, err := ix.openGen(ix.gen + 1)
	if err != nil {
		removeFiles(ix.opt.FS, g.name)
		return err
	}
	ix.file.Close()
	if ix.gen != ix.synced {
		removeFiles(ix.opt.FS, runName(ix.opt.Name, ix.gen))
	}
	ix.file, ix.gen, ix.sims = f, ix.gen+1, g.sims
	return nil
}

// truncatedLeaves types a short read of the leaf run: an extent the
// manifest promises but the file does not hold is corruption (truncation),
// not an I/O condition.
func truncatedLeaves(err error) error {
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated leaf run: %w", manifest.ErrCorruptManifest, storage.ErrCorruptData)
	}
	return err
}

// Count returns the number of indexed series.
func (ix *TreeIndex) Count() int64 {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	return int64(ix.sims.col.Len())
}

// Shape returns the number of leaves — the run's checksum blocks — and their
// mean occupancy, which only the last leaf keeps below 1.
func (ix *TreeIndex) Shape() Shape {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	n, recSize := int64(ix.sims.col.Len()), ix.opt.recordSize()
	sh := Shape{Leaves: int(leafBlocks(0, n, recSize))}
	if per := int64(leafBlockSize(recSize) / recSize); sh.Leaves > 0 {
		sh.LeafFill = float64(n) / float64(int64(sh.Leaves)*per)
	}
	return sh
}

// SizeBytes returns the on-device index footprint: the run's record bytes.
func (ix *TreeIndex) SizeBytes() int64 {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	size, err := ix.file.Size()
	if err != nil {
		return 0
	}
	return size
}

// Sync makes the run generation inserts merged into durable, so that
// Layout names it; the partition layer commits the raw log before and the
// manifest after, and a crash anywhere before that commit reopens at the
// last one. The generation it supersedes becomes obsolete (see Layout). A
// freshly built or unmodified handle syncs for free.
func (ix *TreeIndex) Sync() error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	if ix.gen == ix.synced {
		return nil
	}
	if err := ix.file.Sync(); err != nil {
		return err
	}
	ix.obsolete = append(ix.obsolete, runName(ix.opt.Name, ix.synced))
	ix.synced, ix.syncedCount = ix.gen, int64(ix.sims.col.Len())
	return nil
}

// Layout returns the tree's state for the index's manifest — the generation
// the last Sync made durable and its record count — and the generations it
// supersedes, which the partition layer removes once the manifest commits.
func (ix *TreeIndex) Layout() (manifest.Layout, []string) {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	obsolete := ix.obsolete
	ix.obsolete = nil
	return manifest.Layout{Count: ix.syncedCount, Gen: ix.synced}, obsolete
}

// Close releases the file handles, waiting for in-flight queries; what
// was not synced is not persisted. It is idempotent, and shards a cancelled
// query abandoned may still touch the files after Close — those reads fail
// with an I/O error that nobody reads, which is safe by construction.
func (ix *TreeIndex) Close() error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	if ix.closed {
		return nil
	}
	ix.closed = true
	return ix.closeFiles()
}

func (ix *TreeIndex) closeFiles() error {
	var err error
	if ix.file != nil {
		err = ix.file.Close()
	}
	return errors.Join(err, ix.rawFile.Close())
}

// ApproxWindowCands is the index's contribution to an approximate search,
// Algorithm 4 on the sorted summary array: the 32×(radius+1) records
// (window.Half) surrounding the query key's insertion position in the global
// record order — the paper's "all data series in a specific radius from this
// specific point ... usually a disk page" (§4.3) — which the partition layer
// merges with its siblings' and evaluates in lower-bound order with early
// stop (see internal/window). Its candidates are read from the index/dataset
// files after the handle lock is released, under the partition layer's
// handle lock, which keeps inserts out until the last fetch. An empty index
// contributes nothing. Whoever evaluates the merged window (EvalWindow)
// observes its ctx between records. Leaves counts the leaves the window
// spans.
func (ix *TreeIndex) ApproxWindowCands(_ context.Context, q series.Series, radius int) (ApproxWindow, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	if ix.sims.col.Len() == 0 {
		return ApproxWindow{}, nil
	}
	aw, lo, hi, err := windowCands(&ix.opt, &ix.sims, q, radius)
	if err == nil {
		aw.Leaves = leafBlocks(int64(lo), int64(hi), ix.opt.recordSize())
	}
	aw.Store, _ = ix.store()
	return aw, err
}

// store returns where the run's candidates are read from — the current
// generation of the run itself when materialized, else the raw file — and
// the IDs the lower-bound pass gives them there (Filter's ids: nil, the
// ordinals, for the run; the positions for the raw file).
func (ix *TreeIndex) store() (Store, []int64) {
	if ix.opt.Materialized {
		return Store{File: ix.file, Positions: ix.sims.positions, RecSize: ix.opt.recordSize(), Off: summary.RecordSize}, nil
	}
	return ix.rawStore(), ix.sims.positions
}

// rawStore is the raw file, verified against the raw log's sidecar.
func (ix *TreeIndex) rawStore() Store {
	return RawStore(ix.rawFile, ix.rawSums, ix.opt.S.Params().SeriesLen)
}

// ExactVerify is the verification phase of SIMS (Algorithm 5) for the k
// nearest neighbors, against externally computed seed neighbors (the
// partition layer's global approximate top-k) and a shared cross-partition
// bound on the k-th best: lower bounds are computed for all series in
// parallel from the in-memory sorted summaries, and unpruned candidates are
// fetched with a skip-sequential scan sharded across Options.QueryWorkers
// (VerifyRaw) from the index's store — its own leaf run in ordinal order
// when materialized, else the raw file in position order — adjacent
// candidates sharing one read.
// It returns the top-k, under the (distance, position) order, of the seed
// and this index's records — unsorted, in SQUARED space — with this index's
// verification counters; an empty index returns the seed.
// The neighbors are identical for any worker count. Cancellation is checked
// between candidate runs, a cancelled query returns ctx.Err() promptly
// (never a partial answer), and shards stuck in a blocking read are
// abandoned rather than waited for.
func (ix *TreeIndex) ExactVerify(ctx context.Context, q series.Series, k int, seed []Neighbor, bound *shard.BSF) ([]Neighbor, Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	top := shard.NewKNNHeap(k)
	top.OfferAll(seed)
	var res Result
	if ix.sims.col.Len() == 0 {
		return top.Items(), res, nil
	}
	pass, err := ix.opt.S.NewPass(q)
	if err != nil {
		return nil, res, err
	}
	st, ids := ix.store()
	pass.Cands = pass.Table.Filter(pass.Cands, ix.sims.col, ids, bound.Limit(top.Bound()), ix.opt.QueryWorkers)
	res.VisitedRecords, err = VerifyRaw(ctx, st, q, pass.Cands, top, bound, ix.opt.QueryWorkers)
	if ctx.Err() == nil {
		pass.Release()
	}
	return top.Items(), res, err
}
