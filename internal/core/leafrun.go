package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// leafRun is the one stored form of Coconut-Tree and Coconut-Trie: the
// sorted (key, position[, raw series]) record run, flat and unpadded in one
// checksummed file, cut into leaves by a directory of record counts (a
// tree's held by its manifest, a trie's derived from its keys). The two
// index types differ only in where the leaf boundaries fall — packed to the
// fill factor and split at the median (TreeIndex), or prefix-aligned
// (TrieIndex) — and share everything else
// here: the bulk load, the one loader Open and Scrub both run, the in-memory
// summary column, the two steps of a query, and the merge a tree insert
// batch makes into the next generation of the run. The leaf directory is
// never read on the query path but to count the leaves a window spans: both
// steps read candidate records, not leaves, from the store (see store) —
// the run itself when materialized — through the scan every index uses.
//
// A leafRun is a partition child's state (internal/partition): any number of
// query steps may run at once on one handle, and mutations (InsertRecords,
// Sync, Close) serialize against them through a handle-level RWMutex; a
// query's window fetches, which outlive ApproxWindowCands, are serialized
// against inserts by the partition layer's handle lock. Per-query scratch is
// allocated per call.
type leafRun struct {
	opt     Options
	variant manifest.Variant
	rawFile storage.File
	// rawSums is the partition layer's raw log: it verifies raw reads, and
	// Sync commits it before the manifest may reference inserted positions.
	rawSums *storage.RecordSums
	// qmu is the handle lock: queries hold it shared, mutations exclusively.
	qmu sync.RWMutex
	// closed makes Close idempotent: a second Close (or one racing a
	// cancelled query's teardown) is a no-op instead of a double file close.
	closed bool
	// file is generation gen of the run. The manifest names generation
	// committed, the only other one on the device.
	file           storage.File
	gen, committed int64
	// sims is the in-memory sorted summary array: row i is the run's
	// record i.
	sims simsArray
	// starts is the leaf directory: leaf i holds records
	// [starts[i], starts[i+1]) of the run. It shapes the counters (Shape,
	// ApproxWindow.Leaves), the manifest's layout and the trie's check at
	// open, and no read.
	starts []int
}

// runName names generation gen of the leaf run of index name.
func runName(name string, gen int64) string {
	if gen == 0 {
		return name + ".leaves"
	}
	return fmt.Sprintf("%s.%d.leaves", name, gen)
}

// leafBlockSize is the checksum-block payload of a leaf run: a whole number
// of records, about 4 KiB, so no record straddles two blocks and a leaf read
// verifies little beyond the leaf.
func leafBlockSize(recordSize int) int {
	return max(1, 4096/recordSize) * recordSize
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
func (r *leafRun) createGen(gen int64, n int, raw storage.Views) (*genWriter, error) {
	fs, name := r.opt.FS, runName(r.opt.Name, gen)
	inner, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	f, err := storage.CreateChecksumFile(inner, leafBlockSize(r.opt.recordSize()))
	if err != nil {
		inner.Close()
		removeFiles(fs, name)
		return nil, err
	}
	// The checksum file frames its blocks itself: the writer's buffer only
	// batches the calls into it.
	return &genWriter{fs: fs, name: name, f: f, w: storage.NewSequentialWriter(f, 0, 64<<10),
		sims: newSimsArray(r.opt.S, n), rec: make([]byte, r.opt.recordSize()), raw: raw, src: r.rawStore()}, nil
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
func (r *leafRun) openGen(gen int64) (storage.File, error) {
	inner, err := r.opt.FS.Open(runName(r.opt.Name, gen))
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

// startsOf returns the leaf directory of counts.
func startsOf(counts []int) []int {
	starts := make([]int, 1, len(counts)+1)
	for _, c := range counts {
		starts = append(starts, starts[len(starts)-1]+c)
	}
	return starts
}

// buildRun is the bulk load both index types share: opt.Records, sorted,
// written straight into generation 0 of the leaf run — the one large
// sequential write that replaces the state of the art's scattered
// allocations — capturing the summary column, sized for the stream's Len,
// on the way; a materialized run gathers each record's raw series by
// position as it is written. cut lays the leaf
// directory over the column, and the manifest commit makes the index
// durable. A failed build leaves none of its files behind.
func (r *leafRun) buildRun(opt Options, variant manifest.Variant, cut func(summary.Column, *Options) []int) error {
	if err := opt.validate(); err != nil {
		return err
	}
	if opt.Records == nil {
		return errors.New("core: build without a record stream")
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return err
	}
	r.opt, r.variant, r.rawFile, r.rawSums = opt, variant, raw, opt.RawSums
	if err := r.build(cut); err != nil {
		r.closeFiles()
		removeFiles(opt.FS, runName(opt.Name, 0))
		return err
	}
	return nil
}

func (r *leafRun) build(cut func(summary.Column, *Options) []int) (err error) {
	raw := storage.PinViews(r.rawFile)
	defer raw.Release(&err)
	g, err := r.createGen(0, r.opt.Records.Len(), raw)
	if err != nil {
		return err
	}
	buf := make([]summary.Record, 4096)
	for err == nil {
		var n int
		n, err = r.opt.Records.Read(buf)
		for i := 0; i < n && err == nil; i++ {
			err = g.put(buf[i], nil)
		}
	}
	if err == io.EOF {
		err = nil
	}
	r.opt.Records = nil // the handle outlives the build's stream
	if err = g.close(err); err != nil {
		return fmt.Errorf("core: writing the leaf run: %w", err)
	}
	g.sims.clip()
	r.sims = g.sims
	if r.file, err = r.openGen(0); err != nil {
		return err
	}
	// The manifest committed below references the run; it must be on
	// stable storage first.
	if err := r.file.Sync(); err != nil {
		return err
	}
	r.starts = cut(r.sims.col, &r.opt)
	return r.writeManifest()
}

// Remove deletes the files a tree or a trie build of name writes, manifest
// included: the partition layer's undo for the finished children of a build
// that failed as a whole.
func Remove(fs storage.FS, name string) {
	removeFiles(fs, runName(name, 0), manifest.FileName(name))
}

// LoadManifest reads the manifest of a persisted index. It is exposed so
// the public API and the CLI can adopt stored parameters (summarization,
// leaf capacity, dataset file) before constructing open options.
func LoadManifest(fs storage.FS, name string) (*manifest.Manifest, error) {
	m, err := manifest.Load(fs, name)
	if err != nil {
		return nil, fmt.Errorf("core: loading manifest for %q: %w", name, err)
	}
	return m, nil
}

// openRun reopens the tree or trie opt names from its manifest and its
// leaf run. The options must name the same FS, Name, RawName, summarizer
// configuration, materialization and leaf capacity as the build — mismatches
// fail loudly with manifest.ErrConfigMismatch. The raw dataset file is
// opened for query-time fetches but never read here.
func (r *leafRun) openRun(opt Options, variant manifest.Variant) error {
	if err := opt.validate(); err != nil {
		return err
	}
	m, err := LoadManifest(opt.FS, opt.Name)
	if err != nil {
		return err
	}
	if err := m.CheckVariant(variant); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := m.CheckParams(opt.S.Params(), opt.Materialized, opt.RawName); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// The leaf capacity shapes the leaf directory; the stored value is the
	// only one that can interpret it. (The public API and the CLI adopt the
	// stored value for unset fields before reaching here.)
	if opt.LeafCap != m.LeafCap {
		return fmt.Errorf("core: %w: leaf capacity %d, stored index was built with %d",
			manifest.ErrConfigMismatch, opt.LeafCap, m.LeafCap)
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return err
	}
	r.opt, r.variant, r.rawFile, r.rawSums = opt, variant, raw, opt.RawSums
	if err := r.load(m); err != nil {
		r.closeFiles()
		return err
	}
	return nil
}

// load opens the run generation m names and checks it against m — what
// Open and Scrub both run: the run holds exactly m.Count records (a run
// cut at a checksum-block boundary passes every block check), every block
// verifies, and the keys are in order. A tree's leaf directory is the
// manifest's; a trie's is derived from its keys and must have the
// manifest's number of leaves. The summary column is filled on the way.
func (r *leafRun) load(m *manifest.Manifest) error {
	r.gen, r.committed = runGen(m), runGen(m)
	var err error
	if r.file, err = r.openGen(r.gen); err != nil {
		return err
	}
	recSize := r.opt.recordSize()
	size, err := r.file.Size()
	if err != nil {
		return err
	}
	if want := m.Count * int64(recSize); size != want {
		return fmt.Errorf("core: %w: leaf run holds %d bytes, the manifest's %d records take %d: %w",
			manifest.ErrCorruptManifest, size, m.Count, want, storage.ErrCorruptData)
	}
	sr := storage.NewSequentialReader(r.file, 0, size, 0)
	rec := make([]byte, recSize)
	r.sims = newSimsArray(r.opt.S, int(m.Count))
	var prev summary.Key
	for i := int64(0); i < m.Count; i++ {
		if _, err := io.ReadFull(sr, rec); err != nil {
			return fmt.Errorf("core: read leaf run: %w", truncatedLeaves(err))
		}
		next := summary.DecodeRecord(rec)
		if i > 0 && next.Key.Less(prev) {
			return fmt.Errorf("core: %w: leaf records out of key order", manifest.ErrCorruptManifest)
		}
		prev = next.Key
		r.sims.add(next)
	}
	if m.Tree != nil {
		r.starts = startsOf(m.Tree.Counts)
		return nil
	}
	// The structure is deterministic, so a different leaf count means the
	// manifest and the leaf run are from different builds.
	if r.starts = trieStarts(r.sims.col, &r.opt); len(r.starts)-1 != m.Trie.NumLeaves {
		return fmt.Errorf("core: %w: the trie's keys derive %d leaves, its manifest says %d",
			manifest.ErrCorruptManifest, len(r.starts)-1, m.Trie.NumLeaves)
	}
	return nil
}

// runGen returns the run generation m names: a tree's, or a trie's, which
// is always 0.
func runGen(m *manifest.Manifest) int64 {
	if m.Tree != nil {
		return m.Tree.Gen
	}
	return 0
}

// VerifyLeafRun checks the leaf run of the tree or trie index name against
// its manifest m with the loader Open runs, and returns the run's file name
// and the number of checksum blocks it holds.
func VerifyLeafRun(fs storage.FS, name string, m *manifest.Manifest) (string, int64, error) {
	file := runName(name, runGen(m))
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: m.SeriesLen, Segments: m.Segments, CardBits: m.CardBits})
	if err != nil {
		return file, 0, err
	}
	r := &leafRun{opt: Options{FS: fs, Name: name, S: s, Materialized: m.Materialized, LeafCap: m.LeafCap}, variant: m.Variant}
	err = r.load(m)
	if r.file != nil {
		r.file.Close()
	}
	block := int64(leafBlockSize(r.opt.recordSize()))
	return file, (m.Count*int64(r.opt.recordSize()) + block - 1) / block, err
}

// writeManifest commits the manifest naming the current generation of the
// run and its leaf directory — a trie's only by its size, since its keys
// derive it: called once the run is durable.
func (r *leafRun) writeManifest() error {
	p := r.opt.S.Params()
	m := &manifest.Manifest{
		Variant:      r.variant,
		SeriesLen:    p.SeriesLen,
		Segments:     p.Segments,
		CardBits:     p.CardBits,
		Materialized: r.opt.Materialized,
		LeafCap:      r.opt.LeafCap,
		RawName:      r.opt.RawName,
		Count:        int64(r.sims.col.Len()),
		Trie:         &manifest.TrieLayout{NumLeaves: len(r.starts) - 1},
	}
	if r.variant == manifest.VariantTree {
		counts := make([]int, len(r.starts)-1)
		for i := range counts {
			counts[i] = r.starts[i+1] - r.starts[i]
		}
		m.Tree, m.Trie = &manifest.TreeLayout{Gen: r.gen, Counts: counts}, nil
	}
	return manifest.Commit(r.opt.FS, r.opt.Name, m)
}

// mergeNext merges batch — records sorted under the run's order — and the
// current run into the next generation of the run: one sequential pass, the
// current generation read through its checksum blocks and copied as it is
// against the in-memory batch, whose records are encoded as they are
// written (their raw series, when materialized, read ahead by gather), that
// captures the new summary column on the way. The new generation becomes the
// current one, and the one it replaces is removed unless the manifest names
// it; a failed merge removes what it wrote of the new one.
func (r *leafRun) mergeNext(batch []summary.Record) (err error) {
	raw := storage.PinViews(r.rawFile)
	defer raw.Release(&err)
	recSize := r.opt.recordSize()
	n := r.sims.col.Len()
	g, err := r.createGen(r.gen+1, n+len(batch), raw)
	if err != nil {
		return err
	}
	if r.opt.Materialized {
		// The batch's series lie in the range of the raw file the batch was
		// just appended to: all of it, or a partition's share of it.
		err = g.gather(batch)
	}
	// Each record of the current generation is written after the batch's
	// records below it.
	in := storage.NewSequentialReader(r.file, 0, int64(n)*int64(recSize), 0)
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
	f, err := r.openGen(r.gen + 1)
	if err != nil {
		removeFiles(r.opt.FS, g.name)
		return err
	}
	r.file.Close()
	if r.gen != r.committed {
		removeFiles(r.opt.FS, runName(r.opt.Name, r.gen))
	}
	r.file, r.gen, r.sims = f, r.gen+1, g.sims
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
func (r *leafRun) Count() int64 {
	r.qmu.RLock()
	defer r.qmu.RUnlock()
	return int64(r.sims.col.Len())
}

// Shape returns the number of leaves and their mean occupancy (the paper's
// ~97% for a packed tree).
func (r *leafRun) Shape() Shape {
	r.qmu.RLock()
	defer r.qmu.RUnlock()
	sh := Shape{Leaves: len(r.starts) - 1}
	if sh.Leaves > 0 {
		sh.LeafFill = float64(r.sims.col.Len()) / float64(int64(sh.Leaves)*int64(r.opt.LeafCap))
	}
	return sh
}

// SizeBytes returns the on-device index footprint: the run's record bytes.
func (r *leafRun) SizeBytes() int64 {
	r.qmu.RLock()
	defer r.qmu.RUnlock()
	size, err := r.file.Size()
	if err != nil {
		return 0
	}
	return size
}

// Sync makes what inserts changed durable: the raw log they appended to,
// then the run generation they merged into, then the manifest that names it
// — the one commit point, so a crash anywhere before it reopens at the last
// Sync. The superseded generation is removed after the commit. A freshly
// built or unmodified handle syncs for free.
func (r *leafRun) Sync() error {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return r.syncLocked()
}

func (r *leafRun) syncLocked() error {
	if r.gen == r.committed {
		return nil
	}
	if err := r.rawSums.Commit(context.Background(), r.rawSums.Records()); err != nil {
		return err
	}
	if err := r.file.Sync(); err != nil {
		return err
	}
	if err := r.writeManifest(); err != nil {
		return err
	}
	old := r.committed
	r.committed = r.gen
	return r.opt.FS.Remove(runName(r.opt.Name, old))
}

// Close persists pending inserts (see Sync) and releases the file handles,
// waiting for in-flight queries. It is idempotent, and shards a cancelled
// query abandoned may still touch the files after Close — those reads fail
// with an I/O error that nobody reads, which is safe by construction.
func (r *leafRun) Close() error {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	return errors.Join(r.syncLocked(), r.closeFiles())
}

func (r *leafRun) closeFiles() error {
	var err error
	if r.file != nil {
		err = r.file.Close()
	}
	return errors.Join(err, r.rawFile.Close())
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
func (r *leafRun) ApproxWindowCands(_ context.Context, q series.Series, radius int) (ApproxWindow, error) {
	r.qmu.RLock()
	defer r.qmu.RUnlock()
	if r.sims.col.Len() == 0 {
		return ApproxWindow{}, nil
	}
	aw, lo, hi, err := windowCands(&r.opt, &r.sims, q, radius)
	if err == nil && lo < hi {
		aw.Leaves = int64(leafOfOrd(r.starts, hi-1) - leafOfOrd(r.starts, lo) + 1)
	}
	aw.Store, _ = r.store()
	return aw, err
}

// store returns where the run's candidates are read from — the current
// generation of the run itself when materialized, else the raw file — and
// the IDs the lower-bound pass gives them there (Filter's ids: nil, the
// ordinals, for the run; the positions for the raw file).
func (r *leafRun) store() (Store, []int64) {
	if r.opt.Materialized {
		return Store{File: r.file, Positions: r.sims.positions, RecSize: r.opt.recordSize(), Off: summary.RecordSize}, nil
	}
	return r.rawStore(), r.sims.positions
}

// rawStore is the raw file, verified against the raw log's sidecar.
func (r *leafRun) rawStore() Store {
	return RawStore(r.rawFile, r.rawSums, r.opt.S.Params().SeriesLen)
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
func (r *leafRun) ExactVerify(ctx context.Context, q series.Series, k int, seed []Neighbor, bound *shard.BSF) ([]Neighbor, Result, error) {
	r.qmu.RLock()
	defer r.qmu.RUnlock()
	top := shard.NewKNNHeap(k)
	top.OfferAll(seed)
	var res Result
	if r.sims.col.Len() == 0 {
		return top.Items(), res, nil
	}
	pass, err := r.opt.S.NewPass(q)
	if err != nil {
		return nil, res, err
	}
	st, ids := r.store()
	pass.Cands = pass.Table.Filter(pass.Cands, r.sims.col, ids, bound.Limit(top.Bound()), r.opt.QueryWorkers)
	res.VisitedRecords, err = VerifyRaw(ctx, st, q, pass.Cands, top, bound, r.opt.QueryWorkers)
	if ctx.Err() == nil {
		pass.Release()
	}
	return top.Items(), res, err
}
