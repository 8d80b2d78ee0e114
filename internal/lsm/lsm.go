// Package lsm implements Coconut-LSM, the extension the paper names as
// future work (§6): "we would also like to explore how ideas from LSM
// trees could be used to enable the efficient updates."
//
// Because invSAX keys are sortable, a Coconut index is just a sorted file —
// which makes the LSM recipe apply directly:
//
//   - new series accumulate in an in-memory memtable of sorted pieces (each
//     arriving batch is sorted, and pieces of similar length merge), and the
//     raw dataset
//     file is the log: a key is a pure function of a record's bytes, so an
//     append is acknowledged once its raw bytes and their CRC sidecar
//     entries are fsynced (storage.RecordSums), and Open re-summarizes the
//     records past the manifest's flushed position into the memtable;
//   - a full memtable's pieces are merged as it is flushed, an immutable
//     sorted RUN
//     (one sequential write — no read-modify-write of existing leaves);
//   - runs are organized in tiers; when a tier collects four runs they
//     are merge-sorted into one run of the next tier (sequential I/O only):
//     a flush and a compaction are summary.Merge, the merge of the bulk
//     load's sort, into one run writer (runblock.Write);
//   - queries consult the memtable plus every run: a run is a
//     block-compressed sorted file (internal/runblock) read through a
//     shared byte-budgeted block cache, so approximate search is a binary
//     search per run and per memtable piece and a merge of the sorted windows
//     around them, and exact search is SIMS over the union of the runs'
//     key blocks.
//
// The index is non-materialized: records are (invSAX key, position) and
// raw series live in the dataset file.
package lsm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// fanout is the tiering factor: a tier holding fanout runs compacts into one
// run of the next.
const fanout = 4

// Options configures a Coconut-LSM index.
type Options struct {
	// FS hosts the runs and the raw dataset file.
	FS storage.FS
	// Name prefixes run files.
	Name string
	// S fixes the summarization scheme.
	S *summary.Summarizer
	// RawName is the dataset file (grows on Append).
	RawName string
	// Records is the sorted record stream the initial bulk load writes as
	// its run: the partition layer's one sort of the summarization pass, or
	// the share of it below the child's key-range boundary. Open ignores it.
	Records summary.RecordReader
	// MemBudgetBytes bounds the memtable (and the bulk load's sort, which
	// the partition layer runs; DefaultMemBudget when unset): it holds
	// MemBudgetBytes/24 records. Merging two of its sorted pieces briefly
	// copies the shorter one, at most half as much again.
	MemBudgetBytes int64
	// Workers is the number of concurrent workers used by the bulk load's
	// sort and its summarization pass, which the partition layer runs (0
	// means runtime.GOMAXPROCS(0)). Runs and query answers are identical for
	// any value.
	Workers int
	// QueryWorkers is the fan-out of a single query: independent runs are
	// probed concurrently during approximate search, and the exact-search
	// raw-file verification scan is sharded by position range (0 means
	// runtime.GOMAXPROCS(0), clamped to the work available). Answers are
	// identical for any value.
	QueryWorkers int
	// RawSums is the raw log, owned by the partition layer: it appends
	// every insert and commits it, and a flush commits it again through the
	// positions its run covers. Every raw read is
	// verified against it, and every run read against the block CRCs of the
	// run file (internal/runblock), so bit rot surfaces as
	// storage.ErrCorruptData instead of a wrong answer.
	RawSums *storage.RecordSums
	// Owns restricts what this index derives from the raw file — the
	// un-flushed tail Open recovers — to the records it owns. A partition
	// child shares the raw dataset with its siblings; without the filter it
	// would re-index every sibling's records too. Nil means the index owns
	// every raw record.
	Owns func(summary.Key) bool
	// Cache is the shared decoded-block cache run files are read through:
	// runs are block-compressed on disk (internal/runblock) and never
	// materialize as whole-run key arrays, so resident key memory is bounded
	// by the cache budget regardless of index size. The partition layer
	// passes one cache to every child so the budget bounds the whole index;
	// nil creates a private cache of blockcache.DefaultBytes.
	Cache *blockcache.Cache
}

// DefaultMemBudget is MemBudgetBytes when unset.
const DefaultMemBudget = 16 << 20

func (o *Options) validate() error {
	switch {
	case o.FS == nil:
		return errors.New("lsm: nil FS")
	case o.Name == "":
		return errors.New("lsm: empty name")
	case o.S == nil:
		return errors.New("lsm: nil summarizer")
	case o.RawName == "":
		return errors.New("lsm: empty raw name")
	case o.RawSums == nil:
		return errors.New("lsm: nil raw log")
	}
	if o.MemBudgetBytes <= 0 {
		o.MemBudgetBytes = DefaultMemBudget
	}
	if o.Cache == nil {
		o.Cache = blockcache.New(0)
	}
	return nil
}

// run is one immutable sorted run: a block-compressed file whose key data
// is decoded block by block through the shared cache, so resident memory
// stays bounded by the cache budget no matter how large the run is.
type run struct {
	name  string
	tier  int
	count int64
	// rb is a directory-only reader over the run file, decoding blocks on
	// demand through the shared cache.
	rb *runblock.Reader
	// seq is the run's age: flush runs take consecutive ordinals and a
	// compacted run inherits the seq of its oldest input, so ix.runs stays
	// sorted oldest-first, and a run's tier and seq name its file.
	seq int64
}

// Index is a Coconut-LSM index, a partition child (internal/partition): it
// answers through the two steps of a query and takes records whose raw
// bytes the partition layer appended to the raw log. A handle is safe for
// concurrent use: query steps hold mu shared, while InsertRecords/Flush hold
// it exclusively, so readers always observe a consistent (runs, memtable)
// pair — this is the LSM counterpart of the tree's SIMS-refresh lock.
//
// Compactions run inline, under mu, right after the flush that made a
// group ready, so no other goroutine ever observes a half-landed merge. The
// index commits no manifest: the partition layer commits its Layout.
type Index struct {
	opt     Options
	rawFile storage.File
	// rawSums is the partition layer's raw log: it verifies raw reads, and a
	// flush commits it before its run may reference new positions.
	rawSums *storage.RecordSums
	mu      sync.RWMutex
	// closed makes Close idempotent: a second Close (even concurrent with
	// the first) returns nil instead of double-closing the files.
	closed bool
	// runs is the whole compaction schedule: the run set, oldest first.
	runs []*run
	// mem is the memtable: sorted pieces laid end to end, each in record
	// order (summary.RecordLess), the i-th ending at memEnds[i]. Each piece
	// is more than twice as long as the next, so there are at most
	// log2(len(mem))+1 of them.
	mem     []summary.Record
	memEnds []int
	count   int64
	// nextSeq is the seq, and so the file name, of the next flush run.
	nextSeq int64
	// flushed is the layout's raw-position cursor: every record below it
	// that this index owns is in a run.
	flushed int64
	// obsolete are the compaction inputs the run list no longer holds: the
	// partition layer removes them once a manifest no longer naming them
	// commits (see Layout).
	obsolete []string
}

// Build bulk-loads the initial run from opt.Records, the sorted stream of
// the Coconut pipeline, and returns the index, its run durable. A failed
// Build removes the run it wrote.
func Build(opt Options) (*Index, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Records == nil {
		return nil, errors.New("lsm: build without a record stream")
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := newIndex(opt, raw)
	if err := ix.build(); err != nil {
		ix.abandon()
		_ = opt.FS.Remove(runFileName(opt.Name, 0))
		return nil, err
	}
	return ix, nil
}

func newIndex(opt Options, raw storage.File) *Index {
	return &Index{opt: opt, rawFile: raw, rawSums: opt.RawSums}
}

// abandon releases what a Build or Open that failed got as far as holding.
func (ix *Index) abandon() {
	_ = ix.closeRunsLocked()
	ix.rawFile.Close()
}

// Remove deletes the file of the Coconut-LSM name that Build writes, the
// bulk run: the partition layer's undo for the finished children of a build
// that failed as a whole. Best effort, like core.Remove: the build's own
// error is what is reported.
func Remove(fs storage.FS, name string) {
	if n := runFileName(name, 0); fs.Exists(n) {
		_ = fs.Remove(n)
	}
}

func (ix *Index) build() error {
	// Write the sorted stream as run 0, which sits at a tier no compaction
	// reaches; an empty stream writes no run.
	in := ix.opt.Records
	ix.opt.Records = nil // the handle outlives the build's stream
	r, err := ix.writeRun(runFileName(ix.opt.Name, ix.nextSeq), manifest.BulkTier, ix.nextSeq, -1, in)
	if err != nil {
		return err
	}
	if r != nil {
		ix.runs = append(ix.runs, r)
		ix.count = r.count
	}
	ix.nextSeq++
	// The bulk run holds every record of the dataset this index owns.
	ix.flushed = ix.rawSums.Records()
	return nil
}

// runFileName names the flushed (or bulk-loaded) run of seq seq.
func runFileName(name string, seq int64) string { return fmt.Sprintf("%s.run.%06d", name, seq) }

// memCapacity returns the memtable capacity in records.
func (ix *Index) memCapacity() int {
	c := int(ix.opt.MemBudgetBytes / summary.RecordSize)
	if c < 16 {
		c = 16
	}
	return c
}

// InsertRecords adds records routed to this index by the partition layer,
// whose raw bytes it already appended to the raw log, to the memtable; a
// full memtable flushes to a fresh tier-0 run, and the compactions that
// flush made ready run inline. The partition layer commits the log once for
// the whole batch, and serializes whole batches — append and insert — so no
// flush's cursor passes records appended but not inserted yet. A failed
// compaction merge is not an InsertRecords error (see flushOnWriteLocked).
func (ix *Index) InsertRecords(recs []summary.Record) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.insertLocked(recs)
}

// insertLocked adds records to the memtable, flushing it whenever it fills:
// the batch is cut where the memtable fills, and each cut is a new piece.
func (ix *Index) insertLocked(recs []summary.Record) error {
	for len(recs) > 0 {
		n := min(len(recs), max(ix.memCapacity()-len(ix.mem), 1))
		start := len(ix.mem)
		ix.mem = append(ix.mem, recs[:n]...)
		recs = recs[n:]
		ix.addMemPieceLocked(start)
		ix.count += int64(n)
		if len(ix.mem) >= ix.memCapacity() {
			if err := ix.flushOnWriteLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// addMemPieceLocked sorts the memtable's records from start on, which
// arrived together, into its newest piece, then merges the last two pieces
// while the older is at most twice as long as the newer. Like a binary
// counter, a record takes part in O(log len(mem)) merges, and the memtable
// is never sorted again.
func (ix *Index) addMemPieceLocked(start int) {
	piece := ix.mem[start:]
	if len(piece) == 0 {
		return
	}
	slices.SortFunc(piece, summary.CompareRecords)
	ix.memEnds = append(ix.memEnds, len(ix.mem))
	for n := len(ix.memEnds); n >= 2; n-- {
		lo, mid, hi := 0, ix.memEnds[n-2], ix.memEnds[n-1]
		if n >= 3 {
			lo = ix.memEnds[n-3]
		}
		if mid-lo > 2*(hi-mid) {
			break
		}
		mergePieces(ix.mem, lo, mid, hi)
		ix.memEnds[n-2] = hi
		ix.memEnds = ix.memEnds[:n-1]
	}
}

// mergePieces merges the adjacent sorted pieces mem[lo:mid] and mem[mid:hi]
// in place, through a copy of the shorter one: from the back when that is
// the second, from the front when it is the first, so no record is
// overwritten before it is read.
func mergePieces(mem []summary.Record, lo, mid, hi int) {
	if hi-mid <= mid-lo {
		b := slices.Clone(mem[mid:hi])
		i, j := mid-1, len(b)-1
		for k := hi - 1; j >= 0; k-- {
			if i >= lo && summary.CompareRecords(b[j], mem[i]) < 0 {
				mem[k] = mem[i]
				i--
			} else {
				mem[k] = b[j]
				j--
			}
		}
		return
	}
	a := slices.Clone(mem[lo:mid])
	i, j := 0, mid
	for k := lo; i < len(a); k++ {
		if j < hi && summary.CompareRecords(mem[j], a[i]) < 0 {
			mem[k] = mem[j]
			j++
		} else {
			mem[k] = a[i]
			i++
		}
	}
}

// memPieces returns the memtable's sorted pieces, oldest first.
func (ix *Index) memPieces() [][]summary.Record {
	ps := make([][]summary.Record, len(ix.memEnds))
	lo := 0
	for i, hi := range ix.memEnds {
		ps[i], lo = ix.mem[lo:hi], hi
	}
	return ps
}

// Flush writes the memtable as a new tier-0 run, its pieces merged on the
// way, then runs every compaction that is ready before it returns —
// including any whose merge failed on an earlier write, which is retried
// here and whose error Flush returns.
//
// The memtable's pieces are kept in the refined record order
// (summary.RecordLess), the order of the bulk load's sort too, and a flush
// merges them, as a compaction merges its runs, with the sort's own merge
// (summary.Merge), so every run on disk — bulk, flushed or compacted — is
// totally ordered under one order. Compacted runs are then
// exactly the totally sorted multiset of their inputs, a state that is
// trivially independent of Workers and easy to audit.
func (ix *Index) Flush() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.flushLocked(); err != nil {
		return err
	}
	return ix.compactPendingLocked()
}

// flushOnWriteLocked is the flush an InsertRecords triggers when
// the memtable fills. A failed compaction merge is not the writer's error:
// the batch is durable either way, the group's inputs stay (the merge
// removes its partial output), and the next flush retries the merge —
// Flush and Sync return it. Only the flush's own failure is returned.
func (ix *Index) flushOnWriteLocked() error {
	if err := ix.flushLocked(); err != nil {
		return err
	}
	_ = ix.compactPendingLocked()
	return nil
}

// flushLocked writes the memtable as a tier-0 run; it compacts nothing.
func (ix *Index) flushLocked() error {
	if len(ix.mem) == 0 {
		return nil
	}
	// Every record below the run's last position that this index owns is in
	// the memtable or a run. The raw log commits through that position before
	// a run references it: no run holds a position past the durable end of
	// the raw file.
	flushed := ix.flushed
	for _, e := range ix.mem {
		flushed = max(flushed, e.Pos+1)
	}
	if err := ix.rawSums.Commit(context.Background(), flushed); err != nil {
		return err
	}
	pieces := ix.memPieces()
	srcs := make([]summary.RecordReader, len(pieces))
	for i, p := range pieces {
		piece := summary.SliceReader(p)
		srcs[i] = &piece
	}
	merged, _ := summary.Merge(srcs...) // slices cannot fail
	r, err := ix.writeRun(runFileName(ix.opt.Name, ix.nextSeq), 0, ix.nextSeq, int64(len(ix.mem)), merged)
	if err != nil {
		return err
	}
	ix.mem, ix.memEnds = ix.mem[:0], ix.memEnds[:0]
	ix.runs = append(ix.runs, r)
	ix.nextSeq++
	ix.flushed = flushed
	return nil
}

// writeRun writes the records of in — n of them, or when n is negative (a
// bulk load's stream) as many as it holds — as run file name, fsyncs it (the
// manifest that will name it requires the bytes on stable storage first),
// and opens it as run (tier, seq): a footer and directory
// read, no key materialized, its record count cross-checked against n (the
// full Verify is reserved for reopen, where the bytes' provenance is
// unknown). An empty stream writes no file and no run. A failed write or
// open removes the file.
func (ix *Index) writeRun(name string, tier int, seq, n int64, in summary.RecordReader) (*run, error) {
	wrote, err := runblock.Write(ix.opt.FS, name, in, 0, true)
	if err != nil || wrote == 0 {
		return nil, err
	}
	if n < 0 {
		n = wrote
	}
	f, err := ix.opt.FS.Open(name)
	var rb *runblock.Reader
	if err == nil {
		if rb, err = runblock.OpenReader(f, ix.opt.Cache); err != nil {
			f.Close()
		}
	}
	if err == nil && rb.Count() != n {
		rb.Close()
		err = fmt.Errorf("lsm: run %s holds %d records, wrote %d", name, rb.Count(), n)
	}
	if err != nil {
		_ = ix.opt.FS.Remove(name)
		return nil, err
	}
	return &run{name: name, tier: tier, count: n, seq: seq, rb: rb}, nil
}

// findGroupLocked returns the next ready compaction group, oldest first: the
// fanout oldest runs of the lowest tier that holds fanout runs, or nil.
// Merges run inline, so the groups of a tier land strictly in order and a
// tier holds no run of an earlier group: the groups — which runs, in which
// order, merge into which output name — are a function of the flush
// sequence alone, and the on-disk state after a Flush is the same whether a
// group merged right after the flush that completed it or several flushes
// later, after a failed merge.
func (ix *Index) findGroupLocked() []*run {
	byTier := map[int][]*run{}
	for _, r := range ix.runs {
		if r.tier != manifest.BulkTier && len(byTier[r.tier]) < fanout {
			byTier[r.tier] = append(byTier[r.tier], r)
		}
	}
	var group []*run
	for tier, rs := range byTier {
		if len(rs) == fanout && (group == nil || tier < group[0].tier) {
			group = rs
		}
	}
	return group
}

// runCompaction merges a ready group into one run of the next tier, named
// by the group's tier and oldest seq: strictly sequential reads, one block
// of each input at a time (runblock.Records: uncached, every block
// CRC-checked as it is read), and one sequential write (writeRun), reopened
// as a block directory — no key array ever materializes. A failed merge
// leaves only its inputs.
func (ix *Index) runCompaction(group []*run) (*run, error) {
	oldest := group[0]
	srcs := make([]summary.RecordReader, len(group))
	var want int64
	for i, r := range group {
		rr, err := runblock.OpenRecords(ix.opt.FS, r.name)
		if err != nil {
			return nil, err
		}
		defer rr.Close()
		srcs[i] = rr
		want += r.count
	}
	merged, err := summary.Merge(srcs...)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s.cmp.t%d.%06d", ix.opt.Name, oldest.tier, oldest.seq)
	return ix.writeRun(name, oldest.tier+1, oldest.seq, want, merged)
}

// closeRunsLocked closes every run's reader (dropping its cached blocks),
// keeping the first error — the teardown half of the open/swap lifecycle.
func (ix *Index) closeRunsLocked() error {
	var first error
	for _, r := range ix.runs {
		if err := r.rb.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// swapLocked installs a finished compaction: the merged run replaces its
// inputs at the position of the oldest one (ix.runs stays sorted by seq —
// a group always covers a contiguous age range), and the inputs become
// obsolete: their files stay until a manifest that no longer names them
// commits, so at every instant the on-disk manifest references only files
// that exist, and a crash between that commit and their removal merely
// leaks orphan inputs the next Open ignores.
func (ix *Index) swapLocked(group []*run, newRun *run) {
	dropped := make(map[*run]bool, len(group))
	for _, r := range group {
		dropped[r] = true
	}
	keep := ix.runs[:0]
	inserted := false
	for _, r := range ix.runs {
		if dropped[r] {
			if !inserted {
				keep = append(keep, newRun)
				inserted = true
			}
			continue
		}
		keep = append(keep, r)
	}
	ix.runs = keep
	for _, r := range group {
		_ = r.rb.Close()
		ix.obsolete = append(ix.obsolete, r.name)
	}
}

// compactPendingLocked merges ready groups, lowest tier first, until none
// is ready. A failed merge returns its error with the group's inputs in
// place, so the next call retries the same group.
func (ix *Index) compactPendingLocked() error {
	for {
		group := ix.findGroupLocked()
		if group == nil {
			return nil
		}
		newRun, err := ix.runCompaction(group)
		if err != nil {
			return err
		}
		ix.swapLocked(group, newRun)
	}
}

// Sync is Flush: the memtable goes to a run and every ready compaction
// lands, so after a nil Sync the on-disk state is the deterministic
// function of the flush sequence (byte-identical for any Workers setting).
func (ix *Index) Sync() error { return ix.Flush() }

// Count returns the number of indexed series.
func (ix *Index) Count() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.count
}

// Shape returns the number of on-disk runs.
func (ix *Index) Shape() core.Shape {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return core.Shape{Runs: len(ix.runs)}
}

// CacheStats returns the shared block cache's counters.
func (ix *Index) CacheStats() blockcache.Stats { return ix.opt.Cache.Stats() }

// SizeBytes returns the total size of all run files.
func (ix *Index) SizeBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var total int64
	for _, r := range ix.runs {
		if f, err := ix.opt.FS.Open(r.name); err == nil {
			if s, err := f.Size(); err == nil {
				total += s
			}
			f.Close()
		}
	}
	return total
}

// Close releases the run readers and the raw file handle, waiting for
// in-flight queries; the memtable is not flushed (the partition layer syncs
// first, and otherwise Open recovers it from the raw log).
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return nil
	}
	ix.closed = true
	return errors.Join(ix.closeRunsLocked(), ix.rawFile.Close())
}

// Layout returns the index's state for the manifest — the run list, the
// next seq and the flushed cursor — and the compaction inputs it
// supersedes, which the partition layer removes once the manifest commits.
func (ix *Index) Layout() (manifest.Layout, []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	l := manifest.Layout{NextSeq: ix.nextSeq, Flushed: ix.flushed, Runs: make([]manifest.RunInfo, len(ix.runs))}
	for i, r := range ix.runs {
		l.Runs[i] = manifest.RunInfo{Name: r.name, Tier: r.tier, Seq: r.seq, Count: r.count,
			MinKey: r.rb.MinKey(), MaxKey: r.rb.MaxKey()}
		l.Count += r.count
	}
	obsolete := ix.obsolete
	ix.obsolete = nil
	return l, obsolete
}

// windowCandsLocked collects this index's window contribution at radius.
// Every run and every memtable piece is sorted, so a binary search in each
// finds where the query key sorts and the half-windows around it are one
// source each; window.Merge picks this index's window from them — per-source
// trimming never changes it, since a record in the merged trailing half is
// necessarily in its own source's — and only its records get a lower bound,
// from q's table tbl.
func (ix *Index) windowCandsLocked(q series.Series, radius int, tbl *summary.MinDistTable) (window.Source, error) {
	key, err := ix.opt.S.KeyOf(q)
	if err != nil {
		return window.Source{}, err
	}
	half := window.Half(radius, int(ix.count))
	// One array holds every source's records: each run and each memtable
	// piece contribute at most half a window per side, and all of them at
	// most every record.
	all := make([]window.Cand, 0, min(2*half*(len(ix.runs)+len(ix.memEnds)), int(ix.count)))
	srcs := make([]window.Source, 0, len(ix.runs)+len(ix.memEnds))
	for _, r := range ix.runs {
		idx, err := r.rb.Search(key)
		if err != nil {
			return window.Source{}, err
		}
		lo, start := max(idx-int64(half), 0), len(all)
		err = r.rb.Range(lo, idx+int64(half), func(k summary.Key, pos int64) error {
			all = append(all, window.Cand{Key: k, Pos: pos})
			return nil
		})
		if err != nil {
			return window.Source{}, err
		}
		srcs = append(srcs, window.Source{Cands: all[start:], Split: int(idx - lo)})
	}
	lo := 0
	for _, hi := range ix.memEnds {
		p := ix.mem[lo:hi]
		ins := sort.Search(len(p), func(i int) bool { return !p[i].Key.Less(key) })
		from, start := max(ins-half, 0), len(all)
		for _, e := range p[from:min(ins+half, len(p))] {
			all = append(all, window.Cand{Key: e.Key, Pos: e.Pos})
		}
		srcs = append(srcs, window.Source{Cands: all[start:], Split: ins - from})
		lo = hi
	}
	w := window.Merge(half, srcs...)
	for i := range w.Cands {
		w.Cands[i].LB = tbl.Key(w.Cands[i].Key)
	}
	return w, nil
}

// ApproxWindowCands is this index's contribution to an approximate search:
// the 32×(radius+1) records (window.Half) around where the query's key
// sorts, merged from the half-windows of every run and memtable piece, to be
// merged with the other partitions' before one global evaluation
// best-lower-bound-first with early abandoning (see internal/window). The
// merged window is a pure function of the record multiset and the radius —
// the rule a tree follows too — so the answer is identical for any
// run layout, before or after flushes and compactions, across partition
// counts, and to a tree's over the same records. An empty index contributes
// nothing (no error — the cross-partition window may still be non-empty).
// An LSM has no leaves, so Leaves stays 0; the candidates are read from the
// raw file by whoever evaluates the merged window (core.EvalWindow), which
// observes its ctx between records.
func (ix *Index) ApproxWindowCands(_ context.Context, q series.Series, radius int) (core.ApproxWindow, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var aw core.ApproxWindow
	if ix.count == 0 {
		return aw, nil
	}
	pass, err := ix.opt.S.NewPass(q)
	if err != nil {
		return aw, err
	}
	defer pass.Release() // the window's bounds are all taken before it returns
	if aw.Source, err = ix.windowCandsLocked(q, radius, &pass.Table); err != nil {
		return aw, err
	}
	aw.Store = ix.rawStore()
	return aw, nil
}

// rawStore is the store every candidate of the index is read from: the raw
// file, verified against the raw log's sidecar.
func (ix *Index) rawStore() core.Store {
	return core.RawStore(ix.rawFile, ix.rawSums, ix.opt.S.Params().SeriesLen)
}

// ExactVerify is SIMS for the k nearest neighbors over the union of all
// runs' key blocks and the memtable, against the seed neighbors (SQUARED):
// squared lower bounds for every record (one per-query MinDistTable shared
// by every run and the memtable, evaluated per run across QueryWorkers; a
// run is swept block by block without evicting what the cache holds, and a
// block whose key range the table bounds over the seed's k-th best is never
// read, see runblock.Reader.Scan and MinDistTable.KeyRange), then a
// position-ordered skip-sequential scan of the raw file (core.VerifyRaw:
// file-adjacent candidates share one read), sharded by position range,
// pruning with the shared cross-partition bound. It returns the top-k of the
// seed and this index's records, unsorted, with verify-phase counters only;
// an empty index returns the seed. Safe for concurrent use; the neighbors
// are identical for any worker count. Every phase observes ctx and returns
// ctx.Err() without a partial answer.
func (ix *Index) ExactVerify(ctx context.Context, q series.Series, k int, seed []core.Neighbor, bound *shard.BSF) ([]core.Neighbor, core.Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	top := shard.NewKNNHeap(k)
	top.OfferAll(seed)
	var res core.Result
	if ix.count == 0 {
		return top.Items(), res, nil
	}
	pass, err := ix.opt.S.NewPass(q)
	if err != nil {
		return nil, res, err
	}
	// One lookup table serves the whole step: it is read-only after the
	// build, so every run shard and the memtable pass read it concurrently,
	// and it goes back to the pool at the end unless ctx ended the step.
	tbl, limit := &pass.Table, bound.Limit(top.Bound())
	skip := func(lo, hi *summary.Key) bool { return tbl.KeyRange(lo, hi) >= limit }
	// Lower-bound the runs block by block — the working set is one decoded
	// block, never the run. Each run is independent, so the pass fans out
	// over the run list; every shard keeps its survivors in run order in a
	// list of its own (the first in the pooled one) and the lists concatenate
	// in shard order, so the candidates are the same for any worker count.
	runWorkers := shard.Resolve(ix.opt.QueryWorkers, len(ix.runs))
	// Split the worker budget between the run fan-out and the per-run
	// lower-bound pass, so a single-run index (fresh bulk load, or fully
	// compacted) still shards its dominant scan across all QueryWorkers.
	innerWorkers := shard.PerGroup(ix.opt.QueryWorkers, runWorkers)
	perShard := make([][]summary.Cand, runWorkers)
	perShard[0] = pass.Cands
	err = shard.Scan(ctx, runWorkers, len(ix.runs), func(si int, rr shard.Range, cancelled func() bool) error {
		for _, r := range ix.runs[rr.Lo:rr.Hi] {
			if cancelled() {
				return nil
			}
			err := r.rb.Scan(skip, func(blk *runblock.Block) error {
				perShard[si] = tbl.FilterKeys(perShard[si], blk.Keys, blk.Pos, limit, innerWorkers)
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		// On a ctx error abandoned shards may still be filtering into
		// perShard; it is not read on this path and the pass is not reused.
		return nil, res, err
	}
	cands := perShard[0]
	for _, cs := range perShard[1:] {
		cands = append(cands, cs...)
	}
	for _, e := range ix.mem {
		if lb := tbl.Key(e.Key); lb < limit {
			cands = append(cands, summary.Cand{ID: e.Pos, LB: lb})
		}
	}
	pass.Cands = cands
	res.VisitedRecords, err = core.VerifyRaw(ctx, ix.rawStore(), q, cands, top, bound, ix.opt.QueryWorkers)
	if ctx.Err() == nil {
		pass.Release()
	}
	return top.Items(), res, err
}
