// Package lsm implements Coconut-LSM, the extension the paper names as
// future work (§6): "we would also like to explore how ideas from LSM
// trees could be used to enable the efficient updates."
//
// Because invSAX keys are sortable, a Coconut index is just a sorted file —
// which makes the LSM recipe apply directly:
//
//   - new series accumulate in an in-memory memtable;
//   - a full memtable is sorted and flushed as an immutable sorted RUN
//     (one sequential write — no read-modify-write of existing leaves);
//   - runs are organized in tiers; when a tier collects Fanout runs they
//     are merge-sorted into the next tier (sequential I/O only);
//   - queries consult the memtable plus every run: a run is a
//     block-compressed sorted file (internal/runblock) read through a
//     shared byte-budgeted block cache, so approximate search is a binary
//     search per run and exact search is SIMS over the union of the runs'
//     key blocks.
//
// The index is non-materialized: records are (invSAX key, position) and
// raw series live in the dataset file.
package lsm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/extsort"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// recordSize is the fixed run record size: key + position.
const recordSize = summary.KeySize + 8

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
	// RecordsName optionally names a pre-summarized (key, position) record
	// file for the initial bulk load, skipping the summarization pass — the
	// partition scatter path. The raw dataset still backs query fetches.
	RecordsName string
	// MemBudgetBytes bounds the memtable (and the initial bulk sort).
	MemBudgetBytes int64
	// Fanout is the tiering factor: a tier holding Fanout runs compacts
	// into one run of the next tier (default 4).
	Fanout int
	// Window is the number of records examined around the query key in
	// each run during approximate search (default 100).
	Window int
	// Workers is the number of concurrent workers used by the bulk-load
	// sort, ingest summarization, and compaction merges (0 means
	// runtime.NumCPU()). Runs and query answers are identical for any
	// value.
	Workers int
	// QueryWorkers is the fan-out of a single query: independent runs are
	// probed concurrently during approximate search, and the exact-search
	// raw-file verification scan is sharded by position range (0 means
	// runtime.GOMAXPROCS(0), clamped to the work available). Answers are
	// identical for any value.
	QueryWorkers int
	// AllowDegraded turns corruption at Open time into graceful
	// degradation: a run whose file is corrupt (or missing) is QUARANTINED
	// — withheld from queries and compactions but kept in the manifest —
	// instead of failing the open, and a corrupt WAL tail is reconstructed
	// from the raw dataset (every raw position not covered by a healthy
	// run re-summarizes into the memtable). Queries then answer over the
	// healthy remainder and Degraded() reports the loss; see
	// RebuildQuarantined for repair. Off by default: corruption fails
	// loudly with storage.ErrCorruptData.
	AllowDegraded bool
	// RawSums optionally supplies an externally owned raw-dataset CRC
	// sidecar (the partition layer's: the parent owns the shared raw file
	// and its sidecar, children verify through the shared handle). When
	// nil, the index builds and maintains its own. Every raw read is
	// verified against it, and every run read against the block CRCs of
	// the run file (internal/runblock), so bit rot surfaces as
	// storage.ErrCorruptData instead of a wrong answer.
	RawSums *storage.RecordSums
	// Owns restricts reconstruction-from-raw — degraded WAL recovery and
	// RebuildQuarantined — to the records this index owns. A partition
	// child shares the raw dataset with its siblings; without the filter
	// a reconstruction would re-index every sibling's records too. Nil
	// means the index owns every raw record.
	Owns func(summary.Key) bool
	// Cache is the shared decoded-block cache run files are read through:
	// runs are block-compressed on disk (internal/runblock) and never
	// materialize as whole-run key arrays, so resident key memory is bounded
	// by the cache budget regardless of index size. The partition layer
	// passes one cache to every child so the budget bounds the whole index;
	// nil creates a private cache of blockcache.DefaultBytes.
	Cache *blockcache.Cache
}

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
	}
	if o.MemBudgetBytes <= 0 {
		o.MemBudgetBytes = 16 << 20
	}
	if o.Fanout < 2 {
		o.Fanout = 4
	}
	if o.Window <= 0 {
		o.Window = 100
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
	// seq is the run's global age: flush runs take consecutive ordinals and
	// a compacted run inherits the seq of its oldest input, so ix.runs stays
	// sorted oldest-first no matter how compactions interleave.
	seq int64
	// tierSeq is the run's arrival ordinal WITHIN its tier: the k-th tier-0
	// flush and the output of the k-th compaction of tier t-1 both get
	// tierSeq k. Compaction groups are formed from consecutive tierSeq
	// ranges of exactly Fanout runs, which makes the whole compaction DAG —
	// and therefore the on-disk state — a pure function of the flush
	// sequence, independent of when each merge runs.
	tierSeq int
}

// memEntry is one memtable record.
type memEntry struct {
	key summary.Key
	pos int64
}

// Index is a Coconut-LSM index. A handle is safe for concurrent use:
// queries hold mu shared, while Append/Flush hold it exclusively, so
// readers always observe a consistent (runs, memtable) pair — this is the
// LSM counterpart of the tree's SIMS-refresh lock.
//
// Compactions run inline, under mu, right after the flush that made a
// group ready. mu is released only for manifest fsyncs, and by then a
// compaction's merged run is installed and its group counted, so no other
// goroutine ever observes a half-landed merge.
type Index struct {
	opt     Options
	rawFile storage.File
	// rawSums verifies raw-dataset reads; ownSums marks the handle as this
	// index's own (maintained on appends) rather than the partition layer's
	// shared one.
	rawSums *storage.RecordSums
	ownSums bool
	// quarantined holds the manifest records of runs withheld at Open
	// because their files were corrupt or missing (Options.AllowDegraded).
	// They stay in every committed manifest — the files, where they exist,
	// are never deleted by compaction — until RebuildQuarantined replaces
	// them from the raw dataset.
	quarantined []manifest.RunInfo
	mu          sync.RWMutex
	// closed makes Close idempotent: a second Close (even concurrent with
	// the first) returns nil instead of double-closing the files.
	closed  bool
	runs    []*run
	mem     []memEntry
	count   int64
	nextRun int
	// nextSeq feeds run.seq; tier0Seq counts flushes (tier-0 tierSeq).
	nextSeq  int64
	tier0Seq int
	// committedGroups[t] is the number of tier-t compaction groups whose
	// merged output has been swapped in: group k covers tierSeq
	// [k*Fanout, (k+1)*Fanout) and is ready once every member has arrived.
	// Groups land strictly in order, so this single number fully describes
	// recovery: groups below it are done and their inputs deleted, groups at
	// or above it are still on disk as input runs and re-form after a crash.
	committedGroups map[int]int
	// commitErr is the sticky first failed manifest commit of a compaction
	// swap or a repair: durably the previous manifest stays authoritative,
	// so no later commit may supersede it and every write refuses.
	commitErr error

	// WAL state. The counters live on the Index (under mu) because every
	// manifest snapshot records them. walAppended is the LSN after the last
	// logged entry;
	// walFlushed is the durable flush cursor (entries below it are covered
	// by flushed runs); un-flushed entries live in WAL segments
	// [walFirstSeg, walNextSeg).
	wal         *wal
	walAppended int64
	walFlushed  int64
	walFirstSeg int
	walNextSeg  int

	// Manifest commits run OFF the handle lock: the state is snapshotted
	// and sequenced by commitSeq under mu, then encoded and fsynced under
	// commitMu only. durableSeq (under commitMu) is the newest snapshot
	// committed; an older snapshot that lost the race is skipped, since
	// the newer manifest describes a superset state whose referenced files
	// all still exist (deletions only ever follow a successful commit).
	commitMu   sync.Mutex
	commitSeq  int64
	durableSeq int64
}

// Build bulk-loads the initial run from the dataset (summarize + external
// sort, exactly the Coconut pipeline) and returns the index. The
// summarization phase is the batched parallel pipeline shared with the
// tree/trie builds (core.SummaryRecordReader), so every Build stage fans
// out across opt.Workers.
func Build(opt Options) (*Index, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := newIndex(opt, raw)
	if err := ix.build(); err != nil {
		ix.abandon()
		Remove(opt.FS, opt.Name)
		return nil, err
	}
	return ix, nil
}

func newIndex(opt Options, raw storage.File) *Index {
	return &Index{opt: opt, rawFile: raw, committedGroups: map[int]int{}}
}

// abandon releases what a Build or Open that failed got as far as holding.
func (ix *Index) abandon() {
	if ix.wal != nil {
		_ = ix.wal.close()
	}
	_ = ix.closeRunsLocked()
	ix.rawFile.Close()
}

// Remove deletes every file of the Coconut-LSM name that Build writes —
// the bulk run, WAL segment 0 and the manifest: the undo of a build that
// failed, here or in the partition layer after this child finished. Best
// effort, like core.RemoveTree: the build's own error is what is reported.
func Remove(fs storage.FS, name string) {
	for _, n := range []string{runFileName(name, 0), walSegName(name, 0), manifest.FileName(name)} {
		if fs.Exists(n) {
			_ = fs.Remove(n)
		}
	}
}

func (ix *Index) build() error {
	opt, raw := ix.opt, ix.rawFile
	// Summarize + sort the existing data into run 0 (tier determined by
	// later compactions; the initial bulk run sits at a high tier).
	name := ix.runName()
	cfg := extsort.Config{
		FS:         opt.FS,
		RecordSize: recordSize,
		Compare:    extsort.CompareKeyPrefix(summary.KeySize),
		MemBudget:  opt.MemBudgetBytes,
		TempPrefix: opt.Name + ".sort",
		Workers:    opt.Workers,
		WrapOut:    wrapRunOut,
	}
	// The build owns the raw-dataset CRC sidecar unless the partition layer
	// supplied its own; the source computes it inside its one pass over the
	// raw file and Finish persists it.
	src, err := core.OpenBuildSource(core.BuildSourceConfig{
		FS: opt.FS, S: opt.S, Raw: raw, RawName: opt.RawName, RecordsName: opt.RecordsName,
		Workers: opt.Workers, RawSums: opt.RawSums,
	})
	if err != nil {
		return err
	}
	n, err := extsort.Sort(cfg, src, name)
	if ix.rawSums, ix.ownSums, err = src.Finish(err); err != nil {
		return err
	}
	if n > 0 {
		if err := syncFile(opt.FS, name); err != nil {
			return err
		}
		r, err := ix.openRun(name, manifest.BulkTier, ix.nextSeq, 0, n)
		if err != nil {
			return err
		}
		ix.runs = append(ix.runs, r)
	} else {
		_ = opt.FS.Remove(name)
	}
	ix.nextSeq++
	ix.count = n
	// Pre-create WAL segment 0 so the manifest below references it: an
	// acknowledged append may only ever land in a manifest-referenced
	// segment (or one replay probes forward to), or a crash could lose it.
	f, size, err := createWALSegment(opt.FS, opt.Name, 0, 0)
	if err != nil {
		return err
	}
	ix.wal = newWAL(opt.FS, opt.Name, raw, f, 0, size, 0)
	ix.walNextSeg = 1
	// Durability point: the manifest makes the bulk-loaded run reopenable
	// with Open without re-reading the dataset.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.commitManifestLocked()
}

func (ix *Index) runName() string {
	name := runFileName(ix.opt.Name, ix.nextRun)
	ix.nextRun++
	return name
}

// runFileName names the n-th flushed (or bulk-loaded) run of the index name.
func runFileName(name string, n int) string { return fmt.Sprintf("%s.run.%06d", name, n) }

// wrapRunOut is the extsort final-output wrapper that writes a run file in
// its physical layout, the block compressor (internal/runblock), whose block,
// directory and footer CRCs are the file's one integrity layer.
func wrapRunOut(f storage.File) (storage.File, error) { return runblock.NewFileWriter(f, 0), nil }

// wrapRunIn is the extsort merge-input wrapper that reads an existing run
// file through its physical layout (the inverse of wrapRunOut). Inputs are
// opened with their own block decoding, bypassing the shared cache:
// one-shot merge traffic must never evict the hot query working set. Every
// block's CRC is checked as it decodes, so a compaction can never launder
// rotted records into a fresh (correctly checksummed) run.
func wrapRunIn(f storage.File) (storage.File, error) {
	r, err := runblock.NewFileReader(f)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// openRun opens a just-written run file and returns its run handle: a
// footer + directory read only — no key data is materialized. The record
// count is cross-checked against what the writer produced; the full
// streaming Verify is reserved for reopen (loadRun), where the bytes'
// provenance is unknown.
func (ix *Index) openRun(name string, tier int, seq int64, tierSeq int, count int64) (*run, error) {
	f, err := ix.opt.FS.Open(name)
	if err != nil {
		return nil, err
	}
	rb, err := runblock.OpenReader(f, ix.opt.Cache)
	if err != nil {
		f.Close()
		return nil, err
	}
	if rb.Count() != count {
		rb.Close()
		return nil, fmt.Errorf("lsm: run %s holds %d records, wrote %d", name, rb.Count(), count)
	}
	return &run{name: name, tier: tier, count: count, seq: seq, tierSeq: tierSeq, rb: rb}, nil
}

// Degraded reports whether the index is answering over a partial record
// set: one or more runs were quarantined at Open because their files were
// corrupt or missing. Callers that require complete answers must treat any
// result from a degraded index as a lower bound over the healthy remainder.
func (ix *Index) Degraded() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.quarantined) > 0
}

// QuarantinedRuns lists the file names of quarantined runs (empty when
// healthy).
func (ix *Index) QuarantinedRuns() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	names := make([]string, len(ix.quarantined))
	for i, ri := range ix.quarantined {
		names[i] = ri.Name
	}
	return names
}

// uncoveredLocked re-derives, from the raw dataset read through the
// verifying sidecar, the entry of every record that no healthy run and no
// memtable entry covers and that this index owns (Options.Owns) — what a
// quarantined run or a rotted log lost. Runs partition the record positions,
// so these are exactly the lost records (plus, after a crash, raw records
// never acknowledged, which are harmless to index).
func (ix *Index) uncoveredLocked() (_ []memEntry, err error) {
	covered := make(map[int64]bool, ix.count)
	for _, r := range ix.runs {
		err := r.rb.Scan(nil, func(blk *runblock.Block) error {
			for _, p := range blk.Pos {
				covered[p] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, e := range ix.mem {
		covered[e.pos] = true
	}
	p := ix.opt.S.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	rawSize, err := ix.rawFile.Size()
	if err != nil {
		return nil, err
	}
	var entries []memEntry
	buf, ser := make([]byte, sz), make(series.Series, p.SeriesLen)
	raw := storage.PinViews(ix.rawFile)
	defer raw.Release(&err)
	for pos := int64(0); pos < rawSize/sz; pos++ {
		if covered[pos] {
			continue
		}
		enc, err := core.ReadRawAt(raw, ix.rawSums, pos, buf)
		if err != nil {
			return nil, err
		}
		series.DecodeInto(enc, ser)
		key, err := ix.opt.S.KeyOf(ser)
		if err != nil {
			return nil, err
		}
		if ix.opt.Owns == nil || ix.opt.Owns(key) {
			entries = append(entries, memEntry{key: key, pos: pos})
		}
	}
	return entries, nil
}

// RebuildQuarantined repairs a degraded index: the records of every
// quarantined run are re-derived from the raw dataset (read through the
// verifying sidecar) and installed as one fresh bulk run, after which the
// corrupt files are deleted. The lost records are exactly the raw
// positions no healthy run or memtable entry covers — runs partition the
// record positions — so the repaired index answers over the identical
// record multiset, and window invariance makes its answers byte-identical
// to the pre-corruption index's. No-op on a healthy index.
func (ix *Index) RebuildQuarantined() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.commitErr != nil {
		return ix.commitErr
	}
	if len(ix.quarantined) == 0 {
		return nil
	}
	entries, err := ix.uncoveredLocked()
	if err != nil {
		return err
	}
	old := ix.quarantined
	ix.quarantined = nil
	if len(entries) > 0 {
		sort.Slice(entries, func(a, b int) bool {
			if c := entries[a].key.Compare(entries[b].key); c != 0 {
				return c < 0
			}
			return lePosLess(entries[a].pos, entries[b].pos)
		})
		r, werr := ix.writeRunFile(ix.runName(), entries, manifest.BulkTier, ix.nextSeq, 0)
		if werr != nil {
			ix.quarantined = old
			return werr
		}
		ix.runs = append(ix.runs, r)
		ix.nextSeq++
		ix.count += r.count
	}
	if err := ix.commitManifestLocked(); err != nil {
		// Same stickiness as a failed compaction swap: durably the old
		// manifest (which still references the quarantined files) stays
		// authoritative, so no later commit may supersede it.
		if ix.commitErr == nil {
			ix.commitErr = err
		}
		return err
	}
	for _, ri := range old {
		if err := ix.opt.FS.Remove(ri.Name); err != nil && !errors.Is(err, storage.ErrNotExist) {
			return err
		}
	}
	return nil
}

// memCapacity returns the memtable capacity in records.
func (ix *Index) memCapacity() int {
	c := int(ix.opt.MemBudgetBytes / recordSize)
	if c < 16 {
		c = 16
	}
	return c
}

// Insert adds new series: raw bytes go to the dataset file, records to
// the memtable and the write-ahead log; a full memtable flushes to a
// fresh tier-0 run, and the compactions that flush made ready run inline.
// The batch is summarized up front across Workers goroutines, so ingest
// keeps every core busy while the raw writes stay append-only. Insert takes
// the handle lock exclusively only to log and insert — it then releases it
// and waits for the group commit, so a nil return means every series in
// the batch is durable (fsynced WAL record plus fsynced raw bytes, or
// already covered by a flushed run). A failed compaction merge is not an
// Insert error (see flushOnWriteLocked).
//
// Cancellation is admission control: the context is checked before any raw
// byte lands — once admitted, the batch runs to completion (a half-applied
// batch would corrupt the index) — and again while waiting for the group
// commit. A cancelled appender abandons its durability wait without
// disturbing the batch: the committer still fsyncs it, so the logged
// entries stay durable and consistent.
func (ix *Index) Insert(ctx context.Context, batch []series.Series) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.mu.Lock()
	lsn, err := ix.appendLocked(batch)
	ix.mu.Unlock()
	if err != nil {
		return err
	}
	return ix.wal.waitDurable(ctx, lsn)
}

func (ix *Index) appendLocked(batch []series.Series) (int64, error) {
	if ix.commitErr != nil {
		return 0, ix.commitErr
	}
	p := ix.opt.S.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	end, err := ix.rawFile.Size()
	if err != nil {
		return 0, err
	}
	for _, s := range batch {
		if len(s) != p.SeriesLen {
			return 0, fmt.Errorf("lsm: series length %d, want %d", len(s), p.SeriesLen)
		}
	}
	keys, err := ix.opt.S.KeysOf(batch, ix.opt.Workers)
	if err != nil {
		return 0, err
	}
	// A torn raw tail can legitimately survive a crash (the partial record
	// was never acknowledged); rounding the write position down overwrites it.
	pos := end / sz
	enc := make([]byte, 0, sz)
	// Records are logged in chunks: everything appended since the last
	// flush boundary goes to the WAL in one record before the flush (or
	// the batch end), so a flush never covers entries the log missed.
	var pending []core.InsertRec
	logPending := func(flushNext bool) error {
		if len(pending) == 0 {
			return nil
		}
		if _, err := ix.wal.log(pending, flushNext); err != nil {
			return err
		}
		ix.walAppended += int64(len(pending))
		pending = pending[:0]
		return nil
	}
	for i, s := range batch {
		enc = series.AppendEncode(enc[:0], s)
		if _, err := ix.rawFile.WriteAt(enc, pos*sz); err != nil {
			return 0, err
		}
		if ix.ownSums {
			ix.rawSums.Set(pos, enc)
		}
		ix.mem = append(ix.mem, memEntry{key: keys[i], pos: pos})
		pending = append(pending, core.InsertRec{Key: keys[i], Pos: pos})
		ix.count++
		pos++
		if len(ix.mem) >= ix.memCapacity() {
			if err := logPending(true); err != nil {
				return 0, err
			}
			if err := ix.flushOnWriteLocked(); err != nil {
				return 0, err
			}
			// The flush releases mu for its manifest commits; a concurrent
			// Insert can grow the raw file meanwhile, so the write position
			// must be recomputed before the next record.
			if end, err = ix.rawFile.Size(); err != nil {
				return 0, err
			}
			pos = end / sz
		}
	}
	if err := logPending(false); err != nil {
		return 0, err
	}
	return ix.walAppended, nil
}

// InsertRecords logs and inserts pre-summarized records routed to this index
// by the partition layer, whose raw bytes are already in the shared dataset
// file at their Pos (written through the partition layer's own handle; the
// group commit's rawFile.Sync and flushLocked's cover them because both
// handles name the same file). It does not wait for the group commit: the
// returned LSN is the durability token to pass to WaitDurable. The partition
// layer routes one batch to every child under its own lock, releases the
// lock, and then waits all tokens — so N children share N fsync batches
// instead of serializing them.
func (ix *Index) InsertRecords(entries []core.InsertRec) (int64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.commitErr != nil {
		return 0, ix.commitErr
	}
	for len(entries) > 0 {
		room := ix.memCapacity() - len(ix.mem)
		if room <= 0 {
			// A concurrent appender filled the memtable while a flush
			// released mu; fold it before logging more.
			if err := ix.flushOnWriteLocked(); err != nil {
				return 0, err
			}
			continue
		}
		chunk := entries
		if len(chunk) > room {
			chunk = chunk[:room]
		}
		if _, err := ix.wal.log(chunk, len(chunk) == room); err != nil {
			return 0, err
		}
		ix.walAppended += int64(len(chunk))
		for _, e := range chunk {
			ix.mem = append(ix.mem, memEntry{key: e.Key, pos: e.Pos})
			ix.count++
		}
		entries = entries[len(chunk):]
		if len(ix.mem) >= ix.memCapacity() {
			if err := ix.flushOnWriteLocked(); err != nil {
				return 0, err
			}
		}
	}
	return ix.walAppended, nil
}

// WaitDurable blocks until every entry at LSN <= lsn is durable (group-
// committed into the WAL, or covered by a flushed run). A cancelled waiter
// returns ctx.Err() and abandons the wait; the group commit itself is
// unaffected, so the entries still become durable.
func (ix *Index) WaitDurable(ctx context.Context, lsn int64) error {
	return ix.wal.waitDurable(ctx, lsn)
}

// lePosLess orders positions by the lexicographic order of their
// little-endian encoding — the order extsort's full-record tie-break sees,
// since pos is encoded little-endian right after the key. Reversing the
// byte order makes the LSB most significant, which is exactly that order.
func lePosLess(a, b int64) bool {
	return bits.ReverseBytes64(uint64(a)) < bits.ReverseBytes64(uint64(b))
}

// Flush sorts the memtable and writes it as a new tier-0 run, then runs
// every compaction that is ready before it returns — including any whose
// merge failed on an earlier write, which is retried here and whose error
// Flush returns.
//
// Entries sort by key with ties broken in encoded-record byte order, so
// every run on disk — flushed or compacted — is totally ordered under the
// same refined order extsort uses. Compacted runs are then exactly the
// totally sorted multiset of their inputs, a state that is trivially
// independent of Workers and easy to audit.
func (ix *Index) Flush() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.flushLocked(); err != nil {
		return err
	}
	return ix.compactPendingLocked()
}

// flushOnWriteLocked is the flush an Insert or InsertRecords triggers when
// the memtable fills. A failed compaction merge is not the writer's error:
// the batch is durable either way, the group's inputs stay (extsort removes
// its temporaries), and the next flush retries the merge — Flush, Sync and
// Close return it. Only the flush's own failure is returned; a failed
// swap commit is sticky and refuses the next write.
func (ix *Index) flushOnWriteLocked() error {
	if err := ix.flushLocked(); err != nil {
		return err
	}
	_ = ix.compactPendingLocked()
	return nil
}

// flushLocked writes the memtable as a tier-0 run and commits it; it
// compacts nothing.
func (ix *Index) flushLocked() (err error) {
	defer func() {
		if err != nil {
			ix.wal.releaseFlush()
		}
	}()
	if ix.commitErr != nil {
		return ix.commitErr
	}
	if len(ix.mem) == 0 {
		return nil
	}
	sort.Slice(ix.mem, func(a, b int) bool {
		if c := ix.mem[a].key.Compare(ix.mem[b].key); c != 0 {
			return c < 0
		}
		return lePosLess(ix.mem[a].pos, ix.mem[b].pos)
	})
	// The run's positions point into raw bytes this process appended; they
	// must reach stable storage before a run (and manifest) references
	// them, or a power loss could leave a durable index over lost data.
	if err := ix.rawFile.Sync(); err != nil {
		return err
	}
	// The sidecar trails the raw file it describes; flushing it here keeps
	// "sidecar covers every position a durable run references" an
	// invariant, so reopen-time reconciliation only ever backfills the
	// unflushed memtable tail.
	if ix.ownSums {
		if err := ix.rawSums.Flush(); err != nil {
			return err
		}
	}
	r, err := ix.writeRunFile(ix.runName(), ix.mem, 0, ix.nextSeq, ix.tier0Seq)
	if err != nil {
		return err
	}
	ix.mem = ix.mem[:0]
	ix.runs = append(ix.runs, r)
	ix.nextSeq++
	ix.tier0Seq++
	// Before advancing the flush cursor, fsync the active segment. This is
	// what makes "every non-active segment is fully durable" an invariant:
	// the run above is durable but the manifest that references it is not
	// committed yet, so until that commit lands the WAL segment is still
	// the only durable record of these entries. It also licenses the
	// committer to keep releasing waiters against the fresh segment after
	// the rotation below without stranding entries in the old one.
	if err := ix.wal.syncActive(); err != nil {
		return err
	}
	// Every entry ever logged is now covered by a durable run: advance the
	// flush cursor, release group-commit waiters without a segment sync,
	// and rotate to a fresh WAL segment so the covered ones can be
	// recycled once the manifest commit below lands.
	oldFirstSeg := ix.walFirstSeg
	ix.walFlushed = ix.walAppended
	ix.wal.markFlushed(ix.walFlushed)
	if !ix.wal.activeEmpty() {
		seg := ix.walNextSeg
		if err := ix.wal.rotate(seg, ix.walAppended); err != nil {
			return err
		}
		ix.walNextSeg = seg + 1
		ix.walFirstSeg = seg
	}
	// Commit the manifest before compacting: the new run is durable the
	// moment Flush's structural change exists, and every later compaction
	// swap commits again before deleting its inputs — so the on-disk
	// manifest always references files that exist.
	if err := ix.commitManifestLocked(); err != nil {
		return err
	}
	// The committed manifest no longer references the rotated-away
	// segments; recycle them. A concurrent flush may have advanced the
	// range further during the commit window and recycled some already.
	for seg := oldFirstSeg; seg < ix.walFirstSeg; seg++ {
		if err := ix.opt.FS.Remove(walSegName(ix.opt.Name, seg)); err != nil &&
			!errors.Is(err, storage.ErrNotExist) {
			return err
		}
	}
	return nil
}

// writeRunFile persists one sorted run file, fsyncs it (the manifest commit
// that will reference it requires the bytes on stable storage first), and
// returns the opened run handle.
func (ix *Index) writeRunFile(name string, entries []memEntry, tier int, seq int64, tierSeq int) (*run, error) {
	f, err := ix.opt.FS.Create(name)
	if err != nil {
		return nil, err
	}
	bw := runblock.NewWriter(f, 0)
	for _, e := range entries {
		if err := bw.Add(e.key, e.pos); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := bw.Finish(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return ix.openRun(name, tier, seq, tierSeq, int64(len(entries)))
}

// compactJob is one ready compaction: Fanout consecutive runs of one tier
// merging into a single run of the next.
type compactJob struct {
	inputs  []*run
	outName string
	outTier int
	// group is the job's ordinal among its input tier's compactions — the k
	// in the deterministic naming/grouping scheme (and the output's tierSeq
	// at the next tier).
	group int
}

// findGroupLocked locates the next ready compaction group: the lowest tier
// whose next Fanout-sized tierSeq window [k*Fanout, (k+1)*Fanout), k the
// tier's committed-groups count, has fully arrived.
//
// Groups are pure functions of the flush sequence — which runs, in which
// order, merge into which output name — so the on-disk state after a
// Flush is the same whether a group merged right after the flush that
// completed it or several flushes later, after a failed merge.
func (ix *Index) findGroupLocked() *compactJob {
	byTier := map[int][]*run{}
	for _, r := range ix.runs {
		if r.tier != manifest.BulkTier {
			byTier[r.tier] = append(byTier[r.tier], r)
		}
	}
	tiers := make([]int, 0, len(byTier))
	for tier := range byTier {
		tiers = append(tiers, tier)
	}
	sort.Ints(tiers)
	for _, tier := range tiers {
		k := ix.committedGroups[tier]
		lo := k * ix.opt.Fanout
		group := make([]*run, 0, ix.opt.Fanout)
		for _, r := range byTier[tier] {
			if r.tierSeq >= lo && r.tierSeq < lo+ix.opt.Fanout {
				group = append(group, r)
			}
		}
		if len(group) < ix.opt.Fanout {
			continue
		}
		sort.Slice(group, func(a, b int) bool { return group[a].tierSeq < group[b].tierSeq })
		return &compactJob{
			inputs:  group,
			outName: fmt.Sprintf("%s.cmp.t%d.%06d", ix.opt.Name, tier, k),
			outTier: tier + 1,
			group:   k,
		}
	}
	return nil
}

// runCompaction merge-sorts a ready group via the parallel sorter's merge
// machinery — strictly sequential reads and writes, memory budget and
// worker pool shared with the bulk-load path. The output is re-encoded
// through the write adapter and reopened as a block directory (no key array
// ever materializes). extsort.Merge removes its temporaries (and a partial
// output) on error, so a failed merge leaves only its inputs.
func (ix *Index) runCompaction(job *compactJob) (*run, error) {
	names := make([]string, len(job.inputs))
	var want int64
	for i, r := range job.inputs {
		names[i] = r.name
		want += r.count
	}
	cfg := extsort.Config{
		FS:         ix.opt.FS,
		RecordSize: recordSize,
		Compare:    extsort.CompareKeyPrefix(summary.KeySize),
		MemBudget:  ix.opt.MemBudgetBytes,
		TempPrefix: job.outName + ".compact",
		Workers:    ix.opt.Workers,
		WrapOut:    wrapRunOut,
		WrapIn:     wrapRunIn,
	}
	if err := extsort.Merge(cfg, names, job.outName); err != nil {
		return nil, err
	}
	if err := syncFile(ix.opt.FS, job.outName); err != nil {
		return nil, err
	}
	return ix.openRun(job.outName, job.outTier, job.inputs[0].seq, job.group, want)
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

// syncFile fsyncs an already-written file so a manifest may reference it.
func syncFile(fs storage.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// swapLocked installs a finished compaction: the merged run replaces its
// inputs at the position of the oldest one (ix.runs stays sorted by seq —
// a group always covers a contiguous age range), the manifest is committed
// with the new run set, and only then are the input files deleted — so at
// every instant the on-disk manifest references only files that exist, and
// a crash between commit and deletion merely leaks orphan inputs the next
// Open ignores.
func (ix *Index) swapLocked(job *compactJob, newRun *run) error {
	dropped := make(map[*run]bool, len(job.inputs))
	for _, r := range job.inputs {
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
	if err := ix.commitManifestLocked(); err != nil {
		// The merged run is installed in memory, but durably the LAST GOOD
		// manifest — which references the inputs — stays authoritative, so
		// the input files must remain on disk for a future reopen. Make
		// the failure sticky: no later commit may land and supersede them.
		if ix.commitErr == nil {
			ix.commitErr = err
		}
		return err
	}
	for _, r := range job.inputs {
		_ = r.rb.Close()
		_ = ix.opt.FS.Remove(r.name)
	}
	return nil
}

// compactPendingLocked merges ready groups, lowest tier first, until none
// is ready. A failed merge returns its error with the group's inputs in
// place and the cursor unmoved, so the next call retries the same group.
func (ix *Index) compactPendingLocked() error {
	for {
		if ix.commitErr != nil {
			return ix.commitErr
		}
		job := ix.findGroupLocked()
		if job == nil {
			return nil
		}
		newRun, err := ix.runCompaction(job)
		if err != nil {
			return err
		}
		// Advance the cursor BEFORE the swap commits the manifest: the
		// committed manifest deletes this group's inputs from the run set,
		// so it must also record the group as done — otherwise a reopen
		// would wait forever for a window whose runs no longer exist. If
		// the commit fails the failure is sticky and the durable state
		// remains the previous manifest, where the cursor and the inputs
		// are still consistent.
		ix.committedGroups[job.outTier-1]++
		if err := ix.swapLocked(job, newRun); err != nil {
			return err
		}
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

// Close flushes the memtable (so every appended series is durable in a
// run), runs every ready compaction (returning a merge that still fails),
// and releases the raw file handle, waiting for in-flight queries. The
// on-disk runs left behind are exactly what the committed manifest
// describes, so Open reconstructs this index.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return nil
	}
	ix.closed = true
	flushErr := ix.flushLocked()
	if flushErr == nil {
		flushErr = ix.compactPendingLocked()
	}
	walErr := ix.wal.close()
	runsErr := ix.closeRunsLocked()
	closeErr := ix.rawFile.Close()
	if flushErr != nil {
		return flushErr
	}
	if walErr != nil {
		return walErr
	}
	if runsErr != nil {
		return runsErr
	}
	return closeErr
}

// tierCursorsLocked snapshots the committed-groups cursor of every tier.
// A crash mid-merge reopens with the unfinished group at or above the
// cursor, so it re-forms and re-merges to the same deterministic output —
// and because groups land one at a time in order, the cursor can never
// run ahead of an unfinished group.
func (ix *Index) tierCursorsLocked() []manifest.TierCursor {
	tiers := make([]int, 0, len(ix.committedGroups))
	for tier := range ix.committedGroups {
		tiers = append(tiers, tier)
	}
	sort.Ints(tiers)
	out := make([]manifest.TierCursor, 0, len(tiers))
	for _, tier := range tiers {
		if groups := ix.committedGroups[tier]; groups > 0 {
			out = append(out, manifest.TierCursor{Tier: tier, Groups: groups})
		}
	}
	return out
}

// commitManifestLocked commits the manifest describing the current run
// set and scheduling cursors. Callers hold mu; the snapshot is taken
// under mu, but the encode+fsync runs on a dedicated commit mutex with
// mu RELEASED, so queries (which take mu.RLock) proceed during a slow
// manifest sync. mu is re-acquired before returning — callers must
// tolerate the drop. Every commit happens before any input-file deletion
// it supersedes, and commits carry a sequence number assigned under mu:
// if a later snapshot already reached disk, an earlier one is skipped
// (the newer snapshot is a strict superset of the structural state, and
// deletions only follow successful commits).
func (ix *Index) commitManifestLocked() error {
	m := ix.manifestLocked()
	ix.commitSeq++
	seq := ix.commitSeq
	ix.mu.Unlock()
	err := ix.commitSnapshot(seq, m)
	ix.mu.Lock()
	return err
}

// commitSnapshot serializes manifest commits on commitMu, dropping
// snapshots already superseded by a durable newer one.
func (ix *Index) commitSnapshot(seq int64, m *manifest.Manifest) error {
	ix.commitMu.Lock()
	defer ix.commitMu.Unlock()
	if ix.durableSeq >= seq {
		return nil
	}
	if err := manifest.Commit(ix.opt.FS, ix.opt.Name, m); err != nil {
		return err
	}
	ix.durableSeq = seq
	return nil
}

// manifestLocked snapshots the current structural state as a manifest.
func (ix *Index) manifestLocked() *manifest.Manifest {
	p := ix.opt.S.Params()
	var total int64
	runs := make([]manifest.RunInfo, len(ix.runs))
	for i, r := range ix.runs {
		ri := manifest.RunInfo{
			Name:    r.name,
			Tier:    r.tier,
			TierSeq: r.tierSeq,
			Seq:     r.seq,
			Count:   r.count,
		}
		if r.count > 0 {
			ri.MinKey = r.rb.MinKey()
			ri.MaxKey = r.rb.MaxKey()
		}
		runs[i] = ri
		total += r.count
	}
	// Quarantined runs stay in every committed manifest (merged back in by
	// seq — both lists are age-ordered) until RebuildQuarantined replaces
	// them: dropping them would turn a detected corruption into a silent
	// permanent data loss on the next reopen.
	if len(ix.quarantined) > 0 {
		merged := make([]manifest.RunInfo, 0, len(runs)+len(ix.quarantined))
		qi := 0
		for _, ri := range runs {
			for qi < len(ix.quarantined) && ix.quarantined[qi].Seq < ri.Seq {
				merged = append(merged, ix.quarantined[qi])
				qi++
			}
			merged = append(merged, ri)
		}
		merged = append(merged, ix.quarantined[qi:]...)
		runs = merged
		for _, ri := range ix.quarantined {
			total += ri.Count
		}
	}
	m := &manifest.Manifest{
		Variant:   manifest.VariantLSM,
		SeriesLen: p.SeriesLen,
		Segments:  p.Segments,
		CardBits:  p.CardBits,
		RawName:   ix.opt.RawName,
		Count:     total,
		LSM: &manifest.LSMLayout{
			Fanout:      ix.opt.Fanout,
			NextRun:     ix.nextRun,
			NextSeq:     ix.nextSeq,
			Tier0Seq:    ix.tier0Seq,
			Cursors:     ix.tierCursorsLocked(),
			Runs:        runs,
			WALFlushed:  ix.walFlushed,
			WALFirstSeg: ix.walFirstSeg,
			WALNextSeg:  ix.walNextSeg,
		},
	}
	return m
}

// ApproxSearch merges, from every run and the memtable, a half-window of
// records on each side of where the query's key sorts, and evaluates the
// merged window best-lower-bound-first with early abandoning (see
// internal/window). The merged window is a pure function of the record
// multiset, so the answer is identical for any run layout — before or
// after flushes and compactions, and across partition counts. Safe for
// concurrent use. The candidate fetch loop observes ctx between records and
// returns ctx.Err() without a partial answer. The radius every index takes
// is ignored here and below: the LSM window is sized by Options.Window.
func (ix *Index) ApproxSearch(ctx context.Context, q series.Series, _ int) (core.Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pass, err := ix.opt.S.NewPass(q)
	if err != nil {
		return core.Result{Pos: -1, Dist: math.Inf(1)}, err
	}
	defer pass.Release() // the window's bounds are all taken before it returns
	res, err := ix.approxLocked(ctx, q, &pass.Table)
	res.Dist = math.Sqrt(res.Dist)
	return res, err
}

// approxLocked is the internal form of ApproxSearch: res.Dist holds the
// SQUARED best distance (the LSM query path, like core's, stays in squared
// space until a public entry point materializes a Euclidean distance). tbl
// is q's MinDistTable.
func (ix *Index) approxLocked(ctx context.Context, q series.Series, tbl *summary.MinDistTable) (core.Result, error) {
	res := core.Result{Pos: -1, Dist: math.Inf(1)}
	if ix.count == 0 {
		return res, errors.New("lsm: index is empty")
	}
	below, above, runs, err := ix.windowCandsLocked(q, tbl)
	if err != nil {
		return res, err
	}
	res.VisitedLeaves = runs // runs probed travel in the leaf slot
	pos, sq, visited, err := core.EvalWindow(ctx, q, window.Merge(below, above, ix.opt.Window/2), core.ApproxWindow{Raw: ix.rawFile, Sums: ix.rawSums})
	res.Pos, res.Dist, res.VisitedRecords = pos, sq, visited
	return res, err
}

// windowCandsLocked collects this index's window contributions: for each
// run a binary search finds where the query key sorts and the surrounding
// half-windows become candidates; the (unsorted) memtable's records are
// classified per side, ordered, and trimmed to the half-window. Per-source
// trimming never changes the merged global window — a record in the global
// trailing half is necessarily in its own source's trailing half. Lower
// bounds come from q's table tbl, shared by every source.
func (ix *Index) windowCandsLocked(q series.Series, tbl *summary.MinDistTable) (below, above []window.Cand, runs int64, err error) {
	key, err := ix.opt.S.KeyOf(q)
	if err != nil {
		return nil, nil, 0, err
	}
	half := ix.opt.Window / 2
	// Each run and the memtable contribute at most half a window per side.
	below = make([]window.Cand, 0, half*(len(ix.runs)+1))
	above = make([]window.Cand, 0, half*(len(ix.runs)+1))
	for _, r := range ix.runs {
		idx, serr := r.rb.Search(key)
		if serr != nil {
			return nil, nil, 0, serr
		}
		lo, hi := idx-int64(half), idx+int64(half)
		err := r.rb.Range(lo, idx, func(k summary.Key, pos int64) error {
			below = append(below, window.Cand{Key: k, Pos: pos, LB: tbl.Key(k)})
			return nil
		})
		if err != nil {
			return nil, nil, 0, err
		}
		err = r.rb.Range(idx, hi, func(k summary.Key, pos int64) error {
			above = append(above, window.Cand{Key: k, Pos: pos, LB: tbl.Key(k)})
			return nil
		})
		if err != nil {
			return nil, nil, 0, err
		}
		runs++
	}
	var mb, ma []window.Cand
	for _, e := range ix.mem {
		c := window.Cand{Key: e.key, Pos: e.pos, LB: tbl.Key(e.key)}
		if e.key.Less(key) {
			mb = append(mb, c)
		} else {
			ma = append(ma, c)
		}
	}
	sort.Slice(mb, func(i, j int) bool { return window.Less(mb[i], mb[j]) })
	sort.Slice(ma, func(i, j int) bool { return window.Less(ma[i], ma[j]) })
	if len(mb) > half {
		mb = mb[len(mb)-half:]
	}
	if len(ma) > half {
		ma = ma[:half]
	}
	below = append(below, mb...)
	above = append(above, ma...)
	return below, above, runs, nil
}

// ApproxWindowCands is the partition-layer entry: this index's window
// contributions for q, to be merged with the other partitions' before one
// global evaluation. An empty index contributes nothing (no error — the
// cross-partition window may still be non-empty). The Leaves counter
// reports runs probed; the candidates are read from the raw file by
// whoever evaluates the merged window (core.EvalWindow).
func (ix *Index) ApproxWindowCands(_ context.Context, q series.Series, _ int) (core.ApproxWindow, error) {
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
	below, above, runs, err := ix.windowCandsLocked(q, &pass.Table)
	if err != nil {
		return aw, err
	}
	aw.Below, aw.Above, aw.Leaves = below, above, runs
	aw.Raw, aw.Sums = ix.rawFile, ix.rawSums
	return aw, nil
}

// ExactSearch is SIMS over the union of all runs' key blocks and the
// memtable: squared lower bounds for every record (one per-query
// MinDistTable shared by the approximate window, every run and the
// memtable, evaluated per run across QueryWorkers; a run is swept block by
// block without evicting what the cache holds, and a block whose key range
// the table bounds at or above the seed is never read, see
// runblock.Reader.Scan and MinDistTable.Range), then a position-ordered
// skip-sequential scan of the raw file (core.VerifyRaw: file-adjacent
// candidates share one read), sharded by position range with a shared
// squared best-so-far bound — the Euclidean distance is materialized once,
// at return. Safe for concurrent use; (Pos, Dist) is identical for any
// worker count. Every phase — window fetch, per-run lower bounds,
// verification scan — observes ctx and returns ctx.Err() without a partial
// answer.
func (ix *Index) ExactSearch(ctx context.Context, q series.Series, _ int) (core.Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	res, err := ix.exactLocked(ctx, q)
	res.Dist = math.Sqrt(res.Dist)
	return res, err
}

// exactLocked runs the SIMS pipeline in squared space, both phases on one
// per-query table.
func (ix *Index) exactLocked(ctx context.Context, q series.Series) (core.Result, error) {
	pass, err := ix.opt.S.NewPass(q)
	if err != nil {
		return core.Result{Pos: -1, Dist: math.Inf(1)}, err
	}
	res, err := ix.approxLocked(ctx, q, &pass.Table)
	if err != nil {
		if ctx.Err() == nil {
			pass.Release()
		}
		return res, err
	}
	var bound shard.BSF
	bound.Init(res.Dist)
	return ix.exactVerifyLocked(ctx, q, res, &bound, pass)
}

// ExactVerify is the partition-layer entry: verify the seed (seedPos,
// seedSq — SQUARED) against this index's records, pruning with the shared
// cross-partition bound, and return the best in squared space with
// verify-phase counters only. An empty index returns the seed unchanged.
func (ix *Index) ExactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (core.Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	res := core.Result{Pos: seedPos, Dist: seedSq}
	if ix.count == 0 {
		return res, nil
	}
	pass, err := ix.opt.S.NewPass(q)
	if err != nil {
		return res, err
	}
	return ix.exactVerifyLocked(ctx, q, res, bound, pass)
}

// exactVerifyLocked is the verification phase: lower-bound every record of
// a block the seed does not rule out whole, then scan the surviving
// candidates in position order, tightening res (and the shared bound) as
// closer records are found. pass holds q's table; the call owns pass and
// returns it to the pool unless ctx ended it.
func (ix *Index) exactVerifyLocked(ctx context.Context, q series.Series, res core.Result, bound *shard.BSF, pass *summary.Pass) (core.Result, error) {
	// One lookup table serves the whole query: it is read-only after the
	// build, so every run shard and the memtable pass read it concurrently.
	tbl, limit := &pass.Table, bound.Limit(res.Dist)
	skip := func(lo, hi *summary.Key) bool { return tbl.Range(lo, hi) >= limit }
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
	err := shard.Scan(ctx, runWorkers, len(ix.runs), func(si int, rr shard.Range, cancelled func() bool) error {
		for _, r := range ix.runs[rr.Lo:rr.Hi] {
			if cancelled() {
				return nil
			}
			err := r.rb.Scan(skip, func(blk *runblock.Block) error {
				perShard[si] = tbl.Filter(perShard[si], blk.Keys, blk.Pos, limit, innerWorkers)
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
		return res, err
	}
	cands := perShard[0]
	for _, cs := range perShard[1:] {
		cands = append(cands, cs...)
	}
	for _, e := range ix.mem {
		if lb := tbl.Key(e.key); lb < limit {
			cands = append(cands, summary.Cand{ID: e.pos, LB: lb})
		}
	}
	pass.Cands = cands
	var visited int64
	res.Pos, res.Dist, visited, err = core.VerifyRaw(ctx, ix.rawFile, ix.rawSums, q, cands, res.Pos, res.Dist, bound, ix.opt.QueryWorkers)
	res.VisitedRecords += visited
	if ctx.Err() == nil {
		pass.Release()
	}
	return res, err
}
