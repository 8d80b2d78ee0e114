// Package coconut is the public API of the Coconut data series indexing
// library — a from-scratch reproduction of "Coconut: A Scalable Bottom-Up
// Approach for Building Data Series Indexes" (VLDB 2018).
//
// Coconut indexes fixed-length, z-normalized data series for fast nearest
// neighbor search under Euclidean distance. Its key idea is a SORTABLE
// summarization: the bits of a SAX word are interleaved (z-order) so that
// sorting the summaries keeps similar series adjacent, which unlocks
// bottom-up bulk loading — a few sequential passes instead of per-series
// random I/O — into one dense sorted run whose leaves, its disk pages, are
// full by construction.
//
// # Quick start
//
//	fs := coconut.NewMemStorage()           // or NewDiskStorage(dir)
//	coconut.GenerateDataset(fs, "data.bin", coconut.RandomWalk, 100000, 256, 1)
//	idx, err := coconut.Build(ctx, coconut.Config{
//	    Storage:   fs,
//	    Name:      "myindex",
//	    DataFile:  "data.bin",
//	    SeriesLen: 256,
//	}, coconut.Tree)                        // or coconut.LSM
//	...
//	res, err := idx.Search(query)        // exact 1-NN
//	res, err = idx.SearchApprox(query, 1) // fast approximate, radius 1
//
// The library also ships every baseline the paper compares against (iSAX
// 2.0, ADS+/ADSFull, R-tree/STR, Vertical/DHWT, DSTree) under internal/,
// plus the full benchmark harness that regenerates each figure of the
// paper's evaluation (cmd/benchrunner, bench_test.go).
//
// # Concurrency
//
// Index handles are safe for concurrent use. Any number of goroutines may
// run Search, SearchApprox, and SearchKNN on one shared handle at the same
// time: per-query scratch buffers and page staging live on the query's
// stack, not on the handle, and the lazily refreshed SIMS summary state is
// guarded internally. Every handle — partitioned or not — has one
// reader-writer lock: a query holds it shared from its first partition step
// to its last candidate fetch, and an Insert's append and routing, and
// Close, hold it exclusively, so mutations may be issued concurrently with
// queries too — they simply wait for readers and vice versa. An LSM
// Insert's wait for the raw log's group commit holds no lock; Flush and Sync
// serialize inside each partition.
//
// Within a single query, the library shards the heavy phases of SIMS exact
// search across Config.QueryWorkers goroutines: the lower-bound pass over
// the in-memory summaries, the candidate-verification scan of exact search
// for any k (one scan for every index type, sharded by candidate range —
// raw-file positions, or the ordinals of a materialized index's own leaf
// run — into per-shard top-k heaps reduced in shard order), and — for LSM
// indexes — the per-run probes of multi-run queries.
// QueryWorkers = 0 uses runtime.GOMAXPROCS(0) goroutines; the answers
// (positions, distances) are identical for any setting, so it is purely a
// latency knob. For maximum
// throughput under many concurrent queries, QueryWorkers = 1 avoids
// oversubscription; for minimum single-query latency, leave it 0.
//
// # Write path
//
// Index construction is parallel end to end: raw series are summarized in
// batches sharded across Config.Workers goroutines and read by the sort in
// file order, the external sort forms and merges runs across the same
// workers, and the built index is byte-identical for any worker count.
//
// LSM ingest (Insert on an LSM index) appends raw bytes, summarizes each
// batch across Workers goroutines, and flushes full memtables as sorted
// runs. The raw file is the log: every index key is a pure function of the
// raw bytes, so nothing else is logged. Every Insert returns only after its
// raw bytes and then their entries in the raw file's CRC sidecar are fsynced
// (concurrent inserts share one such pair via group commit): the sidecar's
// persisted length is the acknowledged end of the dataset. Reopening after a
// crash re-summarizes the records no run holds yet into the memtable; the
// partitions of a partitioned index share the one raw log and each recovers
// its own records. A failed fsync is sticky: the Insert that met it and
// every later Insert, Flush and Sync return it.
//
// A flush that fills a tier (four runs) merges it into the next tier
// inline, before the Insert or Flush returns. A failed merge is not an
// Insert error: the batch is still applied and durable, the tier's input
// runs stay, and the next flush retries the merge. Flush, Sync and Close,
// which promise the compacted state, return it.
//
// # Cancellation
//
// Every query and mutation has a context-taking variant (SearchCtx,
// SearchApproxCtx, SearchKNNCtx, InsertCtx), and Build and Open take a
// context first. Cancellation is honored end to end: a query observes its
// context between candidate reads, partition probes and LSM run probes, so a cancelled or deadline-exceeded context returns
// ctx.Err() promptly — never a partial or wrong answer. On the write path
// the context is admission control: it is checked before any bytes move,
// and an LSM insert whose context expires while waiting for the raw log's
// group commit abandons the wait (returning ctx.Err()) without disturbing the
// batch — the record still becomes durable. The context-free methods are
// exactly their Ctx counterparts under context.Background(); below this
// package there are no such pairs — everything takes its context first.
//
// # One index, two layouts
//
// Coconut-Tree and Coconut-LSM are one family: a sorted array of invSAX
// summaries answered by the same two steps, an approximate window whose k
// best seed a SIMS verification pass under the k-th best — exact 1-NN being
// k = 1 on every index type. Every type evaluates 32×(radius+1) records
// around the query's sort position; exact search seeds from radius 1. So
// there is one handle, Index, for every Variant: Build bulk-loads one of the
// variant it is given, and Open reopens one of the variant its manifest
// records. Each holds the same internal
// index (internal/partition.Composite): N children of the variant split by
// key range, with N = 1 unless Config.Partitions >= 2. The composite owns the raw log and drives both
// query steps and inserts the same way for any N; what only the LSM can do
// — flush its memtable — it offers exactly when its children have it, and
// fails with errors.ErrUnsupported otherwise. The typed names TreeIndex and
// LSMIndex, and their Build*/Open* constructors, are kept for callers that
// use them.
//
// The paper's third layout, Coconut-Trie, cut the same sorted run at iSAX
// prefix boundaries and answered approximately from the leaf matching the
// query's prefix. Here every search reads the record window around the
// query's sort position and never a leaf, so a trie answered exactly as a
// tree over the same records, and it is not a layout of its own: a stored
// trie fails Open, Scrub and Repair with ErrVersionMismatch (rebuild it as
// a tree).
//
// # Persistence
//
// Every index has one versioned, checksummed manifest, whatever its
// partition count: its partitions' key-range boundaries and one layout per
// partition, committed whole, in one rename, after every build, insert that
// flushed, Sync, Flush and Close that changed it — so a Sync is all or
// nothing across partitions — and a failed commit fails every later write
// and Sync. Close leaves a fully durable index behind: a later
// process reopens it with Open, whatever its variant, and gets
// byte-identical answers without re-reading the raw dataset
// (LSM runs reopen from the run files themselves). Manifest commits are
// atomic (write-temp + rename), so a crash never leaves a torn manifest —
// at worst the last committed state reopens. On reopen, unset Config
// fields (series length, segments, data file) are adopted from the
// manifest; explicitly conflicting values fail loudly rather than misread
// the stored bytes. One stored format is read, manifest version 12, in
// which no stored file carries more than one integrity layer: CRC'd blocks
// for the leaf run of a tree (the sorted records, one file, whose blocks are
// its leaves), the run codec's own block, directory and footer CRCs for LSM
// runs, per-record CRCs (in a sidecar) for the raw dataset, and one CRC over
// the manifest, which is also where a Coconut-Tree names its run's
// generation and a Coconut-LSM keeps its run list and its one raw-file
// cursor. A tree insert
// merges into the next generation of its leaf run, which the manifest names
// at the next Sync, so a crash between Syncs reopens at the last one. Any
// other version fails Open, Scrub and Repair with ErrVersionMismatch
// (rebuild the index).
package coconut

import (
	"context"
	"errors"
	"fmt"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/partition"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

// Typed errors, re-exported so callers can branch on reopen and search
// failures with errors.Is.
var (
	// ErrCorruptManifest reports a manifest (or an index file it
	// describes) that failed checksum or structural validation.
	ErrCorruptManifest = manifest.ErrCorruptManifest
	// ErrVersionMismatch reports an index stored in a format this build
	// does not read: any manifest version but 12, whose files (a manifest
	// per partition beside a parent naming them before 12, a leaf capacity
	// and a tree leaf directory, and Coconut-Trie layouts, before 11, LSM
	// compaction cursors before 10, tree leaves on stamped B+-tree
	// pages before 9, LSM write-ahead logs before 8, tree directories in a
	// separate meta file before 7, LSM runs framed in checksum blocks before
	// 6, flat runs or padded trie leaves before 5) no reader here
	// understands. Rebuild the index (a trie as a tree).
	ErrVersionMismatch = manifest.ErrVersionMismatch
	// ErrConfigMismatch reports a Config that conflicts with the stored
	// index: a different summarization, dataset file, partition count or
	// variant.
	ErrConfigMismatch = manifest.ErrConfigMismatch
	// ErrCorruptData reports stored bytes that failed their block or
	// record checksum — bit rot, a torn write, or an overwritten file.
	// Every open and read path surfaces it via errors.Is; no query ever
	// computes an answer from bytes that failed verification.
	ErrCorruptData = storage.ErrCorruptData
	// ErrEmptyIndex reports a search of an index that holds no series.
	ErrEmptyIndex = core.ErrEmptyIndex
)

// Series is one data series: an ordered sequence of float64 values. Inputs
// are z-normalized automatically where the paper's pipeline requires it.
type Series = series.Series

// Storage abstracts the device the index lives on. Use NewMemStorage for
// an instrumented in-memory device (experiments, tests) or NewDiskStorage
// for real files.
type Storage = storage.FS

// IOStats is a snapshot of device I/O counters (sequential vs random reads
// and writes, bytes moved).
type IOStats = storage.Snapshot

// NewMemStorage returns an in-memory storage device with I/O accounting —
// the simulated disk used throughout the experiments.
func NewMemStorage() *storage.MemFS { return storage.NewMemFS() }

// NewDiskStorage returns a storage device backed by directory dir.
func NewDiskStorage(dir string) (Storage, error) { return storage.NewOSFS(dir) }

// DatasetKind names a built-in dataset generator.
type DatasetKind string

// Built-in dataset families (see internal/dataset for the definitions and
// the substitutions DESIGN.md documents for the paper's real datasets).
const (
	RandomWalk DatasetKind = "randomwalk"
	Seismic    DatasetKind = "seismic"
	Astronomy  DatasetKind = "astronomy"
	// Skewed draws series as Zipf-popular recurring shapes with regime
	// shifts — the clustered workload real collections exhibit, and the
	// one where block-compressed runs achieve their storage ratio.
	Skewed DatasetKind = "skewed"
)

// GenerateDataset writes count z-normalized series of length seriesLen to
// file name on fs, deterministically from seed.
func GenerateDataset(fs Storage, name string, kind DatasetKind, count, seriesLen int, seed int64) error {
	gen, err := dataset.ByName(string(kind))
	if err != nil {
		return err
	}
	_, err = dataset.WriteFile(fs, name, gen, count, seriesLen, seed)
	return err
}

// GenerateQueries draws count query series from the same family.
func GenerateQueries(kind DatasetKind, count, seriesLen int, seed int64) ([]Series, error) {
	gen, err := dataset.ByName(string(kind))
	if err != nil {
		return nil, err
	}
	return dataset.Queries(gen, count, seriesLen, seed), nil
}

// Config configures an index build.
type Config struct {
	// Storage hosts the dataset and index files.
	Storage Storage
	// Name prefixes the index files.
	Name string
	// DataFile is the raw dataset (headerless little-endian float64s).
	DataFile string
	// SeriesLen is the length of every series in the dataset.
	SeriesLen int
	// Segments is the SAX segment count (default 16, the paper's setting).
	Segments int
	// CardinalityBits is the bits per SAX symbol (default 8 → cardinality
	// 256).
	CardinalityBits int
	// Materialized stores raw series inside the index (the paper's "-Full"
	// variants): a bigger index, but queries never touch the dataset file.
	// They read each candidate record from the index's own leaf run, with
	// the scan every index uses, instead of from the dataset file.
	Materialized bool
	// MemoryBudget bounds construction memory in bytes (default 64 MiB).
	MemoryBudget int64
	// Workers is the number of concurrent workers used during index
	// construction — summarization, chunk sorting, run merging, and insert
	// summarization all fan out across them, with MemoryBudget partitioned
	// so the total stays within budget. 0 means runtime.GOMAXPROCS(0). The
	// built index is byte-identical for any value.
	Workers int
	// QueryWorkers is the per-query fan-out: the SIMS lower-bound pass and
	// the exact-search candidate-verification scan (any k) shard
	// across this many goroutines (LSM indexes also probe independent runs
	// concurrently). 0 means runtime.GOMAXPROCS(0). Search answers are
	// identical for any value; see the package-level Concurrency section
	// for how to choose it.
	QueryWorkers int
	// Partitions splits the index into N independent key-range partitions
	// (boundaries chosen from a dataset sample so partitions balance),
	// queried scatter-gather. The build sorts the dataset's summaries once
	// and writes the partitions one after another from that one sorted
	// stream, each from its key range. 0 or 1 builds a single index; Open
	// adopts the stored count when 0 and fails with ErrConfigMismatch when
	// the value conflicts with the stored index. Search answers are
	// byte-identical for any partition count.
	Partitions int
	// CacheBytes bounds the shared decoded-block cache an LSM index reads
	// its runs through (default 128 MiB): runs are block-compressed on disk
	// (sorted invSAX keys front-coded + delta-encoded, positions
	// delta-varint-encoded), so resident memory is O(cache budget) rather
	// than O(dataset) and indexes larger than RAM open and answer.
	// Tree indexes are unaffected. One cache serves all runs,
	// partitions, and concurrent queries of the handle; CacheStats reports
	// its hit/miss/eviction counters for sizing. Exact searches sweep every
	// block of every run: they cache a block only where there is room and
	// otherwise decode it in passing (CacheStats.ScanDecodes), so a budget
	// below the decoded key set (24 bytes per series) slows them without
	// disturbing the blocks approximate searches keep resident.
	CacheBytes int64
}

func (c *Config) toCore() (core.Options, error) {
	if c.Storage == nil {
		return core.Options{}, errors.New("coconut: nil Storage")
	}
	if c.SeriesLen <= 0 {
		return core.Options{}, errors.New("coconut: SeriesLen must be positive")
	}
	if c.Partitions < 0 {
		return core.Options{}, fmt.Errorf("coconut: Partitions must be non-negative, got %d", c.Partitions)
	}
	p := summary.Params{SeriesLen: c.SeriesLen, Segments: c.Segments, CardBits: c.CardinalityBits}
	if p.Segments == 0 {
		p.Segments = 16
	}
	if p.CardBits == 0 {
		p.CardBits = 8
	}
	if p.Segments > c.SeriesLen {
		p.Segments = c.SeriesLen
	}
	s, err := summary.NewSummarizer(p)
	if err != nil {
		return core.Options{}, fmt.Errorf("coconut: %w", err)
	}
	return core.Options{
		FS:             c.Storage,
		Name:           c.Name,
		S:              s,
		RawName:        c.DataFile,
		Materialized:   c.Materialized,
		MemBudgetBytes: c.MemoryBudget,
		Workers:        c.Workers,
		QueryWorkers:   c.QueryWorkers,
	}, nil
}

// mergeStored loads the manifest of the persisted index cfg names and
// adopts it (adoptStored); the manifest is what partition.Open checks the
// rest of cfg against, so reopening reads it once.
func (c *Config) mergeStored() (*manifest.Manifest, error) {
	if c.Storage == nil {
		return nil, errors.New("coconut: nil Storage")
	}
	m, err := manifest.Load(c.Storage, c.Name)
	if err != nil {
		return nil, fmt.Errorf("coconut: loading manifest for %q: %w", c.Name, err)
	}
	c.adoptStored(m)
	return m, nil
}

// adoptStored adopts the parameters of the stored index m into unset Config
// fields, so reopening needs only Storage and Name. Explicitly set fields
// are left alone — the Open paths fail loudly (ErrConfigMismatch) if they
// conflict with the store, as they do for a stored index of another
// partition count than a non-zero cfg.Partitions.
func (c *Config) adoptStored(m *manifest.Manifest) {
	if c.SeriesLen == 0 {
		c.SeriesLen = m.SeriesLen
	}
	if c.Segments == 0 {
		c.Segments = m.Segments
	}
	if c.CardinalityBits == 0 {
		c.CardinalityBits = m.CardBits
	}
	if c.DataFile == "" {
		c.DataFile = m.RawName
	}
	// Materialization is a property of the stored bytes, not a knob.
	c.Materialized = m.Materialized
}

// Result is a search answer.
type Result struct {
	// Position is the ordinal of the nearest series in the dataset file.
	Position int64
	// Distance is its Euclidean distance to the query.
	Distance float64
	// VisitedSeries counts how many raw series were examined.
	VisitedSeries int64
	// VisitedLeaves counts the leaves of a tree — the checksum blocks of
	// its leaf run, each a disk page of whole records — that an approximate
	// search's window spans (0 for an LSM, which has none). Every search
	// reads candidate records, not leaves: an exact search's verification
	// adds nothing, so it reports the leaves its seeding window (radius 1)
	// spans.
	VisitedLeaves int64
}

func fromCore(r core.Result) Result {
	return Result{
		Position:      r.Pos,
		Distance:      r.Dist,
		VisitedSeries: r.VisitedRecords,
		VisitedLeaves: r.VisitedLeaves,
	}
}

// Variant names one of the two index layouts.
type Variant string

// The index layouts: one sorted array of invSAX summaries each, answered by
// the same query path.
const (
	// Tree is Coconut-Tree: balanced, contiguous, densely packed — the
	// paper's recommended design. It takes inserts, durable at Sync.
	Tree Variant = "tree"
	// LSM is Coconut-LSM, the paper's future-work design for update-heavy
	// workloads: inserts land in a memtable and flush as immutable sorted
	// runs; full tiers compact inline (see the package-level Write path
	// section).
	LSM Variant = "lsm"
)

// Index is a Coconut index of any Variant. With Config.Partitions >= 2 it is
// an N-way key-range-partitioned composition of such indexes, written from
// one sort and queried scatter-gather with byte-identical answers. Every
// Index answers every search and takes inserts; Flush, which only an LSM
// has, fails on a tree with an error that matches errors.ErrUnsupported.
// Build and Open make one; the typed names TreeIndex and LSMIndex, and their
// constructors, are kept for callers that use them.
type Index struct {
	// ix is the one internal index: the composite of Config.Partitions
	// children, one when unpartitioned.
	ix        *partition.Composite
	variant   Variant
	seriesLen int
}

// TreeIndex is Index under the name of the typed constructors, kept for
// callers that use them.
type TreeIndex = Index

// TrieIndex is kept only because bench/e2e names it; ROADMAP.md item 14
// deletes it.
type TrieIndex = Index

// LSMIndex is an Index of the LSM variant under the name of the typed
// constructors, kept for callers that use them. It differs from Index only
// in its approximate search, which takes no radius and searches at radius 2.
type LSMIndex struct{ *Index }

// Build bulk-loads an index of variant v over the dataset cfg names.
// Cancellation is coarse-grained: ctx is checked before the build starts and
// after it finishes — a build that finishes under a done ctx closes the fresh
// index and returns ctx.Err() — but the bulk load, sequential passes of bulk
// I/O, is not interrupted mid-pass.
func Build(ctx context.Context, cfg Config, v Variant) (*Index, error) {
	return cfg.index(ctx, v, false)
}

// Open reopens the index previously built (and Closed) under cfg.Name over
// cfg.Storage, of whichever variant its manifest records, without touching
// the raw dataset: a tree's summary array comes from its leaf run, an
// LSM's runs from the run files themselves (its run list is its compaction
// schedule, so later Inserts continue the flush/compaction sequence a
// never-closed index would have produced). Every partition reopens from its
// layout in the index's one manifest, never partially. Unset Config fields
// are adopted from the manifest; conflicting ones fail with
// ErrConfigMismatch. ctx is checked
// before the manifest is read and after the reopen, as in Build.
func Open(ctx context.Context, cfg Config) (*Index, error) {
	return cfg.index(ctx, "", true)
}

// index is the one way an index comes to be: it bulk-loads — or, with
// reopen, reopens from the manifest — the composite of cfg.Partitions
// indexes of variant v that cfg names, one when unpartitioned. A reopen
// with v set fails with ErrConfigMismatch over a stored index of another
// variant.
func (c Config) index(ctx context.Context, v Variant, reopen bool) (*Index, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var m *manifest.Manifest
	if reopen {
		var err error
		if m, err = c.mergeStored(); err != nil {
			return nil, err
		}
		stored := Variant(m.Variant)
		if v != "" && v != stored {
			return nil, fmt.Errorf("coconut: %w: stored index is a %s index, not %s", ErrConfigMismatch, stored, v)
		}
		v = stored
	}
	opt, err := c.toCore()
	if err != nil {
		return nil, err
	}
	pv, err := c.variant(v, opt)
	if err != nil {
		return nil, err
	}
	var ix *partition.Composite
	if reopen {
		ix, err = partition.Open(pv, c.Partitions, m)
	} else {
		ix, err = partition.Build(pv, c.Partitions, nil)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		ix.Close()
		return nil, err
	}
	return &Index{ix: ix, variant: v, seriesLen: c.SeriesLen}, nil
}

// variant is the internal index kind v over opt, cfg's core options.
func (c Config) variant(v Variant, opt core.Options) (partition.Variant, error) {
	switch v {
	case Tree:
		return partition.TreeVariant(opt), nil
	case LSM:
		return partition.LSMVariant(c.toLSM(opt)), nil
	}
	return partition.Variant{}, fmt.Errorf("coconut: unknown index variant %q (want tree or lsm)", v)
}

// toLSM derives the LSM option set from the resolved core options. The
// block cache is created here — once per handle — so a partitioned index's
// children (which copy these options) all read through the same cache.
func (c *Config) toLSM(opt core.Options) lsm.Options {
	return lsm.Options{
		FS:             opt.FS,
		Name:           opt.Name,
		S:              opt.S,
		RawName:        opt.RawName,
		MemBudgetBytes: opt.MemBudgetBytes,
		Workers:        opt.Workers,
		QueryWorkers:   opt.QueryWorkers,
		Cache:          blockcache.New(c.CacheBytes),
	}
}

// lsmIndex wraps a Build or Open of the LSM variant.
func lsmIndex(ix *Index, err error) (*LSMIndex, error) {
	if err != nil {
		return nil, err
	}
	return &LSMIndex{ix}, nil
}

// The typed constructors are Build and Open of one variant, kept for callers
// that use them; a typed Open fails with ErrConfigMismatch over a stored
// index of another variant.

// BuildTreeIndex is Build of a Tree under context.Background().
func BuildTreeIndex(cfg Config) (*TreeIndex, error) { return Build(context.Background(), cfg, Tree) }

// OpenTreeIndex is Open of a stored Tree under context.Background().
func OpenTreeIndex(cfg Config) (*TreeIndex, error) {
	return cfg.index(context.Background(), Tree, true)
}

// BuildTrieIndex is BuildTreeIndex, kept only because bench/e2e names it;
// ROADMAP.md item 14 deletes it.
func BuildTrieIndex(cfg Config) (*TrieIndex, error) { return Build(context.Background(), cfg, Tree) }

// OpenTrieIndex is OpenTreeIndex, kept only because bench/e2e names it;
// ROADMAP.md item 14 deletes it.
func OpenTrieIndex(cfg Config) (*TrieIndex, error) {
	return cfg.index(context.Background(), Tree, true)
}

// BuildLSMIndex is Build of an LSM under context.Background().
func BuildLSMIndex(cfg Config) (*LSMIndex, error) {
	return lsmIndex(Build(context.Background(), cfg, LSM))
}

// OpenLSMIndex is Open of a stored LSM under context.Background().
func OpenLSMIndex(cfg Config) (*LSMIndex, error) {
	return lsmIndex(cfg.index(context.Background(), LSM, true))
}

// Variant returns the index's layout.
func (x *Index) Variant() Variant { return x.variant }

// SeriesLen returns the length of every indexed series.
func (x *Index) SeriesLen() int { return x.seriesLen }

// Search returns the exact nearest neighbor of q (CoconutTreeSIMS): it is
// SearchKNN with k = 1, so an exact distance tie goes to the lowest
// position, as it does on every index type and partition count.
func (x *Index) Search(q Series) (Result, error) { return x.SearchCtx(context.Background(), q) }

// SearchCtx is Search with cancellation: the query observes ctx between
// run probes and candidate reads (across every
// partition), so a cancelled or expired ctx returns ctx.Err() promptly —
// never a partial answer.
func (x *Index) SearchCtx(ctx context.Context, q Series) (Result, error) {
	r, err := x.ix.ExactSearch(ctx, q)
	return fromCore(r), err
}

// SearchApprox returns a fast approximate nearest neighbor (Algorithm 4)
// from the summaries of every partition. Every type evaluates 32×(radius+1)
// records around the query's sort position; exact search seeds from radius
// 1. A negative radius means 0, and a window past the indexed count covers
// every series.
func (x *Index) SearchApprox(q Series, radius int) (Result, error) {
	return x.SearchApproxCtx(context.Background(), q, radius)
}

// SearchApproxCtx is SearchApprox with cancellation (see SearchCtx).
func (x *Index) SearchApproxCtx(ctx context.Context, q Series, radius int) (Result, error) {
	r, err := x.ix.ApproxSearch(ctx, q, radius)
	return fromCore(r), err
}

// SearchApprox is Index.SearchApprox at radius 2 (96 records, the closest to
// the LSM's former 100), kept for callers of the typed handle (ROADMAP.md).
func (l *LSMIndex) SearchApprox(q Series) (Result, error) { return l.Index.SearchApprox(q, 2) }

// SearchApproxCtx is Index.SearchApproxCtx at radius 2, as SearchApprox.
func (l *LSMIndex) SearchApproxCtx(ctx context.Context, q Series) (Result, error) {
	return l.Index.SearchApproxCtx(ctx, q, 2)
}

// Neighbor is one SearchKNN answer.
type Neighbor struct {
	// Position is the series' ordinal in the dataset file.
	Position int64
	// Distance is its Euclidean distance to the query.
	Distance float64
}

// SearchKNN returns the k exact nearest neighbors of q, ranked by distance
// and, on an exact tie, by position; k < 1 means 1, and a k past the
// indexed count returns every series. It is the one exact search every
// index type runs, Search being k = 1; an LSM's memtable is included.
func (x *Index) SearchKNN(q Series, k int) ([]Neighbor, error) {
	return x.SearchKNNCtx(context.Background(), q, k)
}

// SearchKNNCtx is SearchKNN with cancellation (see SearchCtx): a done ctx
// returns ctx.Err(), never a truncated neighbor list.
func (x *Index) SearchKNNCtx(ctx context.Context, q Series, k int) ([]Neighbor, error) {
	ns, _, err := x.ix.ExactSearchKNN(ctx, q, k)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(ns))
	for i, n := range ns {
		out[i] = Neighbor{Position: n.Pos, Distance: n.Dist}
	}
	return out, nil
}

// Insert adds new series to the dataset and the index: a tree merges them
// into its leaf run, durable at the next Sync; an LSM adds them to its
// memtable, flushes full memtables to new sorted runs and compacts full
// tiers inline, and returns once the raw log committed the batch (a failed
// fsync is returned here and by every later Insert, Flush and Sync; a
// failed compaction merge is retried later, not returned).
func (x *Index) Insert(batch []Series) error { return x.InsertCtx(context.Background(), batch) }

// InsertCtx is Insert with admission control: ctx is checked before any
// bytes move, so a done ctx rejects the batch up front with ctx.Err(). Once
// the batch is admitted it is routed to completion — aborting a routed
// multi-partition insert midway would leave the dataset and index out of
// step. An LSM insert whose ctx expires while it waits on the raw log's
// group commit returns ctx.Err() without disturbing the batch: the records
// still become durable; only this caller stops waiting.
func (x *Index) InsertCtx(ctx context.Context, batch []Series) error {
	return x.ix.Insert(ctx, batch)
}

// Flush forces an LSM's memtable to disk and lands every ready compaction,
// retrying any merge an earlier Insert could not complete; it returns a
// merge that still fails. A tree has no memtable to flush: Flush on a tree
// fails with an error that matches errors.ErrUnsupported.
func (x *Index) Flush() error { return x.ix.Flush() }

// Sync persists what Insert made stale, so a crash afterwards loses
// nothing: a tree's inserted series (a commit of the raw log), then the
// leaf runs they were merged into and the one manifest that names them all
// — a crash before it reopens at the previous Sync, in every partition; an
// LSM's memtable and every ready compaction, after which the on-disk state
// is the deterministic function of the inserts so far. Close syncs too.
func (x *Index) Sync() error { return x.ix.Sync() }

// Count returns the number of indexed series.
func (x *Index) Count() int64 { return x.ix.Count() }

// NumLeaves returns the number of leaves of a tree: the checksum blocks of
// its leaf run, each about 4 KiB of whole records (summed over partitions).
func (x *Index) NumLeaves() int { return x.ix.Shape().Leaves }

// LeafFill returns the mean leaf occupancy in [0,1] of a tree: every leaf
// but the last of each run is full, so it falls short of 1 by the last
// leaves' free records alone.
func (x *Index) LeafFill() float64 { return x.ix.Shape().LeafFill }

// NumRuns returns the number of an LSM's on-disk sorted runs.
func (x *Index) NumRuns() int { return x.ix.Shape().Runs }

// SizeBytes returns the on-device index size.
func (x *Index) SizeBytes() int64 { return x.ix.SizeBytes() }

// CacheStats is a snapshot of the shared decoded-block cache's counters:
// hits, misses, evictions, scan decodes (blocks an exact search decoded
// without caching them: non-zero means the budget is smaller than the
// index's decoded keys), resident bytes, and the configured budget.
type CacheStats = blockcache.Stats

// CacheStats reports the handle's block-cache counters — one cache serves
// all runs and partitions of an LSM, so these are whole-index numbers; a
// tree reads none and reports zeros. Use the hit/miss ratio under
// a representative query load to size Config.CacheBytes.
func (x *Index) CacheStats() CacheStats { return x.ix.CacheStats() }

// Close syncs (an LSM: flushes the memtable, lands every ready compaction,
// returning a merge that still fails; see Sync) and releases the index's
// file handles; the index can later be reopened with Open.
func (x *Index) Close() error { return x.ix.Close() }

// ZNormalize z-normalizes s in place and returns it. Queries against the
// built-in generators' datasets should be z-normalized.
func ZNormalize(s Series) Series { return s.ZNormalize() }

// Distance returns the Euclidean distance between two equal-length series.
func Distance(a, b Series) (float64, error) { return series.ED(a, b) }
