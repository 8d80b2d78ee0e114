// Package coconut is the public API of the Coconut data series indexing
// library — a from-scratch reproduction of "Coconut: A Scalable Bottom-Up
// Approach for Building Data Series Indexes" (VLDB 2018).
//
// Coconut indexes fixed-length, z-normalized data series for fast nearest
// neighbor search under Euclidean distance. Its key idea is a SORTABLE
// summarization: the bits of a SAX word are interleaved (z-order) so that
// sorting the summaries keeps similar series adjacent, which unlocks
// bottom-up bulk loading — a few sequential passes instead of per-series
// random I/O — and median-based splitting, which packs leaves densely.
//
// # Quick start
//
//	fs := coconut.NewMemStorage()           // or NewDiskStorage(dir)
//	coconut.GenerateDataset(fs, "data.bin", coconut.RandomWalk, 100000, 256, 1)
//	idx, err := coconut.BuildTreeIndex(coconut.Config{
//	    Storage:   fs,
//	    Name:      "myindex",
//	    DataFile:  "data.bin",
//	    SeriesLen: 256,
//	})
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
// guarded internally. Mutations (Insert, Flush, Close) serialize against
// in-flight queries through a handle-level reader-writer lock, so they may
// be issued concurrently with queries too — they simply wait for readers
// and vice versa.
//
// Within a single query, the library shards the heavy phases of SIMS exact
// search across Config.QueryWorkers goroutines: the lower-bound pass over
// the in-memory summaries, the candidate-verification scan of both 1-NN and
// k-NN search (by leaf range when materialized, by raw-file position range
// otherwise, with deterministic per-shard bounds reduced in shard order),
// and — for LSM indexes — the per-run probes of multi-run queries.
// QueryWorkers = 0 uses all CPUs; the answers (positions, distances) are
// identical for any setting, so it is purely a latency knob. For maximum
// throughput under many concurrent queries, QueryWorkers = 1 avoids
// oversubscription; for minimum single-query latency, leave it 0.
//
// # Write path
//
// Index construction is parallel end to end: raw series are summarized in
// blocks on Config.Workers goroutines (the batched pipeline feeding run
// formation in order), the external sort forms and merges runs across the
// same workers, and the built index is byte-identical for any worker count.
//
// LSM ingest (Insert on an LSMIndex) appends raw bytes, summarizes each
// batch across Workers goroutines, and flushes full memtables as sorted
// runs. Every Insert returns only after its raw bytes and a write-ahead-log
// record are fsynced (concurrent inserts share one fsync via group commit),
// and reopening after a crash replays un-flushed records into the memtable;
// partitioned indexes keep one WAL per partition.
//
// By default tier compactions run synchronously inside Insert/Flush;
// setting Config.BackgroundCompaction moves them to a pool of
// Config.CompactionWorkers goroutines that merge full tiers concurrently —
// independent tiers compact in parallel — and swap results in under the
// handle lock, keeping Insert latency flat under sustained load. A bounded
// tier-0 backlog provides backpressure: when flushes outrun the pool,
// Insert briefly blocks rather than burying the scheduler. Sync (or Close)
// is the quiescence barrier: it drains in-flight compactions, after which
// the on-disk state is byte-identical to synchronous compaction — a
// background compaction failure is sticky and surfaces on the next
// Insert/Flush/Sync/Close.
//
// # Cancellation
//
// Every query and mutation has a context-taking variant (SearchCtx,
// SearchApproxCtx, SearchKNNCtx, InsertCtx, and ctx-taking Build/Open
// wrappers). Cancellation is honored end to end: a query observes its
// context between leaf visits, candidate verifications, partition probes,
// and LSM run probes, so a cancelled or deadline-exceeded context returns
// ctx.Err() promptly — never a partial or wrong answer. On the write path
// the context is admission control: it is checked before any bytes move,
// and an LSM insert whose context expires while waiting for WAL group
// commit abandons the wait (returning ctx.Err()) without disturbing the
// batch — the record still becomes durable. The context-free methods are
// exactly their Ctx counterparts under context.Background(); below this
// package there are no such pairs — everything takes its context first.
//
// # One index, three layouts
//
// Coconut-Tree, -Trie and -LSM are one family: a sorted array of invSAX
// summaries answered by the same two steps, an approximate window that
// seeds a best-so-far and a SIMS verification pass under it. TreeIndex,
// TrieIndex and LSMIndex therefore all hold the same internal interface
// (internal/partition.Index), built and opened through one helper: the
// index itself when unpartitioned, and with Config.Partitions >= 2 the one
// partitioned composite over N children of the variant. What only some
// variants can do — k-NN, inserts, LSM housekeeping — is an optional
// capability of that interface, present on a composite exactly when its
// children have it.
//
// # Persistence
//
// Every build commits a versioned, checksummed manifest alongside the
// index files, and Close leaves a fully durable index behind: a later
// process reopens it with OpenTreeIndex, OpenTrieIndex, or OpenLSMIndex
// and gets byte-identical answers without re-reading the raw dataset
// (LSM runs reopen from the run files themselves). Manifest commits are
// atomic (write-temp + rename), so a crash never leaves a torn manifest —
// at worst the last committed state reopens. On reopen, unset Config
// fields (series length, segments, leaf size, data file) are adopted from
// the manifest; explicitly conflicting values fail loudly rather than
// misread the stored bytes. One stored format is read — manifest version
// 5, checksummed blocks, block-compressed LSM runs: anything else fails
// Open, Scrub and Repair with ErrVersionMismatch (rebuild the index).
package coconut

import (
	"context"
	"errors"
	"fmt"
	"time"

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

// Typed persistence errors, re-exported so callers can branch on reopen
// failures with errors.Is.
var (
	// ErrCorruptManifest reports a manifest (or an index file it
	// describes) that failed checksum or structural validation.
	ErrCorruptManifest = manifest.ErrCorruptManifest
	// ErrVersionMismatch reports an index stored in a format this build
	// does not read: another manifest version, or a layout without block
	// checksums or with uncompressed LSM runs. Rebuild the index.
	ErrVersionMismatch = manifest.ErrVersionMismatch
	// ErrConfigMismatch reports a Config that conflicts with the stored
	// index (different summarization, materialization, or dataset file).
	ErrConfigMismatch = manifest.ErrConfigMismatch
	// ErrCorruptData reports stored bytes that failed their block or
	// record checksum — bit rot, a torn write, or an overwritten file.
	// Every open and read path surfaces it via errors.Is; no query ever
	// computes an answer from bytes that failed verification.
	ErrCorruptData = storage.ErrCorruptData
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
	// LeafSize is the records-per-leaf capacity (default 2000).
	LeafSize int
	// Materialized stores raw series inside the index (the paper's "-Full"
	// variants): bigger index, but queries never touch the dataset file.
	Materialized bool
	// MemoryBudget bounds construction memory in bytes (default 64 MiB).
	MemoryBudget int64
	// FillFactor packs Coconut-Tree leaves to this fraction on bulk load
	// (default 1.0). Leave headroom (< 1.0) for update-heavy workloads.
	FillFactor float64
	// Workers is the number of concurrent workers used during index
	// construction — chunk sorting, run merging, and (LSM) ingest
	// summarization all fan out across them, with MemoryBudget partitioned
	// so the total stays within budget. 0 means runtime.NumCPU(). The
	// built index is byte-identical for any value.
	Workers int
	// QueryWorkers is the per-query fan-out: the SIMS lower-bound pass and
	// the exact-search candidate-verification scan (1-NN and k-NN) shard
	// across this many goroutines (LSM indexes also probe independent runs
	// concurrently). 0 means all CPUs. Search answers are identical for any
	// value; see the package-level Concurrency section for how to choose it.
	QueryWorkers int
	// BackgroundCompaction (LSM indexes) moves tier compactions off the
	// write path onto a background pool, keeping Insert latency flat;
	// see the package-level Write path section. Sync/Close drain the pool.
	BackgroundCompaction bool
	// CompactionWorkers sizes the background compaction pool (default 2).
	// Independent tiers compact concurrently, so 2+ lets a long high-tier
	// merge overlap fresh tier-0 merges.
	CompactionWorkers int
	// MaxPendingRuns bounds the outstanding tier-0 runs under background
	// compaction (default 2x the LSM fanout): when flushes outrun the pool,
	// Insert briefly blocks instead of letting runs pile up unboundedly.
	// Partitioned indexes divide this budget across partitions.
	MaxPendingRuns int
	// Partitions splits the index into N independent key-range partitions
	// (boundaries chosen from a dataset sample so partitions balance),
	// built in parallel and queried scatter-gather. 0 or 1 builds a single
	// index; Open adopts the stored count when 0 and fails with
	// ErrConfigMismatch when the value conflicts with the stored index.
	// Search answers are byte-identical for any partition count.
	Partitions int
	// WALGroupWindow optionally stretches each WAL group commit by this
	// duration before the fsync, admitting more concurrent inserts into
	// the batch — higher throughput at the cost of added latency per
	// insert. 0 (the default) syncs as soon as the committer picks up a
	// batch.
	WALGroupWindow time.Duration
	// CacheBytes bounds the shared decoded-block cache an LSM index reads
	// its runs through (default 128 MiB): runs are block-compressed on disk
	// (sorted invSAX keys front-coded + delta-encoded, positions
	// delta-varint-encoded), so resident memory is O(cache budget) rather
	// than O(dataset) and indexes larger than RAM open and answer.
	// Tree/Trie indexes are unaffected. One cache serves all runs,
	// partitions, and concurrent queries of the handle; CacheStats reports
	// its hit/miss/eviction counters for sizing. Exact searches sweep every
	// block of every run: they cache a block only where there is room and
	// otherwise decode it in passing (CacheStats.ScanDecodes), so a budget
	// below the decoded key set (24 bytes per series) slows them without
	// disturbing the blocks approximate searches keep resident.
	CacheBytes int64
	// AllowDegraded lets Open succeed over a partially corrupt index:
	// an unreadable LSM run or partition child is quarantined and queries
	// answer over the healthy remainder (Degraded() reports the state,
	// Count() the records still covered). Writes routed to a quarantined
	// partition fail loudly. Without it, corruption fails Open with
	// ErrCorruptData. LSM quarantined runs are repairable in place with
	// Repair (the raw dataset re-derives them).
	AllowDegraded bool
	// ReadRetries re-attempts transient device read errors this many times
	// (exponential backoff starting at RetryBackoff) before the error
	// turns sticky for the handle. Deterministic failures — checksum
	// mismatches, missing files — are never retried. 0 disables retries.
	ReadRetries int
	// RetryBackoff is the initial retry delay (default 1ms), doubling per
	// attempt.
	RetryBackoff time.Duration
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
	leaf := c.LeafSize
	if leaf == 0 {
		leaf = 2000
	}
	fs := c.Storage
	if c.ReadRetries > 0 {
		fs = storage.NewRetryFS(fs, storage.RetryPolicy{Retries: c.ReadRetries, Backoff: c.RetryBackoff})
	}
	return core.Options{
		FS:             fs,
		Name:           c.Name,
		S:              s,
		RawName:        c.DataFile,
		Materialized:   c.Materialized,
		LeafCap:        leaf,
		MemBudgetBytes: c.MemoryBudget,
		FillFactor:     c.FillFactor,
		Workers:        c.Workers,
		QueryWorkers:   c.QueryWorkers,
		// Every persistent artifact (B+-tree pages, trie leaves, LSM run
		// files, and a sidecar for the raw dataset) is checksummed and
		// verified on read.
		Checksums: true,
	}, nil
}

// mergeStored loads the manifest of the persisted index cfg names and
// adopts stored parameters into unset Config fields, so reopening needs
// only Storage and Name. Explicitly set fields are left alone — the Open
// paths fail loudly (ErrConfigMismatch) if they conflict with the store.
// want is the single-partition variant; a stored PARTITIONED index whose
// children are that variant is accepted too, reported through the
// partitioned return (with cfg.Partitions adopted or cross-checked).
func (c *Config) mergeStored(want manifest.Variant) (partitioned bool, err error) {
	if c.Storage == nil {
		return false, errors.New("coconut: nil Storage")
	}
	m, err := core.LoadManifest(c.Storage, c.Name)
	if err != nil {
		return false, err
	}
	if err := checkStoredFormat(m); err != nil {
		return false, err
	}
	switch {
	case m.Variant == want:
		if c.Partitions >= 2 {
			return false, fmt.Errorf("coconut: %w: Partitions=%d, stored index is not partitioned",
				ErrConfigMismatch, c.Partitions)
		}
	case m.Variant == manifest.VariantPartitioned && m.Part != nil && m.Part.ChildVariant == want:
		if c.Partitions != 0 && c.Partitions != m.Part.Partitions {
			return false, fmt.Errorf("coconut: %w: Partitions=%d, stored index has %d partitions",
				ErrConfigMismatch, c.Partitions, m.Part.Partitions)
		}
		c.Partitions = m.Part.Partitions
		partitioned = true
	default:
		if err := m.CheckVariant(want); err != nil {
			return false, fmt.Errorf("coconut: %w", err)
		}
	}
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
	if c.LeafSize == 0 && m.LeafCap != 0 {
		c.LeafSize = m.LeafCap
	}
	// Materialization is a property of the stored bytes, not a knob.
	c.Materialized = m.Materialized
	return partitioned, nil
}

// checkStoredFormat refuses an index stored without block checksums: no
// public build writes one, and reads of it would go unverified. (Manifests
// of other versions, and LSM manifests with uncompressed runs, are already
// refused by the decoder.)
func checkStoredFormat(m *manifest.Manifest) error {
	if !m.Checksums {
		return fmt.Errorf("coconut: %w: index is stored without block checksums (rebuild the index)", ErrVersionMismatch)
	}
	return nil
}

// Result is a search answer.
type Result struct {
	// Position is the ordinal of the nearest series in the dataset file.
	Position int64
	// Distance is its Euclidean distance to the query.
	Distance float64
	// VisitedSeries counts how many raw series were examined.
	VisitedSeries int64
	// VisitedLeaves counts index leaf pages read.
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

// TreeIndex is a Coconut-Tree index: balanced, contiguous, densely packed —
// the paper's recommended design. With Config.Partitions >= 2 it is an
// N-way key-range-partitioned composition of such trees, built in parallel
// and queried scatter-gather with byte-identical answers.
type TreeIndex struct {
	// ix is the one internal index interface: the tree itself when
	// unpartitioned, the partitioned composite of trees otherwise (the same
	// holds for TrieIndex and LSMIndex). Both answer byte-identically.
	ix partition.Index
}

// ctxGate implements the coarse-grained cancellation contract of the
// Build*/Open* Ctx wrappers: the context is checked at entry (before any
// file is touched) and again after the phase completes — a build/open that
// finishes under an already-done ctx closes the fresh handle and returns
// ctx.Err(). Construction itself is not interrupted mid-pass; its phases
// are sequential bulk I/O, and a cancelled caller loses nothing but time
// already spent.
func ctxGate(ctx context.Context, build func() (partition.Index, error)) (partition.Index, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix, err := build()
	if err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		ix.Close()
		return nil, cerr
	}
	return ix, nil
}

// index is the one way an index comes to be: it bulk-loads — or, with
// reopen, reopens from the manifest — the index cfg names as variant kind,
// the index itself when unpartitioned and the composite of cfg.Partitions of
// them otherwise.
func (c Config) index(ctx context.Context, kind manifest.Variant, reopen bool) (partition.Index, error) {
	partitioned := c.Partitions >= 2
	if reopen {
		var err error
		if partitioned, err = c.mergeStored(kind); err != nil {
			return nil, err
		}
	}
	opt, err := c.toCore()
	if err != nil {
		return nil, err
	}
	var v partition.Variant
	switch kind {
	case manifest.VariantTree:
		v = partition.TreeVariant(opt, c.AllowDegraded)
	case manifest.VariantTrie:
		v = partition.TrieVariant(opt, c.AllowDegraded)
	default:
		v = partition.LSMVariant(c.toLSM(opt))
	}
	return ctxGate(ctx, func() (partition.Index, error) {
		switch {
		case !partitioned && reopen:
			return v.Open()
		case !partitioned:
			return v.Build()
		}
		build := partition.Build
		if reopen {
			build = partition.Open
		}
		ix, err := build(v, c.Partitions)
		if err != nil {
			return nil, err
		}
		return ix, nil
	})
}

// BuildTreeIndex bulk-loads a Coconut-Tree over the dataset.
func BuildTreeIndex(cfg Config) (*TreeIndex, error) {
	return BuildTreeIndexCtx(context.Background(), cfg)
}

// BuildTreeIndexCtx is BuildTreeIndex with coarse-grained cancellation:
// ctx is checked before the build starts and after it finishes (see
// ctxGate); it does not interrupt the bulk-load mid-pass.
func BuildTreeIndexCtx(ctx context.Context, cfg Config) (*TreeIndex, error) {
	ix, err := cfg.index(ctx, manifest.VariantTree, false)
	if err != nil {
		return nil, err
	}
	return &TreeIndex{ix: ix}, nil
}

// OpenTreeIndex reopens a Coconut-Tree previously built (and Closed) over
// cfg.Storage, reconstructing the handle from the persisted manifest and
// B+-tree without touching the raw dataset. A partitioned tree reopens
// through its parent manifest (child by child, never partially). Unset
// Config fields are adopted from the manifest; conflicting ones fail with
// ErrConfigMismatch.
func OpenTreeIndex(cfg Config) (*TreeIndex, error) {
	return OpenTreeIndexCtx(context.Background(), cfg)
}

// OpenTreeIndexCtx is OpenTreeIndex with coarse-grained cancellation:
// ctx is checked before the manifest is read and after the handle is
// reconstructed (see ctxGate); the reopen is not interrupted mid-pass.
func OpenTreeIndexCtx(ctx context.Context, cfg Config) (*TreeIndex, error) {
	ix, err := cfg.index(ctx, manifest.VariantTree, true)
	if err != nil {
		return nil, err
	}
	return &TreeIndex{ix: ix}, nil
}

// Search returns the exact nearest neighbor of q (CoconutTreeSIMS).
func (t *TreeIndex) Search(q Series) (Result, error) {
	return t.SearchCtx(context.Background(), q)
}

// SearchCtx is Search with cancellation: the query observes ctx between
// leaf visits and candidate verifications (across every partition), so a
// cancelled or expired ctx returns ctx.Err() promptly — never a partial
// answer.
func (t *TreeIndex) SearchCtx(ctx context.Context, q Series) (Result, error) {
	r, err := t.ix.ExactSearch(ctx, q, 1)
	return fromCore(r), err
}

// SearchApprox returns a fast approximate nearest neighbor, examining the
// target leaf plus radius neighbors on each side (Algorithm 4).
func (t *TreeIndex) SearchApprox(q Series, radius int) (Result, error) {
	return t.SearchApproxCtx(context.Background(), q, radius)
}

// SearchApproxCtx is SearchApprox with cancellation (see SearchCtx).
func (t *TreeIndex) SearchApproxCtx(ctx context.Context, q Series, radius int) (Result, error) {
	r, err := t.ix.ApproxSearch(ctx, q, radius)
	return fromCore(r), err
}

// Insert adds new series to the index and dataset (batched; sorting the
// batch internally concentrates leaf touches).
func (t *TreeIndex) Insert(batch []Series) error { return t.InsertCtx(context.Background(), batch) }

// InsertCtx is Insert with admission control: ctx is checked before any
// bytes move, so a done ctx rejects the batch up front with ctx.Err().
// Once the batch is admitted it runs to completion — aborting a routed
// multi-partition insert midway would leave the dataset and index out of
// step.
func (t *TreeIndex) InsertCtx(ctx context.Context, batch []Series) error {
	return t.ix.(partition.Inserter).Insert(ctx, batch)
}

// Count returns the number of indexed series.
func (t *TreeIndex) Count() int64 { return t.ix.Count() }

// NumLeaves returns the number of leaf pages.
func (t *TreeIndex) NumLeaves() int { return t.ix.Shape().Leaves }

// LeafFill returns the mean leaf occupancy in [0,1].
func (t *TreeIndex) LeafFill() float64 { return t.ix.Shape().LeafFill }

// SizeBytes returns the on-device index size.
func (t *TreeIndex) SizeBytes() int64 { return t.ix.SizeBytes() }

// Degraded reports whether the index was opened with AllowDegraded over
// corrupt artifacts: some partitions are quarantined and answers cover
// only the healthy remainder (Count() says how many records that is).
func (t *TreeIndex) Degraded() bool { return t.ix.Degraded() }

// Sync persists metadata made stale by Insert (the B+-tree directory and
// the manifest) so a crash afterwards loses nothing. Close syncs too.
func (t *TreeIndex) Sync() error { return t.ix.Sync() }

// Close persists pending metadata and releases the index's file handles;
// the index can later be reopened with OpenTreeIndex.
func (t *TreeIndex) Close() error { return t.ix.Close() }

// TrieIndex is a Coconut-Trie index: prefix-split, bottom-up bulk-loaded,
// contiguous leaves. Mostly of interest for studying the design space; use
// TreeIndex for applications. Config.Partitions >= 2 composes N of them by
// key range with byte-identical answers.
type TrieIndex struct {
	ix partition.Index
}

// BuildTrieIndex bulk-loads a Coconut-Trie over the dataset.
func BuildTrieIndex(cfg Config) (*TrieIndex, error) {
	return BuildTrieIndexCtx(context.Background(), cfg)
}

// BuildTrieIndexCtx is BuildTrieIndex with coarse-grained cancellation
// (see BuildTreeIndexCtx).
func BuildTrieIndexCtx(ctx context.Context, cfg Config) (*TrieIndex, error) {
	ix, err := cfg.index(ctx, manifest.VariantTrie, false)
	if err != nil {
		return nil, err
	}
	return &TrieIndex{ix: ix}, nil
}

// OpenTrieIndex reopens a Coconut-Trie previously built (and Closed) over
// cfg.Storage: the sorted summary array reloads from the index's own
// contiguous leaves and the in-memory trie is reconstructed and verified
// against the manifest — the raw dataset is never read. A partitioned
// trie reopens through its parent manifest. Unset Config fields are
// adopted from the manifest; conflicting ones fail with
// ErrConfigMismatch.
func OpenTrieIndex(cfg Config) (*TrieIndex, error) {
	return OpenTrieIndexCtx(context.Background(), cfg)
}

// OpenTrieIndexCtx is OpenTrieIndex with coarse-grained cancellation
// (see OpenTreeIndexCtx).
func OpenTrieIndexCtx(ctx context.Context, cfg Config) (*TrieIndex, error) {
	ix, err := cfg.index(ctx, manifest.VariantTrie, true)
	if err != nil {
		return nil, err
	}
	return &TrieIndex{ix: ix}, nil
}

// Search returns the exact nearest neighbor of q.
func (t *TrieIndex) Search(q Series) (Result, error) {
	return t.SearchCtx(context.Background(), q)
}

// SearchCtx is Search with cancellation: a done ctx returns ctx.Err()
// promptly, never a partial answer.
func (t *TrieIndex) SearchCtx(ctx context.Context, q Series) (Result, error) {
	r, err := t.ix.ExactSearch(ctx, q, 0)
	return fromCore(r), err
}

// SearchApprox returns a fast approximate nearest neighbor.
func (t *TrieIndex) SearchApprox(q Series, radius int) (Result, error) {
	return t.SearchApproxCtx(context.Background(), q, radius)
}

// SearchApproxCtx is SearchApprox with cancellation (see SearchCtx).
func (t *TrieIndex) SearchApproxCtx(ctx context.Context, q Series, radius int) (Result, error) {
	r, err := t.ix.ApproxSearch(ctx, q, radius)
	return fromCore(r), err
}

// Count returns the number of indexed series.
func (t *TrieIndex) Count() int64 { return t.ix.Count() }

// NumLeaves returns the number of leaves.
func (t *TrieIndex) NumLeaves() int { return t.ix.Shape().Leaves }

// LeafFill returns the mean leaf occupancy in [0,1].
func (t *TrieIndex) LeafFill() float64 { return t.ix.Shape().LeafFill }

// SizeBytes returns the on-device index size.
func (t *TrieIndex) SizeBytes() int64 { return t.ix.SizeBytes() }

// Degraded reports whether the index was opened with AllowDegraded over
// corrupt artifacts; answers cover only the healthy remainder.
func (t *TrieIndex) Degraded() bool { return t.ix.Degraded() }

// Close releases the index's file handles.
func (t *TrieIndex) Close() error { return t.ix.Close() }

// Neighbor is one k-NN answer.
type Neighbor struct {
	// Position is the series' ordinal in the dataset file.
	Position int64
	// Distance is its Euclidean distance to the query.
	Distance float64
}

// SearchKNN returns the k exact nearest neighbors of q in ascending
// distance order.
func (t *TreeIndex) SearchKNN(q Series, k int) ([]Neighbor, error) {
	return t.SearchKNNCtx(context.Background(), q, k)
}

// SearchKNNCtx is SearchKNN with cancellation (see SearchCtx): a done ctx
// returns ctx.Err(), never a truncated neighbor list.
func (t *TreeIndex) SearchKNNCtx(ctx context.Context, q Series, k int) ([]Neighbor, error) {
	ns, _, err := t.ix.(partition.KNNSearcher).ExactSearchKNN(ctx, q, k, 1)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(ns))
	for i, n := range ns {
		out[i] = Neighbor{Position: n.Pos, Distance: n.Dist}
	}
	return out, nil
}

// LSMIndex is Coconut-LSM: the paper's future-work design for update-heavy
// workloads. Inserts land in a memtable and flush as immutable sorted runs
// (append-only sequential I/O); tiers compact by merge-sorting —
// synchronously inside Insert/Flush by default, or on a background pool
// with Config.BackgroundCompaction. Queries see the memtable and all runs.
// With Config.Partitions >= 2 inserts route to the owning partition's
// memtable and each partition compacts independently under the divided
// global budgets.
type LSMIndex struct {
	ix partition.Index
}

// toLSM derives the LSM option set from the resolved core options. The
// block cache is created here — once per handle — so a partitioned index's
// children (which copy these options) all read through the same cache.
func (c *Config) toLSM(opt core.Options) lsm.Options {
	return lsm.Options{
		FS:                   opt.FS,
		Name:                 opt.Name,
		S:                    opt.S,
		RawName:              opt.RawName,
		MemBudgetBytes:       opt.MemBudgetBytes,
		Workers:              opt.Workers,
		QueryWorkers:         opt.QueryWorkers,
		BackgroundCompaction: c.BackgroundCompaction,
		CompactionWorkers:    c.CompactionWorkers,
		MaxPendingRuns:       c.MaxPendingRuns,
		WALGroupWindow:       c.WALGroupWindow,
		Checksums:            opt.Checksums,
		Cache:                blockcache.New(c.CacheBytes),
		AllowDegraded:        c.AllowDegraded,
	}
}

// BuildLSMIndex bulk-loads the initial run over the dataset.
func BuildLSMIndex(cfg Config) (*LSMIndex, error) {
	return BuildLSMIndexCtx(context.Background(), cfg)
}

// BuildLSMIndexCtx is BuildLSMIndex with coarse-grained cancellation
// (see BuildTreeIndexCtx).
func BuildLSMIndexCtx(ctx context.Context, cfg Config) (*LSMIndex, error) {
	ix, err := cfg.index(ctx, manifest.VariantLSM, false)
	if err != nil {
		return nil, err
	}
	return &LSMIndex{ix: ix}, nil
}

// OpenLSMIndex reopens a Coconut-LSM previously built (and Closed) over
// cfg.Storage: every run reopens from the run file itself — never the raw
// dataset — and the deterministic compaction cursors are
// restored, so subsequent Inserts continue the exact flush/compaction
// sequence a never-closed index would have produced. A partitioned LSM
// reopens through its parent manifest, each child restoring its own run
// set. Unset Config fields are adopted from the manifest; conflicting
// ones fail with ErrConfigMismatch.
func OpenLSMIndex(cfg Config) (*LSMIndex, error) {
	return OpenLSMIndexCtx(context.Background(), cfg)
}

// OpenLSMIndexCtx is OpenLSMIndex with coarse-grained cancellation
// (see OpenTreeIndexCtx).
func OpenLSMIndexCtx(ctx context.Context, cfg Config) (*LSMIndex, error) {
	ix, err := cfg.index(ctx, manifest.VariantLSM, true)
	if err != nil {
		return nil, err
	}
	return &LSMIndex{ix: ix}, nil
}

// fromLSM is fromCore for an index without leaves (internally the slot
// carries the runs a query probed).
func fromLSM(r core.Result) Result {
	r.VisitedLeaves = 0
	return fromCore(r)
}

// Search returns the exact nearest neighbor of q.
func (l *LSMIndex) Search(q Series) (Result, error) {
	return l.SearchCtx(context.Background(), q)
}

// SearchCtx is Search with cancellation: the query observes ctx between
// run probes and candidate verifications (across every partition), so a
// done ctx returns ctx.Err() promptly — never a partial answer.
func (l *LSMIndex) SearchCtx(ctx context.Context, q Series) (Result, error) {
	r, err := l.ix.ExactSearch(ctx, q, 0)
	return fromLSM(r), err
}

// SearchApprox returns a fast approximate nearest neighbor.
func (l *LSMIndex) SearchApprox(q Series) (Result, error) {
	return l.SearchApproxCtx(context.Background(), q)
}

// SearchApproxCtx is SearchApprox with cancellation (see SearchCtx).
func (l *LSMIndex) SearchApproxCtx(ctx context.Context, q Series) (Result, error) {
	r, err := l.ix.ApproxSearch(ctx, q, 0)
	return fromLSM(r), err
}

// Insert appends new series; full memtables flush to new sorted runs.
func (l *LSMIndex) Insert(batch []Series) error { return l.InsertCtx(context.Background(), batch) }

// InsertCtx is Insert with cancellation. The ctx is admission control —
// checked before any bytes move — plus an interruptible durability wait:
// if ctx expires while the insert waits on WAL group commit, InsertCtx
// returns ctx.Err() without disturbing the batch (the records still
// become durable; only this caller stops waiting for the fsync).
func (l *LSMIndex) InsertCtx(ctx context.Context, batch []Series) error {
	return l.ix.(partition.Inserter).Insert(ctx, batch)
}

// Flush forces the memtable to disk.
func (l *LSMIndex) Flush() error { return l.ix.(partition.Maintainer).Flush() }

// Sync flushes the memtable and waits for all background compactions to
// finish — the quiescence barrier after which the on-disk state is
// deterministic. It surfaces any pending background compaction error. With
// synchronous compaction it is equivalent to Flush.
func (l *LSMIndex) Sync() error { return l.ix.Sync() }

// Count returns the number of indexed series.
func (l *LSMIndex) Count() int64 { return l.ix.Count() }

// NumRuns returns the number of on-disk sorted runs.
func (l *LSMIndex) NumRuns() int { return l.ix.Shape().Runs }

// SizeBytes returns the total size of all runs.
func (l *LSMIndex) SizeBytes() int64 { return l.ix.SizeBytes() }

// Degraded reports whether corrupt runs or partitions were quarantined by
// an AllowDegraded open; answers cover only the healthy remainder.
func (l *LSMIndex) Degraded() bool { return l.ix.Degraded() }

// Repair re-derives every quarantined run from the raw dataset (the index
// key of a record is a pure function of its bytes), commits the repaired
// manifest, and deletes the corrupt files. After a successful Repair the
// index answers byte-identically to one that never lost the run.
func (l *LSMIndex) Repair() error { return l.ix.(partition.Maintainer).RebuildQuarantined() }

// CacheStats is a snapshot of the shared decoded-block cache's counters:
// hits, misses, evictions, scan decodes (blocks an exact search decoded
// without caching them: non-zero means the budget is smaller than the
// index's decoded keys), resident bytes, and the configured budget.
type CacheStats = blockcache.Stats

// CacheStats reports the handle's block-cache counters — one cache serves
// all runs and partitions, so these are whole-index numbers. Use the
// hit/miss ratio under a representative query load to size
// Config.CacheBytes.
func (l *LSMIndex) CacheStats() CacheStats { return l.ix.(partition.Maintainer).CacheStats() }

// Close flushes the memtable, drains background compactions, commits the
// manifest, and releases file handles; the index can later be reopened
// with OpenLSMIndex.
func (l *LSMIndex) Close() error { return l.ix.Close() }

// ZNormalize z-normalizes s in place and returns it. Queries against the
// built-in generators' datasets should be z-normalized.
func ZNormalize(s Series) Series { return s.ZNormalize() }

// Distance returns the Euclidean distance between two equal-length series.
func Distance(a, b Series) (float64, error) { return series.ED(a, b) }
