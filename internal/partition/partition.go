// Package partition holds the one index of this module: the Composite, N
// Coconut children of one variant split by invSAX key range, with N = 1
// for an unpartitioned index.
//
// Child is what a Coconut-Tree and a Coconut-LSM both offer: count, shape,
// size, sync and close, the records whose raw bytes the Composite already
// appended, and the two steps every query is made of — an approximate window
// contribution that seeds the k best so far, and a SIMS verification pass
// under them — in squared space. An LSM also flushes and reports its block
// cache. A Variant names one kind of child over one option set by the few
// things that differ — how to build, open and remove one. The window is not
// among them: every child contributes the window.Half(radius, n) records a
// side, and every exact search seeds from radius 1, so the same records
// answer alike in every variant.
//
// The Composite owns what its children share: the raw log (the raw file and
// its CRC sidecar, storage.RecordSums), the build's record stream, and the
// handle lock. A build is one summarization pass over the raw file and one
// sort of its records (internal/extsort), read as one sorted stream: with N
// >= 2 partitions split it by key range (boundaries chosen from a dataset
// sample so partitions balance), and the children are written one after
// another, each from the share of the stream below its boundary. A
// one-child index's files are under the index name, partition i's of N >= 2
// under <name>.p00i (manifest.ChildName). Queries scatter to every
// partition and gather deterministically.
//
// Everything below the public package takes its context first and has no
// context-free twin; a build, an open or a test with no caller context
// passes context.Background() itself.
//
// The determinism contract is exact: answers are byte-identical for any
// partition count and any worker count. Approximate search composes
// per-partition window contributions through internal/window (the window is
// a pure function of the record multiset); exact search seeds every
// partition with the GLOBAL approximate top-k and merges the per-partition
// top-k sets under the total (distance, position) order of shard.KNNHeap,
// sharing one atomic squared bound on the k-th best so partitions prune
// each other — one path for every k, 1-NN being k = 1.
//
// Durability: an index has one manifest, <name>.manifest, whatever N, and
// the Composite is its one committer. It holds the boundaries and one layout
// per child, which the child hands back through Child.Layout; children
// commit nothing. The Composite pulls the layouts after every mutation it
// drives — a build, an insert, a Sync, a Flush, a Close — and commits them
// in one rename when they changed, after the raw log's sidecar is durable
// and every file they name has been fsynced, so a partitioned Sync is all or
// nothing. The files the new layouts supersede (a tree's old generation, an
// LSM's compaction inputs) are removed only after that commit succeeds. A
// failed manifest commit is sticky, as a failed raw-log fsync is: every
// later write and Sync returns it, and the last committed manifest stays
// authoritative. Inserts go through the one raw log: the Composite appends
// every batch and commits it once.
package partition

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

// Child is one index the Composite scatter-gathers over: the two steps of
// an exact query on their own, in SQUARED space — its contribution to a
// (cross-partition) approximate window, and the SIMS verification of the k
// external seed neighbors under a shared bound on the k-th best, which
// returns its local top-k — plus what every index reports, and the insert
// of records whose raw bytes the Composite already appended to the raw log,
// and its durable state: Layout returns the child's layout for the
// manifest, whose files Sync made durable, and the files it supersedes,
// which the Composite removes once the manifest commits. Distances are
// Euclidean; radius widens the approximate window (window.Half), alike on
// every variant.
type Child interface {
	ApproxWindowCands(ctx context.Context, q series.Series, radius int) (core.ApproxWindow, error)
	ExactVerify(ctx context.Context, q series.Series, k int, seed []core.Neighbor, bound *shard.BSF) ([]core.Neighbor, core.Result, error)
	InsertRecords(recs []summary.Record) error
	Count() int64
	Shape() core.Shape
	SizeBytes() int64
	Sync() error
	Layout() (manifest.Layout, []string)
	Close() error
}

// Maintainer is the LSM's housekeeping, a step a Child has or lacks: flush
// the memtable, report the block cache. The Composite flushes exactly when
// its children are Maintainers (ErrUnsupported otherwise).
type Maintainer interface {
	Flush() error
	CacheStats() blockcache.Stats
}

// ErrUnsupported reports a capability the children of a Composite do not
// have; it matches errors.ErrUnsupported.
var ErrUnsupported = fmt.Errorf("partition: %w by this index variant", errors.ErrUnsupported)

// Variant names one kind of index over one option set by what differs
// between the kinds; Build and Open make the Composite of N of them.
type Variant struct {
	kind          manifest.Variant
	fs            storage.FS
	name, rawName string
	s             *summary.Summarizer
	// materialized describes the children to the manifest.
	materialized bool
	// workers and memBudget are the build's summarization pass and sort's.
	workers      int
	memBudget    int64
	queryWorkers int
	// seedRadius is the radius of the window that seeds an exact search.
	seedRadius int
	// ackInserts says an insert is acknowledged once the raw log commits it
	// (the LSM's contract); otherwise inserts become durable at Sync.
	ackInserts bool
	// child builds the child p plans from p.records when set and reopens it
	// from p.layout otherwise; remove deletes a finished child's files.
	child  func(p childPlan) (Child, error)
	remove func(fs storage.FS, name string)
}

// childPlan is one child as its Variant sees it: which of how many it is,
// and what the Composite hands down — the key ranges, the sorted record
// stream of a build or the stored layout of an open, the raw log.
type childPlan struct {
	i, parts int
	name     string
	records  summary.RecordReader
	layout   manifest.Layout
	bounds   []summary.Key
	sums     *storage.RecordSums
}

// seedRadius is the radius every variant's exact search seeds from, unless
// Seeded changes it.
const seedRadius = 1

// TreeVariant is Coconut-Tree over opt.
func TreeVariant(opt core.Options) Variant {
	return Variant{
		kind: manifest.VariantTree,
		fs:   opt.FS, name: opt.Name, rawName: opt.RawName, s: opt.S,
		materialized: opt.Materialized,
		workers:      opt.Workers,
		memBudget:    orDefault(opt.MemBudgetBytes, core.DefaultMemBudget),
		queryWorkers: opt.QueryWorkers,
		seedRadius:   seedRadius,
		remove:       core.Remove,
		// Same summarization; a partition divides the query workers.
		child: func(p childPlan) (Child, error) {
			co := opt
			co.Name, co.Records, co.RawSums = p.name, p.records, p.sums
			if p.parts > 1 {
				co.QueryWorkers = shard.PerGroup(opt.QueryWorkers, p.parts)
			}
			if p.records != nil {
				return asChild(core.BuildTree(co))
			}
			return asChild(core.OpenTree(co, p.layout))
		},
	}
}

// LSMVariant is Coconut-LSM over opt. One block cache serves every child.
func LSMVariant(opt lsm.Options) Variant {
	if opt.Cache == nil {
		opt.Cache = blockcache.New(0)
	}
	return Variant{
		kind: manifest.VariantLSM,
		fs:   opt.FS, name: opt.Name, rawName: opt.RawName, s: opt.S,
		workers: opt.Workers, memBudget: orDefault(opt.MemBudgetBytes, lsm.DefaultMemBudget),
		queryWorkers: opt.QueryWorkers,
		seedRadius:   seedRadius,
		ackInserts:   true,
		remove:       lsm.Remove,
		// A partition divides the global memtable and query budgets, so
		// aggregate resource use matches the unpartitioned configuration. The
		// ownership filter scopes any reconstruction-from-raw to the
		// partition's key range — the raw dataset is shared, and a partition
		// re-indexing a sibling's records would duplicate them across the
		// index.
		child: func(p childPlan) (Child, error) {
			co := opt
			co.Name, co.Records, co.RawSums = p.name, p.records, p.sums
			if p.parts > 1 {
				co.Owns = func(k summary.Key) bool { return route(p.bounds, k) == p.i }
				if opt.MemBudgetBytes > 0 {
					co.MemBudgetBytes = max(opt.MemBudgetBytes/int64(p.parts), 64<<10)
				}
				co.QueryWorkers = shard.PerGroup(opt.QueryWorkers, p.parts)
			}
			if p.records != nil {
				return asChild(lsm.Build(co))
			}
			return asChild(lsm.Open(co, p.layout))
		},
	}
}

// asChild is a constructor's result as a Child: no typed nil on failure.
func asChild[C Child](c C, err error) (Child, error) {
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Seeded is v with exact searches seeded from the radius window instead of
// the radius-1 one: the knob the experiments on the seed's quality turn.
func (v Variant) Seeded(radius int) Variant {
	v.seedRadius = radius
	return v
}

// route returns the partition owning key under bounds: partition i owns
// keys in [bounds[i-1], bounds[i]), with the first and last ranges open
// below and above.
func route(bounds []summary.Key, k summary.Key) int {
	return sort.Search(len(bounds), func(i int) bool { return k.Compare(bounds[i]) < 0 })
}

// selectBoundaries picks parts-1 strictly increasing split keys from a
// fixed-stride sample of the dataset, walking each quantile position
// forward past duplicates. Every boundary is an actual sampled key
// strictly greater than the sample minimum, so every partition is
// non-empty at build time. Fails when the dataset has too few distinct
// keys to populate parts partitions.
func selectBoundaries(raw storage.File, s *summary.Summarizer, parts int) ([]summary.Key, error) {
	p := s.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	size, err := raw.Size()
	if err != nil {
		return nil, err
	}
	if size%sz != 0 {
		return nil, fmt.Errorf("partition: raw file size %d not aligned to series size %d", size, sz)
	}
	count := size / sz
	target := int64(32 * parts)
	if target < 256 {
		target = 256
	}
	if target > count {
		target = count
	}
	if target < int64(parts) {
		return nil, fmt.Errorf("partition: dataset has %d series, too few for %d partitions", count, parts)
	}
	// The sample is every stride-th record: a few hundred positioned reads,
	// not a pass over the dataset — the build's summarization pass stays
	// the only one.
	stride := count / target
	buf := make([]byte, sz)
	sample := make([]summary.Key, target)
	for i := range sample {
		if n, err := raw.ReadAt(buf, int64(i)*stride*sz); n != len(buf) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("partition: sampling dataset: %w", err)
		}
		sample[i] = s.KeyOfEncoded(buf)
	}
	sort.Slice(sample, func(a, b int) bool { return sample[a].Less(sample[b]) })
	bounds := make([]summary.Key, 0, parts-1)
	prev := sample[0]
	cursor := 1
	for j := 1; j < parts; j++ {
		i := j * len(sample) / parts
		if i < cursor {
			i = cursor
		}
		for i < len(sample) && sample[i].Compare(prev) <= 0 {
			i++
		}
		if i == len(sample) {
			return nil, fmt.Errorf("partition: dataset has too few distinct keys for %d partitions", parts)
		}
		bounds = append(bounds, sample[i])
		prev = sample[i]
		cursor = i + 1
	}
	return bounds, nil
}

// attachRawSums opens the raw log of the dataset file at Open: the
// persisted sidecar is the dataset's end (storage.LoadRecordSums).
func attachRawSums(v Variant) (*storage.RecordSums, error) {
	raw, err := v.fs.Open(v.rawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	sums, err := storage.LoadRecordSums(v.fs, v.rawName, series.EncodedSize(v.s.Params().SeriesLen), raw)
	if err != nil {
		return nil, fmt.Errorf("raw sidecar of %q: %w", v.rawName, err)
	}
	return sums, nil
}

// loadStored loads the manifest of v's index and runs the loud
// config-mismatch checks every Open performs before touching a child: the
// variant, the partition count (parts == 0 adopts the stored one), and the
// summarization, materialization and dataset parameters.
func loadStored(v Variant, parts int) (*manifest.Manifest, error) {
	m, err := manifest.Load(v.fs, v.name)
	if err != nil {
		return nil, fmt.Errorf("partition: loading manifest for %q: %w", v.name, err)
	}
	if err := m.CheckVariant(v.kind); err != nil {
		return nil, err
	}
	if parts != 0 && parts != len(m.Children) {
		return nil, fmt.Errorf("%w: Partitions=%d, stored index has %d partitions",
			manifest.ErrConfigMismatch, parts, len(m.Children))
	}
	if err := m.CheckParams(v.s.Params(), v.materialized, v.rawName); err != nil {
		return nil, err
	}
	return m, nil
}

// orDefault is a byte budget, or def when it is unset (<= 0).
func orDefault(budget, def int64) int64 {
	if budget <= 0 {
		return def
	}
	return budget
}
