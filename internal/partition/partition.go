// Package partition holds the one index abstraction above the three
// Coconut variants and the N-way partitioned architecture written once over
// it.
//
// Index is the surface a Coconut-Tree, a Coconut-Trie and a Coconut-LSM all
// offer natively (count, the two searches, shape, size, sync, close); Child
// adds the two steps every exact query is made of — an approximate window
// that seeds a best-so-far, and a SIMS verification pass under it — which is
// all the scatter-gather needs. k-NN, inserts and LSM housekeeping are
// optional capabilities (KNNSearcher, Inserter, Maintainer) an index has or
// lacks. A Variant names one kind of index over one option set by the few
// things that differ — how to build, open and remove one, how the window
// scales with the radius — and Composite is the partitioned index over a
// slice of Child: records are routed to partitions by invSAX key range
// (boundaries chosen from a dataset sample so partitions balance), each
// partition builds as an independent index in parallel, and queries scatter
// to every partition and gather deterministically. The public package holds
// an Index: the lone child when unpartitioned, the Composite otherwise.
//
// Everything below the public package takes its context first and has no
// context-free twin; a build, an open or a test with no caller context
// passes context.Background() itself.
//
// The determinism contract is exact: answers are byte-identical to a
// single-partition index for any partition count and any worker count.
// Approximate search composes per-partition window contributions through
// internal/window (the window is a pure function of the record multiset);
// exact search seeds every partition with the GLOBAL approximate answer
// and merges per-partition verifications under the total (distance,
// position) order, sharing one atomic squared best-so-far bound so
// partitions prune each other; k-NN merges self-seeded per-partition top-k
// sets through the shared shard.KNNHeap order.
//
// Durability: each child index commits its own manifest (the PR 5
// machinery) BEFORE the parent manifest is committed, so an existing
// parent always references fully durable children. The parent manifest
// (boundaries + child names) is immutable after the build; mutable state
// (LSM run sets, insert counts) lives in the child manifests, which stay
// authoritative across reopens.
package partition

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
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

// Index is the one internal index surface: what a Coconut-Tree, a
// Coconut-Trie, a Coconut-LSM and the Composite of any of them all offer.
// Distances are Euclidean; radius widens the approximate window (an LSM
// sizes its own and ignores it).
type Index interface {
	Count() int64
	ApproxSearch(ctx context.Context, q series.Series, radius int) (core.Result, error)
	ExactSearch(ctx context.Context, q series.Series, radius int) (core.Result, error)
	Shape() core.Shape
	SizeBytes() int64
	Degraded() bool
	Sync() error
	Close() error
}

// Child is an Index the Composite can scatter-gather over: it also exposes
// the two steps of an exact query on their own, in SQUARED space — its
// contribution to a cross-partition approximate window, and the SIMS
// verification of an external seed under a shared bound. (The Composite is
// an Index but not a Child: the fetchers of its merged window live only as
// long as the query's sibling-cancel scope.)
type Child interface {
	Index
	ApproxWindowCands(ctx context.Context, q series.Series, radius int) (core.ApproxWindow, error)
	ExactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (core.Result, error)
}

// Optional capabilities: an Index has them or lacks them, and the Composite
// offers each exactly when its children do (ErrUnsupported otherwise).
type (
	// KNNSearcher answers exact k-NN (trees).
	KNNSearcher interface {
		ExactSearchKNN(ctx context.Context, q series.Series, k, radius int) ([]core.Neighbor, core.Result, error)
	}
	// Inserter accepts new series (trees and LSMs).
	Inserter interface {
		Insert(ctx context.Context, batch []series.Series) error
	}
	// Maintainer is the LSM's housekeeping: flush the memtable, re-derive
	// quarantined runs, report the block cache.
	Maintainer interface {
		Flush() error
		RebuildQuarantined() error
		CacheStats() blockcache.Stats
	}

	// What the Composite needs of a child to offer the above itself: the
	// self-seeded top-k under a shared bound, and a routed insert of records
	// whose raw bytes the Composite already wrote, with a token to wait on
	// where the child acknowledges through a group commit.
	sharedKNN interface {
		ExactSearchKNNShared(ctx context.Context, q series.Series, k, radius int, kb *shard.BSF) ([]core.Neighbor, core.Result, error)
	}
	recordInserter interface {
		InsertRecords(recs []core.InsertRec) (token int64, err error)
	}
	durabilityWaiter interface {
		WaitDurable(ctx context.Context, token int64) error
	}
)

// ErrUnsupported reports a capability the index (or the children of a
// Composite) does not have; it matches errors.ErrUnsupported.
var ErrUnsupported = fmt.Errorf("partition: %w by this index variant", errors.ErrUnsupported)

// capable returns kids as their capability C (zero for a quarantined
// child), or false when a healthy child lacks it.
func capable[C any](kids []Child) ([]C, bool) {
	out := make([]C, len(kids))
	for i, k := range kids {
		if k == nil {
			continue
		}
		c, ok := k.(C)
		if !ok {
			return nil, false
		}
		out[i] = c
	}
	return out, true
}

// Variant names one kind of index over one option set by what differs
// between the kinds. Build and Open make the unpartitioned index; Build and
// Open of this package the N-way Composite of the same.
type Variant struct {
	// Build bulk-loads and Open reopens the lone index.
	Build, Open func() (Child, error)

	kind          manifest.Variant
	fs            storage.FS
	name, rawName string
	s             *summary.Summarizer
	// materialized and leafCap describe the children's records to the scatter
	// and the parent manifest; checksums is adopted from the manifest at Open.
	materialized  bool
	leafCap       int
	checksums     bool
	workers       int
	queryWorkers  int
	allowDegraded bool
	// half returns the per-side global window size for a radius.
	half func(radius int) int
	// tornTail says a crash can leave a partial record at the end of the
	// dataset that no child ever indexed (the LSM's log acknowledges nothing
	// before its raw bytes are whole), so an insert overwrites it; without
	// it a misaligned dataset is refused.
	tornTail bool
	// child builds partition p from its scatter file when p.records is set
	// and reopens it otherwise; remove deletes a finished child's files.
	child  func(p childPlan) (Child, error)
	remove func(fs storage.FS, name string)
}

// childPlan is one partition as its Variant sees it: which of how many it
// is, how many build or open at once (budgets divide by it), and what the
// parent hands down — the key ranges, the scatter file, the shared sidecar.
type childPlan struct {
	i, parts, par int
	name, records string
	bounds        []summary.Key
	sums          *storage.RecordSums
	checksums     bool
}

// asChild turns a concrete index and its error into a Child, keeping a
// failed build's nil pointer out of the interface.
func asChild[T Child](ix T, err error) (Child, error) {
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// TreeVariant is Coconut-Tree over opt.
func TreeVariant(opt core.Options, allowDegraded bool) Variant {
	return coreVariant(manifest.VariantTree, opt, allowDegraded, core.BuildTree, core.OpenTree, core.RemoveTree)
}

// TrieVariant is Coconut-Trie over opt.
func TrieVariant(opt core.Options, allowDegraded bool) Variant {
	return coreVariant(manifest.VariantTrie, opt, allowDegraded, core.BuildTrie, core.OpenTrie, core.RemoveTrie)
}

func coreVariant[T Child](kind manifest.Variant, opt core.Options, allowDegraded bool,
	build, open func(core.Options) (T, error), remove func(storage.FS, string)) Variant {
	aw := opt.ApproxWindow
	if aw <= 0 {
		aw = 32
	}
	return Variant{
		kind:  kind,
		Build: func() (Child, error) { return asChild(build(opt)) },
		Open:  func() (Child, error) { return asChild(open(opt)) },
		fs:    opt.FS, name: opt.Name, rawName: opt.RawName, s: opt.S,
		materialized: opt.Materialized, leafCap: opt.LeafCap, checksums: opt.Checksums,
		workers: opt.Workers, queryWorkers: opt.QueryWorkers, allowDegraded: allowDegraded,
		half:   func(radius int) int { return aw * (radius + 1) / 2 },
		remove: remove,
		// Same geometry and summarization, divided worker and memory budgets.
		child: func(p childPlan) (Child, error) {
			co := opt
			co.Name, co.RecordsName, co.RawSums, co.Checksums = p.name, p.records, p.sums, p.checksums
			co.MemBudgetBytes = divideBudget(opt.MemBudgetBytes, p.par, 1<<20)
			co.Workers = shard.PerGroup(opt.Workers, p.par)
			co.QueryWorkers = shard.PerGroup(opt.QueryWorkers, p.parts)
			if p.records != "" {
				return asChild(build(co))
			}
			return asChild(open(co))
		},
	}
}

// LSMVariant is Coconut-LSM over opt. One block cache serves the lone index
// or every child alike.
func LSMVariant(opt lsm.Options) Variant {
	if opt.Cache == nil {
		opt.Cache = blockcache.New(0)
	}
	w := opt.Window
	if w <= 0 {
		w = 100
	}
	return Variant{
		kind:  manifest.VariantLSM,
		Build: func() (Child, error) { return asChild(lsm.Build(opt)) },
		Open:  func() (Child, error) { return asChild(lsm.Open(opt)) },
		fs:    opt.FS, name: opt.Name, rawName: opt.RawName, s: opt.S, checksums: opt.Checksums,
		workers: opt.Workers, queryWorkers: opt.QueryWorkers, allowDegraded: opt.AllowDegraded,
		half:     func(int) int { return w / 2 },
		tornTail: true,
		remove:   lsm.Remove,
		// The global memory, compaction-worker and pending-run budgets divide
		// across partitions so aggregate resource use matches the
		// unpartitioned configuration. The ownership filter scopes any
		// reconstruction-from-raw to the child's key range — the raw dataset
		// is shared, and a child re-indexing a sibling's records would
		// duplicate them across the index.
		child: func(p childPlan) (Child, error) {
			co := opt
			co.Name, co.RecordsName, co.RawSums, co.Checksums = p.name, p.records, p.sums, p.checksums
			co.Owns = func(k summary.Key) bool { return route(p.bounds, k) == p.i }
			co.MemBudgetBytes = divideBudget(opt.MemBudgetBytes, p.parts, 64<<10)
			co.Workers = shard.PerGroup(opt.Workers, p.par)
			co.QueryWorkers = shard.PerGroup(opt.QueryWorkers, p.parts)
			co.CompactionWorkers = shard.PerGroup(opt.CompactionWorkers, p.parts)
			if opt.MaxPendingRuns > 0 {
				co.MaxPendingRuns = max(opt.MaxPendingRuns/p.parts, 1)
			}
			if p.records != "" {
				return asChild(lsm.Build(co))
			}
			return asChild(lsm.Open(co))
		},
	}
}

// childName returns the index-name prefix of partition i.
func childName(name string, i int) string { return fmt.Sprintf("%s.p%03d", name, i) }

// scatterName returns partition i's temporary build-time record file.
func scatterName(name string, i int) string { return childName(name, i) + ".scatter" }

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
	// not a pass over the dataset — the scatter's summarization pass stays
	// the only one.
	stride := count / target
	buf := make([]byte, sz)
	ser := make(series.Series, p.SeriesLen)
	sample := make([]summary.Key, target)
	for i := range sample {
		if n, err := raw.ReadAt(buf, int64(i)*stride*sz); n != len(buf) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("partition: sampling dataset: %w", err)
		}
		series.DecodeInto(buf, ser)
		if sample[i], err = s.KeyOf(ser); err != nil {
			return nil, err
		}
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

// scattered is what the parent's pass over the dataset leaves for the
// child builds: the key-range boundaries, the children's names, one
// scatter file per child, and the total record count.
type scattered struct {
	bounds   []summary.Key
	children []string
	total    int64
	// sums is the parent-owned CRC sidecar for the shared dataset file,
	// already persisted (nil when checksums are off). Every child verifies
	// its raw fetches through this one handle, and only the parent — the
	// sole raw writer — flushes it.
	sums *storage.RecordSums
}

// scatterDataset is the first half of every partitioned build: boundaries
// from a sample, then ONE pass over the raw dataset that summarizes it,
// scatters the (key, position[, raw]) records by key range into one file
// per partition and, for a checksummed build, computes the CRC sidecar from
// the same bytes (an existing sidecar may describe a replaced dataset, so a
// build never reuses one). On error no scatter file is left behind.
func scatterDataset(v Variant, parts int) (*scattered, error) {
	if parts < 2 {
		return nil, fmt.Errorf("partition: need at least 2 partitions, got %d", parts)
	}
	fs, name, s := v.fs, v.name, v.s
	raw, err := fs.Open(v.rawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	sc := &scattered{children: make([]string, parts)}
	if sc.bounds, err = selectBoundaries(raw, s, parts); err != nil {
		return nil, err
	}
	src, err := core.OpenBuildSource(core.BuildSourceConfig{
		FS: fs, S: s, Raw: raw, RawName: v.rawName,
		Materialized: v.materialized, Checksums: v.checksums, Workers: v.workers,
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, parts)
	for i := range names {
		names[i] = scatterName(name, i)
		sc.children[i] = childName(name, i)
	}
	recSize := summary.KeySize + 8
	if v.materialized {
		recSize += series.EncodedSize(s.Params().SeriesLen)
	}
	sc.total, err = scatter(fs, src, recSize, sc.bounds, names)
	sc.sums, _, err = src.Finish(err)
	if err != nil {
		removeScatter(fs, name, parts)
		return nil, err
	}
	return sc, nil
}

// scatter splits the record stream src (fixed-size records, key first)
// into one file per partition, routed by key range. Returns the total
// record count.
func scatter(fs storage.FS, src io.Reader, recSize int, bounds []summary.Key, names []string) (int64, error) {
	files := make([]storage.File, len(names))
	ws := make([]*storage.SequentialWriter, len(names))
	// Whatever is still open when scatter returns — on any error — is closed.
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for i, n := range names {
		f, err := fs.Create(n)
		if err != nil {
			return 0, err
		}
		files[i] = f
		ws[i] = storage.NewSequentialWriter(f, 0, 0)
	}
	var total int64
	var key summary.Key
	buf := make([]byte, recSize*512)
	for {
		n, err := io.ReadFull(src, buf)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			if n%recSize != 0 {
				return 0, fmt.Errorf("partition: record stream truncated (%d trailing bytes)", n%recSize)
			}
		} else if err != nil {
			return 0, err
		}
		for off := 0; off+recSize <= n; off += recSize {
			copy(key[:], buf[off:off+summary.KeySize])
			if _, werr := ws[route(bounds, key)].Write(buf[off : off+recSize]); werr != nil {
				return 0, werr
			}
			total++
		}
		if err == io.ErrUnexpectedEOF {
			break
		}
	}
	for i := range ws {
		if err := ws[i].Flush(); err != nil {
			return 0, err
		}
	}
	for i, f := range files {
		files[i] = nil
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// removeScatter deletes the temporary scatter files (best-effort; they are
// never referenced by a manifest).
func removeScatter(fs storage.FS, name string, parts int) {
	for i := 0; i < parts; i++ {
		_ = fs.Remove(scatterName(name, i))
	}
}

// commitParent writes the parent manifest, the build's durability point:
// it is committed only after every child committed its own manifest.
func commitParent(v Variant, sc *scattered) error {
	p := v.s.Params()
	return manifest.Commit(v.fs, v.name, &manifest.Manifest{
		Variant:      manifest.VariantPartitioned,
		SeriesLen:    p.SeriesLen,
		Segments:     p.Segments,
		CardBits:     p.CardBits,
		Materialized: v.materialized,
		LeafCap:      v.leafCap,
		RawName:      v.rawName,
		Count:        sc.total,
		Checksums:    v.checksums,
		Part: &manifest.PartitionLayout{
			ChildVariant: v.kind,
			Partitions:   len(sc.children),
			Boundaries:   sc.bounds,
			Children:     sc.children,
		},
	})
}

// attachRawSums opens the parent-owned CRC sidecar for the shared dataset
// file at Open (see scattered.sums for the ownership rule).
func attachRawSums(v Variant) (*storage.RecordSums, error) {
	raw, err := v.fs.Open(v.rawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	sums, _, err := core.AttachRawSums(v.fs, v.rawName, v.s, v.checksums, nil, raw)
	return sums, err
}

// quarantineChild reports whether a failed child open should quarantine
// the child (degraded mode on, and the failure is corruption or a missing
// file) rather than fail the whole partitioned open.
func quarantineChild(allowDegraded bool, err error) bool {
	return allowDegraded && (errors.Is(err, storage.ErrCorruptData) ||
		errors.Is(err, manifest.ErrCorruptManifest) || errors.Is(err, storage.ErrNotExist))
}

// loadParent loads the parent manifest and runs the loud config-mismatch
// checks every partitioned Open performs before touching child indexes:
// variant, child variant, partition count (parts == 0 adopts the stored
// count), and summarization/materialization/dataset parameters.
func loadParent(v Variant, parts int) (*manifest.Manifest, error) {
	m, err := manifest.Load(v.fs, v.name)
	if err != nil {
		return nil, err
	}
	if err := m.CheckVariant(manifest.VariantPartitioned); err != nil {
		return nil, err
	}
	if m.Part.ChildVariant != v.kind {
		return nil, fmt.Errorf("%w: stored partitioned index has %s children, not %s",
			manifest.ErrConfigMismatch, m.Part.ChildVariant, v.kind)
	}
	if parts != 0 && parts != m.Part.Partitions {
		return nil, fmt.Errorf("%w: Partitions=%d, stored index has %d partitions",
			manifest.ErrConfigMismatch, parts, m.Part.Partitions)
	}
	if err := m.CheckParams(v.s.Params(), v.materialized, v.rawName); err != nil {
		return nil, err
	}
	return m, nil
}

// divideBudget splits a byte budget across n concurrent consumers with a
// floor; zero (defaulted) budgets pass through so each consumer applies
// its own default.
func divideBudget(total int64, n int, floor int64) int64 {
	if total <= 0 {
		return 0
	}
	b := total / int64(n)
	if b < floor {
		b = floor
	}
	return b
}

// childCancel wires "the first child error cancels its siblings" onto a
// scatter fan-out: children run under a derived context (so a parent
// cancel reaches every child too), fail records the first real failure and
// cancels the rest, and finish resolves the fan-out's outcome with the
// parent's cancellation taking precedence over everything — a query never
// reports a child error when the caller itself gave up.
type childCancel struct {
	cctx   context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
}

func newChildCancel(ctx context.Context) *childCancel {
	cc := &childCancel{}
	cc.cctx, cc.cancel = context.WithCancel(ctx)
	return cc
}

// fail records the first failure and cancels the sibling children.
func (cc *childCancel) fail(err error) error {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	cc.mu.Unlock()
	cc.cancel()
	return err
}

// resolve decides the fan-out result: parent cancellation first, then the
// first child failure (a sibling that merely observed the cancellation
// reports context.Canceled, which must not mask the failure that caused
// it), then the fan-out's own error. It deliberately does NOT cancel the
// derived context — children hand back fetch closures bound to cc.cctx
// that the merged evaluation calls after the fan-out joins, so the caller
// defers cc.cancel() to its own exit instead.
func (cc *childCancel) resolve(ctx context.Context, ferr error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	cc.mu.Lock()
	err := cc.err
	cc.mu.Unlock()
	if err != nil {
		return err
	}
	return ferr
}
