// Package partition implements the N-way partitioned index architecture:
// records are routed to partitions by invSAX key range (boundaries chosen
// from a dataset sample so partitions balance), each partition builds as
// an independent index in parallel, and queries scatter to every partition
// and gather deterministically.
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
	"math"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

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
func scatterDataset(fs storage.FS, name, rawName string, s *summary.Summarizer, materialized, checksums bool, workers, parts int) (*scattered, error) {
	if parts < 2 {
		return nil, fmt.Errorf("partition: need at least 2 partitions, got %d", parts)
	}
	raw, err := fs.Open(rawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	sc := &scattered{children: make([]string, parts)}
	if sc.bounds, err = selectBoundaries(raw, s, parts); err != nil {
		return nil, err
	}
	src, err := core.OpenBuildSource(core.BuildSourceConfig{
		FS: fs, S: s, Raw: raw, RawName: rawName,
		Materialized: materialized, Checksums: checksums, Workers: workers,
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
	if materialized {
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
	closeAll := func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}
	for i, n := range names {
		f, err := fs.Create(n)
		if err != nil {
			closeAll()
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
				closeAll()
				return 0, fmt.Errorf("partition: record stream truncated (%d trailing bytes)", n%recSize)
			}
		} else if err != nil {
			closeAll()
			return 0, err
		}
		for off := 0; off+recSize <= n; off += recSize {
			copy(key[:], buf[off:off+summary.KeySize])
			if _, werr := ws[route(bounds, key)].Write(buf[off : off+recSize]); werr != nil {
				closeAll()
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
			closeAll()
			return 0, err
		}
	}
	for i, f := range files {
		files[i] = nil
		if err := f.Close(); err != nil {
			closeAll()
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
func commitParent(fs storage.FS, name string, child manifest.Variant, s *summary.Summarizer,
	mat bool, leafCap int, rawName string, count int64, checksums bool,
	bounds []summary.Key, children []string) error {
	p := s.Params()
	return manifest.Commit(fs, name, &manifest.Manifest{
		Variant:      manifest.VariantPartitioned,
		SeriesLen:    p.SeriesLen,
		Segments:     p.Segments,
		CardBits:     p.CardBits,
		Materialized: mat,
		LeafCap:      leafCap,
		RawName:      rawName,
		Count:        count,
		Checksums:    checksums,
		Part: &manifest.PartitionLayout{
			ChildVariant: child,
			Partitions:   len(children),
			Boundaries:   bounds,
			Children:     children,
		},
	})
}

// attachRawSums opens the parent-owned CRC sidecar for the shared dataset
// file at Open (see scattered.sums for the ownership rule).
func attachRawSums(fs storage.FS, rawName string, recSize int) (*storage.RecordSums, error) {
	raw, err := fs.Open(rawName)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	sums, err := storage.LoadRecordSums(fs, rawName, recSize, raw)
	if err != nil {
		return nil, fmt.Errorf("partition: raw sidecar: %w", err)
	}
	return sums, nil
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
func loadParent(fs storage.FS, name string, child manifest.Variant, parts int,
	p summary.Params, mat bool, rawName string) (*manifest.Manifest, error) {
	m, err := manifest.Load(fs, name)
	if err != nil {
		return nil, err
	}
	if err := m.CheckVariant(manifest.VariantPartitioned); err != nil {
		return nil, err
	}
	if m.Part.ChildVariant != child {
		return nil, fmt.Errorf("%w: stored partitioned index has %s children, not %s",
			manifest.ErrConfigMismatch, m.Part.ChildVariant, child)
	}
	if parts != 0 && parts != m.Part.Partitions {
		return nil, fmt.Errorf("%w: Partitions=%d, stored index has %d partitions",
			manifest.ErrConfigMismatch, parts, m.Part.Partitions)
	}
	if err := m.CheckParams(p, mat, rawName); err != nil {
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

// searcher is the uniform child-index surface the scatter-gather query
// layer drives; tree, trie, and LSM children adapt to it. All distances
// are SQUARED.
type searcher interface {
	count() int64
	approxWindow(ctx context.Context, q series.Series, radius int) (core.ApproxWindow, error)
	exactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (core.Result, error)
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

// gather fans a query out over the partitions and merges the answers
// deterministically. A nil child is a quarantined partition (degraded
// mode): it contributes no candidates and no count, so answers cover
// exactly the healthy remainder.
type gather struct {
	kids []searcher
	// workers is the partition-level query fan-out (children divide the
	// remaining budget internally).
	workers int
	// half returns the per-side global window size for a radius.
	half func(radius int) int
}

func (g *gather) total() int64 {
	var n int64
	for _, k := range g.kids {
		if k != nil {
			n += k.count()
		}
	}
	return n
}

// approxSq is the scatter-gather approximate search (squared space): every
// partition contributes its window candidates, internal/window merges them
// into exactly the window a single sorted sequence of the union would
// produce, and one global evaluation visits them best-lower-bound-first,
// dispatching fetches back to the owning partition.
func (g *gather) approxSq(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	res := core.Result{Pos: -1, Dist: math.Inf(1)}
	if g.total() == 0 {
		return res, core.ErrEmptyIndex
	}
	cc := newChildCancel(ctx)
	defer cc.cancel()
	aws := make([]core.ApproxWindow, len(g.kids))
	ferr := shard.FanOutCtx(ctx, shard.Resolve(g.workers, len(g.kids)), len(g.kids),
		func(i int, cancelled func() bool) error {
			if cancelled() || g.kids[i] == nil {
				return nil
			}
			aw, err := g.kids[i].approxWindow(cc.cctx, q, radius)
			if err != nil {
				return cc.fail(err)
			}
			aws[i] = aw
			return nil
		})
	if err := cc.resolve(ctx, ferr); err != nil {
		// On a ctx error abandoned children may still be writing aws; it is
		// never read on this path.
		return res, err
	}
	var below, above []window.Cand
	fetches := make([]window.FetchFunc, len(aws))
	for i := range aws {
		fetches[i] = aws[i].Fetch
		for _, c := range aws[i].Below {
			c.Src = i
			below = append(below, c)
		}
		for _, c := range aws[i].Above {
			c.Src = i
			above = append(above, c)
		}
		res.VisitedLeaves += aws[i].Leaves
	}
	cands := window.Merge(below, above, g.half(radius))
	pos, sq, visited, err := core.EvalWindow(ctx, q, cands, func(c window.Cand, buf []byte) ([]byte, error) {
		return fetches[c.Src](c, buf)
	})
	res.Pos, res.Dist, res.VisitedRecords = pos, sq, visited
	return res, err
}

// exactSq is the scatter-gather exact search (squared space): the GLOBAL
// approximate answer seeds every partition's verification (each child
// would otherwise seed from a different local approximation and tie-break
// differently), the shared atomic bound lets partitions prune each other,
// and the per-partition results merge under the total (distance, position)
// order — the same order a single index's sharded scan reduces under.
func (g *gather) exactSq(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	res, err := g.approxSq(ctx, q, radius)
	if err != nil {
		return res, err
	}
	var bound shard.BSF
	bound.Init(res.Dist)
	outs := make([]core.Result, len(g.kids))
	for i := range outs {
		outs[i] = core.Result{Pos: -1, Dist: math.Inf(1)}
	}
	cc := newChildCancel(ctx)
	defer cc.cancel()
	ferr := shard.FanOutCtx(ctx, shard.Resolve(g.workers, len(g.kids)), len(g.kids),
		func(i int, cancelled func() bool) error {
			if cancelled() || g.kids[i] == nil {
				return nil
			}
			r, err := g.kids[i].exactVerify(cc.cctx, q, res.Pos, res.Dist, &bound)
			if err != nil {
				return cc.fail(err)
			}
			outs[i] = r
			return nil
		})
	if err := cc.resolve(ctx, ferr); err != nil {
		// On a ctx error abandoned children may still be writing outs; it is
		// never read on this path.
		return res, err
	}
	for _, r := range outs {
		res.VisitedRecords += r.VisitedRecords
		res.VisitedLeaves += r.VisitedLeaves
		if r.Pos >= 0 && (r.Dist < res.Dist || (r.Dist == res.Dist && r.Pos < res.Pos)) {
			res.Pos, res.Dist = r.Pos, r.Dist
		}
	}
	return res, nil
}

// finish materializes the Euclidean distance — the single square root of a
// partitioned query.
func finish(r core.Result) core.Result {
	r.Dist = math.Sqrt(r.Dist)
	return r
}
