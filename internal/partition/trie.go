package partition

import (
	"context"
	"fmt"
	"sync"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
)

// Trie is an N-way partitioned Coconut-Trie: immutable after the build,
// like its children.
type Trie struct {
	kids     []*core.TrieIndex
	degraded []string
	g        gather

	mu     sync.Mutex
	closed bool
}

// BuildTrie builds an N-way partitioned Coconut-Trie (same pipeline as
// BuildTree: scatter by key range, parallel child builds, parent manifest
// last, finished children removed on failure).
func BuildTrie(opt core.Options, parts int) (*Trie, error) {
	sc, err := scatterDataset(opt.FS, opt.Name, opt.RawName, opt.S, opt.Materialized, opt.Checksums, opt.Workers, parts)
	if err != nil {
		return nil, err
	}
	opt.RawSums = sc.sums
	kids := make([]*core.TrieIndex, parts)
	buildPar := shard.Resolve(opt.Workers, parts)
	err = shard.FanOut(buildPar, parts, func(i int, cancelled func() bool) error {
		if cancelled() {
			return nil
		}
		ix, err := core.BuildTrie(treeChildOptions(opt, i, parts, buildPar))
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		kids[i] = ix
		return nil
	})
	removeScatter(opt.FS, opt.Name, parts)
	if err == nil {
		err = commitParent(opt.FS, opt.Name, manifest.VariantTrie, opt.S,
			opt.Materialized, opt.LeafCap, opt.RawName, sc.total, opt.Checksums, sc.bounds, sc.children)
	}
	if err != nil {
		for i, k := range kids {
			if k != nil {
				k.Close()
				core.RemoveTrie(opt.FS, sc.children[i])
			}
		}
		return nil, err
	}
	return newTrie(opt, kids, nil), nil
}

// OpenTrie reopens a partitioned Coconut-Trie from its parent manifest.
// parts == 0 adopts the stored partition count; a non-zero mismatch fails
// with manifest.ErrConfigMismatch. With allowDegraded, corrupt or missing
// children are quarantined; otherwise never returns a partial handle.
func OpenTrie(opt core.Options, parts int, allowDegraded bool) (*Trie, error) {
	m, err := loadParent(opt.FS, opt.Name, manifest.VariantTrie, parts,
		opt.S.Params(), opt.Materialized, opt.RawName)
	if err != nil {
		return nil, err
	}
	opt.Checksums = m.Checksums
	if opt.Checksums {
		sums, serr := attachRawSums(opt.FS, opt.RawName, series.EncodedSize(opt.S.Params().SeriesLen))
		if serr != nil {
			return nil, serr
		}
		// The trie is immutable, so nothing later flushes the sidecar:
		// persist any reconciliation now.
		if err := sums.Flush(); err != nil {
			return nil, err
		}
		opt.RawSums = sums
	}
	n := m.Part.Partitions
	kids := make([]*core.TrieIndex, n)
	closeKids := func() {
		for _, k := range kids {
			if k != nil {
				k.Close()
			}
		}
	}
	var degraded []string
	for i, cname := range m.Part.Children {
		co := opt
		co.Name = cname
		co.MemBudgetBytes = divideBudget(opt.MemBudgetBytes, n, 1<<20)
		co.Workers = shard.PerGroup(opt.Workers, n)
		co.QueryWorkers = shard.PerGroup(opt.QueryWorkers, n)
		ix, err := core.OpenTrie(co)
		if err != nil {
			if quarantineChild(allowDegraded, err) {
				degraded = append(degraded, cname)
				continue
			}
			closeKids()
			return nil, fmt.Errorf("partition: opening child %q: %w", cname, err)
		}
		kids[i] = ix
	}
	return newTrie(opt, kids, degraded), nil
}

func newTrie(opt core.Options, kids []*core.TrieIndex, degraded []string) *Trie {
	t := &Trie{kids: kids, degraded: degraded}
	sks := make([]searcher, len(kids))
	for i, k := range kids {
		if k != nil {
			sks[i] = trieChild{k}
		}
	}
	aw := opt.ApproxWindow
	if aw <= 0 {
		aw = 32
	}
	t.g = gather{
		kids:    sks,
		workers: opt.QueryWorkers,
		half:    func(radius int) int { return aw * (radius + 1) / 2 },
	}
	return t
}

type trieChild struct{ ix *core.TrieIndex }

func (c trieChild) count() int64 { return c.ix.Count() }
func (c trieChild) approxWindow(ctx context.Context, q series.Series, radius int) (core.ApproxWindow, error) {
	return c.ix.ApproxWindowCandsCtx(ctx, q, radius)
}
func (c trieChild) exactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (core.Result, error) {
	return c.ix.ExactVerifyCtx(ctx, q, seedPos, seedSq, bound)
}

// ExactSearch returns the exact nearest neighbor of q via scatter-gather
// SIMS, identical to a single-partition index's answer.
func (t *Trie) ExactSearch(q series.Series, radius int) (core.Result, error) {
	return t.ExactSearchCtx(context.Background(), q, radius)
}

// ExactSearchCtx is ExactSearch with cancellation: a parent cancel cancels
// every partition's verification, the first child error cancels its
// siblings, and a done ctx returns ctx.Err() — never a partial answer.
func (t *Trie) ExactSearchCtx(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	r, err := t.g.exactSq(ctx, q, radius)
	return finish(r), err
}

// ApproxSearch returns the approximate nearest neighbor from the merged
// cross-partition window.
func (t *Trie) ApproxSearch(q series.Series, radius int) (core.Result, error) {
	return t.ApproxSearchCtx(context.Background(), q, radius)
}

// ApproxSearchCtx is ApproxSearch with cancellation (see ExactSearchCtx).
func (t *Trie) ApproxSearchCtx(ctx context.Context, q series.Series, radius int) (core.Result, error) {
	r, err := t.g.approxSq(ctx, q, radius)
	return finish(r), err
}

// Partitions returns the partition count.
func (t *Trie) Partitions() int { return len(t.kids) }

// Count returns the number of indexed series across all partitions.
func (t *Trie) Count() int64 { return t.g.total() }

// NumLeaves returns the total leaf count across partitions.
func (t *Trie) NumLeaves() int {
	n := 0
	for _, k := range t.kids {
		if k != nil {
			n += k.NumLeaves()
		}
	}
	return n
}

// AvgLeafFill returns the leaf-weighted mean occupancy across partitions.
func (t *Trie) AvgLeafFill() float64 {
	var sum float64
	var leaves int
	for _, k := range t.kids {
		if k == nil {
			continue
		}
		n := k.NumLeaves()
		sum += k.AvgLeafFill() * float64(n)
		leaves += n
	}
	if leaves == 0 {
		return 0
	}
	return sum / float64(leaves)
}

// SizeBytes returns the total on-device size across partitions.
func (t *Trie) SizeBytes() int64 {
	var n int64
	for _, k := range t.kids {
		if k != nil {
			n += k.SizeBytes()
		}
	}
	return n
}

// Degraded reports whether any partition was quarantined at open.
func (t *Trie) Degraded() bool { return len(t.degraded) > 0 }

// QuarantinedChildren returns the names of quarantined partitions.
func (t *Trie) QuarantinedChildren() []string { return append([]string(nil), t.degraded...) }

// Close closes every partition. It is idempotent and safe to call
// concurrently with cancelled queries.
func (t *Trie) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	var first error
	for _, k := range t.kids {
		if k == nil {
			continue
		}
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
