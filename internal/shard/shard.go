// Package shard provides the fan-out machinery for sharded query
// execution: a contiguous range of work items (leaves, candidate
// positions, LSM runs) is partitioned across a bounded worker pool, the
// shards share a monotonically tightening best-so-far bound, and a failure
// in any shard cancels its siblings.
//
// The helpers are written so that sharded scans stay DETERMINISTIC: the
// shared bound is only used for strict-inequality pruning (a candidate
// whose lower bound exactly ties the published bound is still verified),
// and results are reduced in shard order, so the answer of a sharded scan
// is byte-identical to the serial scan for any worker count.
package shard

import (
	"container/heap"
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Resolve turns a requested worker count into an effective one for n work
// items: requested <= 0 means runtime.GOMAXPROCS(0), and the result is
// clamped to [1, n] (never degenerating to 1 merely because workers > n).
func Resolve(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Range is one contiguous shard [Lo, Hi) of a scan.
type Range struct{ Lo, Hi int }

// Split partitions [0, n) into at most workers near-equal contiguous
// ranges. Empty ranges are omitted, so every returned range is non-empty.
func Split(n, workers int) []Range {
	workers = Resolve(workers, n)
	if n == 0 {
		return nil
	}
	chunk := (n + workers - 1) / workers
	out := make([]Range, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out
}

// PerGroup splits a requested worker budget across `groups` concurrent
// groups (e.g. LSM runs probed in parallel), returning the per-group
// fan-out: at least 1, and requested <= 0 means runtime.GOMAXPROCS(0).
func PerGroup(requested, groups int) int {
	total := requested
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if groups < 1 {
		groups = 1
	}
	per := total / groups
	if per < 1 {
		per = 1
	}
	return per
}

// Outcome is one shard's contribution to a sharded verification scan: the
// first strict improvement it found over the seed bound (Pos = -1 when
// none) plus its visit counters. ScanReduce seeds and collects these;
// scan bodies only ever update the Outcome they are handed.
type Outcome struct {
	Pos            int64
	Dist           float64
	VisitedRecords int64
	VisitedLeaves  int64
}

// Reduce folds shard outcomes IN SHARD ORDER into the seed answer. Shards
// cover contiguous ascending ranges of the serial scan order and each kept
// the first strict improvement it saw, so folding with the same strict
// comparison reproduces the serial scan's answer exactly — this is the
// single copy of the determinism contract every sharded scan relies on.
// Every entry of outs must have been seeded (a zero-value Outcome reads as
// a real answer at position 0); ScanReduce guarantees that by seeding each
// shard's slot before running its body, even for shards cancelled before
// doing any work.
func Reduce(seedPos int64, seedDist float64, outs []Outcome) (int64, float64, int64, int64) {
	pos, dist := seedPos, seedDist
	var vr, vl int64
	for _, o := range outs {
		vr += o.VisitedRecords
		vl += o.VisitedLeaves
		if o.Pos >= 0 && o.Dist < dist {
			dist, pos = o.Dist, o.Pos
		}
	}
	return pos, dist, vr, vl
}

// BSF is a shared best-so-far distance bound, safe for concurrent use. It
// only ever decreases. The zero value is unusable; call Init first.
type BSF struct {
	bits atomic.Uint64
}

// Init sets the starting bound (typically the approximate-search answer).
func (b *BSF) Init(d float64) { b.bits.Store(math.Float64bits(d)) }

// Load returns the current bound.
func (b *BSF) Load() float64 { return math.Float64frombits(b.bits.Load()) }

// Lower publishes d if it improves (strictly lowers) the current bound.
// Distances are non-negative, so their IEEE-754 bit patterns order like the
// values themselves and a CAS loop suffices.
func (b *BSF) Lower(d float64) {
	new := math.Float64bits(d)
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= d {
			return
		}
		if b.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Prunes reports whether a candidate with lower bound lb can be skipped
// based on the shared bound. The comparison is STRICT (lb > bound, not >=):
// a candidate that exactly ties the bound published by a sibling shard is
// still verified, which is what keeps sharded scans deterministic when true
// distance ties occur (e.g. duplicate series).
func (b *BSF) Prunes(lb float64) bool { return lb > b.Load() }

// Limit returns the exclusive bound under which a lower-bound pass should
// collect candidates for a scan seeded at own: lb < Limit(own) exactly when
// lb < own and !Prunes(lb) as of this call. The scan checks every candidate
// again as the bounds tighten, so a limit gone stale costs list entries,
// never visits or answers.
func (b *BSF) Limit(own float64) float64 {
	if shared := b.Load(); shared < own {
		return math.Nextafter(shared, math.Inf(1))
	}
	return own
}

// Scan runs fn over the shards of [0, n) on up to workers goroutines. fn
// receives its shard index, the range, and a cancelled predicate it must
// poll between work items; when any shard returns an error, the remaining
// shards observe cancelled() == true and should return promptly.
//
// Scan joins every goroutine before returning (no leaks, even on error)
// and returns the error of the lowest-indexed failing shard, so the
// surfaced error is deterministic — unless ctx is done first: the cancelled
// predicate trips as soon as it is, and the call returns ctx.Err() promptly
// even if a shard is stuck inside a blocking operation (the stuck goroutine
// is abandoned and exits when its operation returns — callers must not
// reuse buffers they handed to fn after a ctx error). When Scan returns a
// ctx error, the scan's side effects may be partial; callers must discard
// them. A caller with nothing to cancel passes context.Background().
func Scan(ctx context.Context, workers, n int, fn func(shard int, r Range, cancelled func() bool) error) error {
	return scanRanges(ctx, Split(n, workers), fn)
}

func scanRanges(ctx context.Context, ranges []Range, fn func(shard int, r Range, cancelled func() bool) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ranges) == 0 {
		return nil
	}
	done := ctx.Done()
	if len(ranges) == 1 && done == nil {
		return fn(0, ranges[0], func() bool { return false })
	}
	var stop atomic.Bool
	cancelled := func() bool { return stop.Load() || ctx.Err() != nil }
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r Range) {
			defer wg.Done()
			if err := fn(i, r, cancelled); err != nil {
				errs[i] = err
				stop.Store(true)
			}
		}(i, r)
	}
	if done == nil {
		wg.Wait()
	} else {
		// Wait for the shards, but detach if ctx fires first: a shard
		// blocked in a stalled read must not hold the query hostage. The
		// detached goroutines exit when their blocking operation returns;
		// their writes land in slots nobody reads after a ctx error.
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-done:
			return ctx.Err()
		}
	}
	// A shard may have observed cancellation and skipped work items, so a
	// done ctx always wins over a "complete" scan: never a partial answer
	// dressed up as a full one.
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FanOut runs fn(i) once for every group i in [0, n) on up to workers
// goroutines. Unlike Scan, which splits one contiguous range into shards,
// each group here is an independent unit of work — a partition of a
// partitioned index, an LSM run, a figure variant — dispatched from a
// shared counter so finished workers steal the next group instead of
// idling. fn must poll cancelled between expensive steps; when any group
// fails, unstarted groups are skipped, every goroutine is joined, and the
// error of the lowest-numbered failing group is returned (deterministic,
// like Scan). ctx has the same detach-on-cancel and never-partial semantics
// as in Scan: once it is done the call returns ctx.Err() even if a group is
// stuck in a blocking operation, and a done ctx always wins over an
// apparently complete fan-out.
func FanOut(ctx context.Context, workers, n int, fn func(group int, cancelled func() bool) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers, n)
	done := ctx.Done()
	if workers == 1 && done == nil {
		for i := 0; i < n; i++ {
			if err := fn(i, func() bool { return false }); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next      atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
		cancelled = func() bool { return stop.Load() || ctx.Err() != nil }
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cancelled() {
					return
				}
				if err := fn(i, cancelled); err != nil {
					errs[i] = err
					stop.Store(true)
				}
			}
		}()
	}
	if done == nil {
		wg.Wait()
	} else {
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-done:
			return ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Neighbor is one k-NN answer candidate: a record position and its
// distance (squared or rooted — the heap is agnostic, it only compares).
type Neighbor struct {
	Pos  int64
	Dist float64
}

// NeighborLess is the total order every k-NN path ranks by: distance
// first, position as the tie-break. Because it is total, the k smallest
// neighbors of a multiset are unique, which is what makes sharded and
// partitioned k-NN merges byte-identical to the serial scan.
func NeighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Pos < b.Pos
}

// KNNHeap is the single shared implementation of the bounded k-nearest
// max-heap: it retains the k smallest neighbors offered so far under
// NeighborLess, deduplicating by position (the same record can be offered
// by the approximate seed, several shards, or several partitions). All
// k-NN mergers — per-shard locals, the cross-shard reduce, and the
// cross-partition gather — go through this one type, so the merge
// semantics cannot drift apart.
type KNNHeap struct {
	items []Neighbor
	k     int
	seen  map[int64]bool
}

// NewKNNHeap returns an empty heap retaining the k best neighbors.
func NewKNNHeap(k int) *KNNHeap {
	return &KNNHeap{k: k, seen: make(map[int64]bool, k)}
}

func (h *KNNHeap) Len() int { return len(h.items) }

// Less orders the heap as a MAX-heap on NeighborLess, so the root is the
// current k-th best and Pop evicts the worst retained neighbor.
func (h *KNNHeap) Less(i, j int) bool { return NeighborLess(h.items[j], h.items[i]) }

func (h *KNNHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

// Push and Pop implement heap.Interface; use Offer, not these.
func (h *KNNHeap) Push(x any) { h.items = append(h.items, x.(Neighbor)) }
func (h *KNNHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// Bound returns the current k-th-best distance: +Inf until the heap holds
// k neighbors, then the root. A candidate can only enter the heap by
// strictly beating Bound under NeighborLess.
func (h *KNNHeap) Bound() float64 {
	if len(h.items) < h.k {
		return math.Inf(1)
	}
	return h.items[0].Dist
}

// Offer inserts n if it belongs in the current top-k. Re-offers of an
// already-retained position are ignored. Returns true when the heap
// changed.
func (h *KNNHeap) Offer(n Neighbor) bool {
	if h.seen[n.Pos] {
		return false
	}
	if len(h.items) < h.k {
		h.seen[n.Pos] = true
		heap.Push(h, n)
		return true
	}
	if !NeighborLess(n, h.items[0]) {
		return false
	}
	delete(h.seen, h.items[0].Pos)
	h.seen[n.Pos] = true
	h.items[0] = n
	heap.Fix(h, 0)
	return true
}

// Items returns the retained neighbors in heap order (NOT sorted); use it
// to re-offer one heap's contents into another during a merge.
func (h *KNNHeap) Items() []Neighbor { return h.items }

// Sorted returns the retained neighbors ranked best-first under
// NeighborLess.
func (h *KNNHeap) Sorted() []Neighbor {
	out := make([]Neighbor, len(h.items))
	copy(out, h.items)
	sort.Slice(out, func(i, j int) bool { return NeighborLess(out[i], out[j]) })
	return out
}

// ScanReduce is the complete sharded-verification-scan harness: it splits
// [0, n) across workers, seeds one Outcome per shard with {Pos: -1, Dist:
// seedDist}, hands fn a pointer to its shard's outcome, and reduces the
// outcomes in shard order onto the seed answer — so call sites cannot
// forget the seeding, the store, or the in-order reduce that the
// determinism contract depends on. The reduced answer and summed visit
// counters are returned even when fn failed (partial counters, seed
// answer preserved), alongside the lowest-indexed shard's error. On a ctx
// error the outcomes are never read (detached shards may still be writing
// them) and the seed answer is returned untouched with zero counters — the
// caller sees ctx.Err() and must discard the result.
func ScanReduce(ctx context.Context, workers, n int, seedPos int64, seedDist float64,
	fn func(r Range, local *Outcome, cancelled func() bool) error,
) (pos int64, dist float64, visitedRecords, visitedLeaves int64, err error) {
	ranges := Split(n, workers)
	outs := make([]Outcome, len(ranges))
	err = scanRanges(ctx, ranges, func(i int, r Range, cancelled func() bool) error {
		outs[i] = Outcome{Pos: -1, Dist: seedDist}
		return fn(r, &outs[i], cancelled)
	})
	if cerr := ctx.Err(); cerr != nil {
		return seedPos, seedDist, 0, 0, cerr
	}
	pos, dist, visitedRecords, visitedLeaves = Reduce(seedPos, seedDist, outs)
	return pos, dist, visitedRecords, visitedLeaves, err
}
