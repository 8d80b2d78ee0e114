// Package shard provides the one fan-out machinery of the repository, for
// queries and builds alike: a contiguous range of work items (leaves,
// candidate positions, LSM runs, a batch of raw series to summarize) is
// partitioned across a bounded worker pool, or independent groups are
// dispatched to one; query shards share a monotonically tightening
// best-so-far bound, and a failure in any shard cancels its siblings.
//
// The helpers are written so that sharded scans stay DETERMINISTIC: the
// shared bound is only used for strict-inequality pruning (a candidate
// whose lower bound exactly ties the published bound is still verified),
// and results are reduced in shard order, so the answer of a sharded scan
// is byte-identical to the serial scan for any worker count.
package shard

import (
	"context"
	"math"
	"runtime"
	"slices"
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
// collect candidates for a scan whose own k-th best is own: lb < Limit(own)
// exactly when lb <= own and !Prunes(lb) as of this call. The collection is
// tie-inclusive because a candidate whose lower bound exactly ties the k-th
// best can still outrank it under NeighborLess. The scan checks every
// candidate again as the bounds tighten, so a limit gone stale costs list
// entries, never visits or answers.
func (b *BSF) Limit(own float64) float64 {
	return math.Nextafter(min(own, b.Load()), math.Inf(1))
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
	return join(ctx, &wg, errs)
}

// join is the tail of a fan-out: it waits for the workers in wg, but
// detaches if ctx fires first — a worker blocked in a stalled read must not
// hold the query hostage; the detached goroutines exit when their blocking
// operation returns, and their writes land in slots nobody reads after a
// ctx error. A worker may have observed cancellation and skipped work
// items, so a done ctx always wins over a "complete" run: never a partial
// answer dressed up as a full one. Otherwise the lowest-index error of errs
// is the result.
func join(ctx context.Context, wg *sync.WaitGroup, errs []error) error {
	if done := ctx.Done(); done == nil {
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

// FanOut runs fn(i) once for every group i in [0, n) on up to workers
// goroutines. Unlike Scan, which splits one contiguous range into shards,
// each group here is an independent unit of work — a partition of a
// partitioned index to query or insert into, a run-forming worker of
// the external sort, a merge of one of its intermediate generations —
// dispatched from a shared counter so finished workers steal the next group instead of
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
	return join(ctx, &wg, errs)
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
// semantics cannot drift apart. An exact 1-NN search builds a handful of
// them, so a small heap costs two allocations and no offer allocates.
type KNNHeap struct {
	items []Neighbor
	k     int
	// seen holds the retained positions of a heap of more than
	// linearDedup neighbors; a smaller heap scans its items instead.
	seen map[int64]bool
}

// linearDedup is the largest k whose heap finds a retained position by
// scanning its items: cheaper, at that size, than a map's allocation and
// hashing.
const linearDedup = 16

// NewKNNHeap returns an empty heap retaining the k best neighbors.
func NewKNNHeap(k int) *KNNHeap {
	h := &KNNHeap{k: k, items: make([]Neighbor, 0, min(k, linearDedup))}
	if k > linearDedup {
		h.seen = make(map[int64]bool)
	}
	return h
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
	full := len(h.items) >= h.k
	if full && !NeighborLess(n, h.items[0]) || h.holds(n.Pos) {
		return false
	}
	if h.seen != nil {
		if full {
			delete(h.seen, h.items[0].Pos)
		}
		h.seen[n.Pos] = true
	}
	if full {
		h.items[0] = n
		h.down(0)
		return true
	}
	h.items = append(h.items, n)
	h.up(len(h.items) - 1)
	return true
}

// holds reports whether a neighbor at pos is retained.
func (h *KNNHeap) holds(pos int64) bool {
	if h.seen != nil {
		return h.seen[pos]
	}
	for _, n := range h.items {
		if n.Pos == pos {
			return true
		}
	}
	return false
}

// up and down restore the MAX-heap order on NeighborLess — the root is the
// current k-th best, the first to be evicted — after item i moved.
func (h *KNNHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !NeighborLess(h.items[p], h.items[i]) {
			return
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *KNNHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.items) {
			return
		}
		if c+1 < len(h.items) && NeighborLess(h.items[c], h.items[c+1]) {
			c++
		}
		if !NeighborLess(h.items[i], h.items[c]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}

// Items returns the retained neighbors in heap order (NOT sorted); use it
// to re-offer one heap's contents into another during a merge.
func (h *KNNHeap) Items() []Neighbor { return h.items }

// Sorted returns the retained neighbors ranked best-first under
// NeighborLess.
func (h *KNNHeap) Sorted() []Neighbor {
	out := make([]Neighbor, len(h.items))
	copy(out, h.items)
	slices.SortFunc(out, func(a, b Neighbor) int {
		switch {
		case NeighborLess(a, b):
			return -1
		case NeighborLess(b, a):
			return 1
		}
		return 0
	})
	return out
}

// OfferAll offers every neighbor of ns, in order.
func (h *KNNHeap) OfferAll(ns []Neighbor) {
	for _, n := range ns {
		h.Offer(n)
	}
}

// Local is one shard's share of a sharded verification scan: a heap of its
// own, holding the scan's seed when the shard starts, and its visit
// counter. ScanKNN seeds and reduces these; scan bodies only ever update
// the Local they are handed.
type Local struct {
	Top            *KNNHeap
	VisitedRecords int64
}

// ScanKNN is the sharded verification scan of every exact search, for any
// k: it splits [0, n) across workers, hands fn its shard's Local — a heap
// of top's capacity seeded with top's neighbors — and offers every shard's
// heap into top in shard order. Each shard keeps the top-k of the seed and
// its range under NeighborLess, a total order, so the reduce is the top-k
// of the union wherever the shard boundaries fall: byte-identical for any
// worker count. The summed visit counter is returned even when fn failed
// (a partial count, top reduced from what the shards held), alongside the
// lowest-indexed shard's error. On a ctx error the shard heaps are never
// read (detached shards may still be writing them): top is untouched, the
// counter is zero, and the caller sees ctx.Err() and must discard.
func ScanKNN(ctx context.Context, workers, n int, top *KNNHeap,
	fn func(r Range, local *Local, cancelled func() bool) error,
) (visitedRecords int64, err error) {
	ranges := Split(n, workers)
	locals := make([]Local, len(ranges))
	seed := append([]Neighbor(nil), top.items...)
	err = scanRanges(ctx, ranges, func(i int, r Range, cancelled func() bool) error {
		locals[i].Top = NewKNNHeap(top.k)
		locals[i].Top.OfferAll(seed)
		return fn(r, &locals[i], cancelled)
	})
	if cerr := ctx.Err(); cerr != nil {
		return 0, cerr
	}
	for _, l := range locals {
		visitedRecords += l.VisitedRecords
		if l.Top != nil {
			top.OfferAll(l.Top.items)
		}
	}
	return visitedRecords, err
}
