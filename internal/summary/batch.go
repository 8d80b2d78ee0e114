package summary

import (
	"context"
	"fmt"
	"sync"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
)

// KeysOf computes the invSAX key of every series in batch: it encodes the
// batch in the raw file format and keys it with KeysOfEncoded.
func (s *Summarizer) KeysOf(batch []series.Series, workers int) ([]Key, error) {
	enc := make([]byte, 0, len(batch)*series.EncodedSize(s.p.SeriesLen))
	for _, ser := range batch {
		if len(ser) != s.p.SeriesLen {
			return nil, fmt.Errorf("summary: series length %d, summarizer expects %d", len(ser), s.p.SeriesLen)
		}
		enc = series.AppendEncode(enc, ser)
	}
	return s.KeysOfEncoded(enc, workers), nil
}

// KeysOfEncoded computes the invSAX key of every series of enc — a batch in
// the raw file format, len(enc)/EncodedSize(SeriesLen) series back to back
// — splitting it across workers goroutines (shard.Split: workers <= 0 means
// runtime.GOMAXPROCS(0), clamped to the batch size). Each series is keyed in
// place by KeyOfEncoded, so the per-series cost is allocation-free. Results
// are ordered like the batch, so the output is identical for any worker
// count.
func (s *Summarizer) KeysOfEncoded(enc []byte, workers int) []Key {
	size := series.EncodedSize(s.p.SeriesLen)
	keys := make([]Key, len(enc)/size)
	// The batch passes of this file are CPU-only and fill buffers their
	// callers reuse, so they run to completion: there is nothing to cancel.
	_ = shard.Scan(context.Background(), workers, len(keys), func(_ int, r shard.Range, _ func() bool) error {
		for i := r.Lo; i < r.Hi; i++ {
			keys[i] = s.KeyOfEncoded(enc[i*size : (i+1)*size])
		}
		return nil
	})
	return keys
}

// KeysInto fills out[i] with the squared lower bound for keys[i], sharding
// across workers goroutines. The table is read-only, so one table serves
// all shards — and, at the caller's level, all runs of a multi-run index.
// out must have at least len(keys) entries.
func (t *MinDistTable) KeysInto(keys []Key, out []float64, workers int) {
	if shard.Resolve(workers, len(keys)) == 1 {
		// Serial fast path: no range slice, no closure, no goroutine — the
		// whole pass is allocation-free.
		t.keyBounds(keys, out)
		return
	}
	// The shard body cannot fail, so neither can the scan.
	_ = shard.Scan(context.Background(), workers, len(keys), func(_ int, r shard.Range, _ func() bool) error {
		t.keyBounds(keys[r.Lo:r.Hi], out[r.Lo:r.Hi])
		return nil
	})
}

// Cand is one summary that passed a Filter: the identifier the caller gave
// it and its squared lower bound.
type Cand struct {
	ID int64
	LB float64
}

// filterTile is how many summaries Filter lower-bounds at a time: the
// bounds of a tile (2 KiB) live on the stack and are scanned for survivors
// while still in L1, so a pass over N summaries materializes O(candidates),
// not O(N). It is also the unit Filter skips whole.
const filterTile = 256

// Filter is the fused SIMS lower-bound pass over a sorted column of the
// table's shape — a tree's summary array: it appends to dst, in
// row order, a Cand for every row whose squared lower bound is below limit,
// and returns the extended slice. A candidate's ID is ids[i] — ids runs
// parallel to the rows — or the row's index i when ids is nil. A tile whose
// first-to-last Range is at or above limit holds no candidate and is
// skipped without a per-row bound. The rows are sharded across workers
// goroutines and the shards' survivors concatenated in shard order, so the
// result is identical for any worker count; with one worker nothing is
// allocated beyond dst's growth.
func (t *MinDistTable) Filter(dst []Cand, col Column, ids []int64, limit float64, workers int) []Cand {
	return t.filter(dst, col.Syms, nil, col.Len(), ids, limit, workers)
}

// FilterKeys is Filter over sorted keys — the LSM's decoded run blocks,
// which its block cache holds as keys — bounded by the key kernel
// (keyBounds) and skipped by KeyRange.
func (t *MinDistTable) FilterKeys(dst []Cand, keys []Key, ids []int64, limit float64, workers int) []Cand {
	return t.filter(dst, nil, keys, len(keys), ids, limit, workers)
}

// filter shards Filter and FilterKeys: n summaries, the rows of syms or,
// when keys is not nil, keys.
func (t *MinDistTable) filter(dst []Cand, syms []uint8, keys []Key, n int, ids []int64, limit float64, workers int) []Cand {
	shards := shard.Resolve(workers, n)
	if shards == 1 {
		dst, _ = t.filterRange(dst, syms, keys, ids, shard.Range{Hi: n}, limit)
		return dst
	}
	parts := make([][]Cand, shards)
	parts[0] = dst
	// The shard body cannot fail, so neither can the scan.
	_ = shard.Scan(context.Background(), workers, n, func(si int, r shard.Range, _ func() bool) error {
		parts[si], _ = t.filterRange(parts[si], syms, keys, ids, r, limit)
		return nil
	})
	dst = parts[0]
	for _, part := range parts[1:] {
		dst = append(dst, part...)
	}
	return dst
}

// filterRange is filter over summaries [r.Lo, r.Hi) on one goroutine; it
// also returns how many it skipped in whole tiles.
func (t *MinDistTable) filterRange(dst []Cand, syms []uint8, keys []Key, ids []int64, r shard.Range, limit float64) (_ []Cand, skipped int) {
	w := t.segments
	var lbs [filterTile]float64
	for lo := r.Lo; lo < r.Hi; lo += filterTile {
		hi := min(lo+filterTile, r.Hi)
		var span float64
		if keys != nil {
			span = t.KeyRange(&keys[lo], &keys[hi-1])
		} else {
			span = t.Range(syms[lo*w:(lo+1)*w], syms[(hi-1)*w:hi*w])
		}
		if span >= limit {
			skipped += hi - lo
			continue
		}
		if keys != nil {
			t.keyBounds(keys[lo:hi], lbs[:hi-lo])
		} else {
			t.rows(syms[lo*w:hi*w], lbs[:hi-lo])
		}
		for i, lb := range lbs[:hi-lo] {
			if lb < limit {
				id := int64(lo + i)
				if ids != nil {
					id = ids[lo+i]
				}
				dst = append(dst, Cand{ID: id, LB: lb})
			}
		}
	}
	return dst, skipped
}

// Pass is the per-query state of a SIMS lower-bound pass — the query's
// MinDistTable and the candidate buffer its Filter calls fill — recycled
// through a pool so that a query allocates neither.
//
// The pool is process-wide rather than hung off an index handle so that an
// idle index holds no scratch at all: a garbage collection empties it.
type Pass struct {
	Table MinDistTable
	Cands []Cand
}

var passPool = sync.Pool{New: func() any { return new(Pass) }}

// NewPass takes a Pass from the pool and builds its table for the query
// series q; Cands comes back empty.
func (s *Summarizer) NewPass(q series.Series) (*Pass, error) {
	p := passPool.Get().(*Pass)
	var err error
	if p.Table.paa, err = s.PAA(q, p.Table.paa); err != nil {
		passPool.Put(p)
		return nil, err
	}
	s.fillTable(&p.Table)
	p.Cands = p.Cands[:0]
	return p, nil
}

// Release returns p to the pool. Nothing may still be reading Table or
// Cands: after a fan-out that a cancelled context cut short, abandoned
// shards may be, and the pass must be dropped instead.
func (p *Pass) Release() { passPool.Put(p) }
