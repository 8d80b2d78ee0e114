package summary

import (
	"context"
	"sync"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
)

// KeyScratch holds the reusable PAA and SAX buffers for repeated key
// computation on one goroutine. The zero value is ready to use; buffers are
// allocated on first use and reused afterwards, so a long-lived scratch
// makes per-series key computation allocation-free.
type KeyScratch struct {
	paa []float64
	sax SAX
}

// KeyOfScratch computes the sortable invSAX key of ser like KeyOf, reusing
// sc's buffers. sc must not be shared between goroutines.
func (s *Summarizer) KeyOfScratch(ser series.Series, sc *KeyScratch) (Key, error) {
	var err error
	if sc.paa, err = s.PAA(ser, sc.paa); err != nil {
		return Key{}, err
	}
	sc.sax = s.SAXFromPAA(sc.paa, sc.sax)
	return Interleave(sc.sax, s.p.CardBits), nil
}

// KeysOf computes the invSAX key of every series in batch, splitting the
// batch across workers goroutines (shard.Split: workers <= 0 means
// runtime.GOMAXPROCS(0), clamped to the batch size). Results are ordered
// like batch, so the output is identical for any worker count. Concurrent
// use is safe because the Summarizer is immutable; each worker reuses its
// own KeyScratch, so the per-series cost is allocation-free.
func (s *Summarizer) KeysOf(batch []series.Series, workers int) ([]Key, error) {
	keys := make([]Key, len(batch))
	// The batch passes of this file are CPU-only and fill buffers their
	// callers reuse, so they run to completion: there is nothing to cancel.
	err := shard.Scan(context.Background(), workers, len(batch), func(_ int, r shard.Range, _ func() bool) error {
		var sc KeyScratch
		for i := r.Lo; i < r.Hi; i++ {
			var err error
			if keys[i], err = s.KeyOfScratch(batch[i], &sc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// KeysInto fills out[i] with the squared lower bound for keys[i], sharding
// across workers goroutines. The table is read-only, so one table serves
// all shards — and, at the caller's level, all runs of a multi-run index.
// out must have at least len(keys) entries.
func (t *MinDistTable) KeysInto(keys []Key, out []float64, workers int) {
	if shard.Resolve(workers, len(keys)) == 1 {
		// Serial fast path: no range slice, no closure, no goroutine — the
		// whole pass is allocation-free.
		t.bounds(keys, out)
		return
	}
	// The shard body cannot fail, so neither can the scan.
	_ = shard.Scan(context.Background(), workers, len(keys), func(_ int, r shard.Range, _ func() bool) error {
		t.bounds(keys[r.Lo:r.Hi], out[r.Lo:r.Hi])
		return nil
	})
}

// Cand is one key that passed a Filter: the identifier the caller gave it
// and its squared lower bound.
type Cand struct {
	ID int64
	LB float64
}

// filterTile is how many keys Filter lower-bounds at a time: the bounds of
// a tile (2 KiB) live on the stack and are scanned for survivors while
// still in L1, so a pass over N keys materializes O(candidates), not O(N).
// It is also the unit Filter skips whole.
const filterTile = 256

// Filter is the fused SIMS lower-bound pass: it appends to dst, in key
// order, a Cand for every key whose squared lower bound is below limit, and
// returns the extended slice. A candidate's ID is ids[i] — ids runs
// parallel to keys — or the key's index i when ids is nil. keys must be
// sorted: a tile whose first-to-last Range is at or above limit holds no
// candidate and is skipped without a per-key bound. The keys are sharded
// across workers goroutines and the shards' survivors concatenated in shard
// order, so the result is identical for any worker count; with one worker
// nothing is allocated beyond dst's growth.
func (t *MinDistTable) Filter(dst []Cand, keys []Key, ids []int64, limit float64, workers int) []Cand {
	shards := shard.Resolve(workers, len(keys))
	if shards == 1 {
		dst, _ = t.filterRange(dst, keys, ids, shard.Range{Hi: len(keys)}, limit)
		return dst
	}
	parts := make([][]Cand, shards)
	parts[0] = dst
	// The shard body cannot fail, so neither can the scan.
	_ = shard.Scan(context.Background(), workers, len(keys), func(si int, r shard.Range, _ func() bool) error {
		parts[si], _ = t.filterRange(parts[si], keys, ids, r, limit)
		return nil
	})
	dst = parts[0]
	for _, part := range parts[1:] {
		dst = append(dst, part...)
	}
	return dst
}

// filterRange is Filter over keys[r.Lo:r.Hi] on one goroutine; it also
// returns how many keys it skipped in whole tiles.
func (t *MinDistTable) filterRange(dst []Cand, keys []Key, ids []int64, r shard.Range, limit float64) (_ []Cand, skipped int) {
	var lbs [filterTile]float64
	for lo := r.Lo; lo < r.Hi; lo += filterTile {
		tile := keys[lo:min(lo+filterTile, r.Hi)]
		if t.Range(&tile[0], &tile[len(tile)-1]) >= limit {
			skipped += len(tile)
			continue
		}
		t.bounds(tile, lbs[:])
		for i, lb := range lbs[:len(tile)] {
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
