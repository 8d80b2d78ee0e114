package lsm

import (
	"sort"

	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/summary"
)

// This file is the run storage-backend seam. A run is either legacy —
// whole key/position arrays resident in memory (r.keys, r.positions) — or
// block-compressed: r.rb holds a runblock.Reader (a tiny block directory
// over the on-disk file) and key data is decoded block by block through
// the shared cache, so resident memory stays bounded by the cache budget
// no matter how large the run is. Every query path goes through these
// methods; the in-memory backend presents its arrays as one big block, so
// the two backends traverse records in the same order and answers are
// byte-identical by construction.

// compressed reports whether the run uses the block-compressed backend.
func (r *run) compressed() bool { return r.rb != nil }

// minKey returns the run's smallest key. Only valid when count > 0.
func (r *run) minKey() summary.Key {
	if r.rb != nil {
		return r.rb.MinKey()
	}
	return r.keys[0]
}

// maxKey returns the run's largest key. Only valid when count > 0.
func (r *run) maxKey() summary.Key {
	if r.rb != nil {
		return r.rb.MaxKey()
	}
	return r.keys[len(r.keys)-1]
}

// searchKey returns the insertion index of key in the run's sorted key
// sequence: the smallest i with key <= keys[i], or count when every key
// is smaller. The compressed backend decodes at most one block.
func (r *run) searchKey(key summary.Key) (int64, error) {
	if r.rb != nil {
		return r.rb.Search(key)
	}
	return int64(sort.Search(len(r.keys), func(i int) bool { return !r.keys[i].Less(key) })), nil
}

// each streams records [lo, hi) in order (bounds clamped), decoding only
// the touched blocks on the compressed backend.
func (r *run) each(lo, hi int64, fn func(key summary.Key, pos int64) error) error {
	if r.rb != nil {
		return r.rb.Range(lo, hi, fn)
	}
	if lo < 0 {
		lo = 0
	}
	if hi > int64(len(r.keys)) {
		hi = int64(len(r.keys))
	}
	for i := lo; i < hi; i++ {
		if err := fn(r.keys[i], r.positions[i]); err != nil {
			return err
		}
	}
	return nil
}

// eachBlock yields the run's records as consecutive (keys, positions)
// batches — the unit the exact-search lower-bound pass and the coverage
// scans consume — valid only until fn returns. The in-memory backend yields
// its whole arrays as a single batch; the compressed backend yields one
// decoded block at a time (runblock.Reader.Scan: a cache hit, or a decode
// that enters the shared cache only where there is room, so a full-run scan
// never materializes the whole run and never evicts what point lookups
// cached).
func (r *run) eachBlock(fn func(keys []summary.Key, positions []int64) error) error {
	if r.rb == nil {
		if len(r.keys) == 0 {
			return nil
		}
		return fn(r.keys, r.positions)
	}
	return r.rb.Scan(func(blk *runblock.Block) error { return fn(blk.Keys, blk.Pos) })
}

// close releases the compressed backend's file handle and drops its
// cached blocks. No-op for the in-memory backend (whose file was closed
// right after the load).
func (r *run) close() error {
	if r.rb == nil {
		return nil
	}
	err := r.rb.Close()
	r.rb = nil
	return err
}

// closeRunsLocked closes every run's backend, keeping the first error —
// the teardown half of the open/swap lifecycle.
func (ix *Index) closeRunsLocked() error {
	var first error
	for _, r := range ix.runs {
		if err := r.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
