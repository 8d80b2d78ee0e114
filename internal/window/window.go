// Package window implements the approximate-search candidate window as a
// pure function of the indexed record multiset: the W records surrounding
// the query key's insertion position in the GLOBAL sorted (key, position)
// sequence, evaluated in ascending lower-bound order with early abandon.
//
// Because the window depends only on the sorted record multiset — not on
// leaf geometry, LSM run layout, or partition boundaries — every
// composition of the same records answers approximate queries
// byte-identically: a monolithic index, the same index reopened, an LSM
// tree after any flush/compaction history, and an N-way partitioned index
// all produce the same candidate list and therefore the same answer. Each
// source (one index, one LSM run, one memtable, one partition) contributes
// its last W/2 records below the query key and its first W/2 at or above
// it; Merge re-sorts the contributions under the refined (key, encoded
// position) record order and trims to the global window — the standard
// k-way top-k merge, which yields exactly the window a single sorted
// sequence of the union would produce.
package window

import (
	"math"
	"math/bits"
	"sort"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/summary"
)

// Cand is one window candidate.
type Cand struct {
	// Key is the record's invSAX key.
	Key summary.Key
	// Pos is the record's ordinal in the raw dataset.
	Pos int64
	// LB is the squared lower bound of the record's distance to the query.
	LB float64
	// Src identifies the contributing source (partition ordinal); the
	// contributor leaves it 0 and a multi-source merger rewrites it so its
	// fetch dispatch finds the owner.
	Src int
	// Ord is the record's ordinal within the source's sorted sequence —
	// the handle the source's fetcher uses to locate the record (e.g. a
	// leaf-relative slot in a materialized index).
	Ord int
}

// LePosLess orders positions by their little-endian byte encoding — the
// tie-break the external sort's full-record comparison applies to equal
// keys, so (Key, LePosLess) is exactly the persisted record order.
func LePosLess(a, b int64) bool {
	return bits.ReverseBytes64(uint64(a)) < bits.ReverseBytes64(uint64(b))
}

// Less is the refined total record order: key first, encoded position as
// the tie-break. Positions are unique, so the order is strict.
func Less(a, b Cand) bool {
	if c := a.Key.Compare(b.Key); c != 0 {
		return c < 0
	}
	return LePosLess(a.Pos, b.Pos)
}

// Merge combines per-source window contributions into the global window:
// below holds each source's trailing records with key < query key, above
// each source's leading records with key >= query key (concatenated in any
// order). Both groups are sorted under Less and trimmed to half records
// each — the last half below the insertion point and the first half at or
// above it — returning the merged window in record order.
func Merge(below, above []Cand, half int) []Cand {
	sort.Slice(below, func(i, j int) bool { return Less(below[i], below[j]) })
	sort.Slice(above, func(i, j int) bool { return Less(above[i], above[j]) })
	if len(below) > half {
		below = below[len(below)-half:]
	}
	if len(above) > half {
		above = above[:half]
	}
	out := make([]Cand, 0, len(below)+len(above))
	out = append(out, below...)
	return append(out, above...)
}

// FetchFunc loads the encoded raw series of one candidate, already verified
// against whatever checksums guard it: into buf (one encoded series long)
// when the bytes have to be read, or as a slice of storage the fetcher owns.
// The result is valid until the next call. Fetchers are per-query state
// (they may cache leaf pages) and are called serially.
type FetchFunc func(c Cand, buf []byte) (enc []byte, err error)

// Eval evaluates the window: candidates are visited in ascending LB order
// (stable over the record order Merge produced, so the evaluation sequence
// is a pure function of the candidate list), stopping as soon as the next
// lower bound cannot beat the best squared distance found, and abandoning
// each distance computation — taken on the encoded bytes — once it exceeds
// the running best. buf is fetch's read buffer. Returns the best (position,
// SQUARED distance) — (-1, +Inf) when cands is empty — and the number of
// records fetched.
func Eval(q series.Series, cands []Cand, fetch FetchFunc, buf []byte) (pos int64, sqDist float64, visited int64, err error) {
	pos, sqDist = -1, math.Inf(1)
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cands[order[a]].LB < cands[order[b]].LB })
	for _, ci := range order {
		c := cands[ci]
		if c.LB >= sqDist {
			break
		}
		enc, err := fetch(c, buf)
		if err != nil {
			return pos, sqDist, visited, err
		}
		visited++
		if sq, ok := series.SquaredEDEarlyAbandonEncoded(q, enc, sqDist); ok && sq < sqDist {
			sqDist, pos = sq, c.Pos
		}
	}
	return pos, sqDist, visited, nil
}
