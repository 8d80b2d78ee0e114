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
// source (one index, one LSM run, one memtable, one partition) is sorted, so
// it contributes its last W/2 records below the query key and its first W/2
// at or above it as one list already in the refined (key, encoded position)
// record order; Merge picks the global window from those lists by a k-way
// merge outward from the insertion point — which yields exactly the window a
// single sorted sequence of the union would produce, because the record
// order is strict.
package window

import (
	"slices"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
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
	// where a materialized index reads the record from its own leaf run.
	Ord int
}

// Source is one source's window contribution: records in record order
// (summary.RecordLess), the first Split of them with key < query key (the
// source's trailing half-window) and the rest with key >= query key (its
// leading half-window).
type Source struct {
	Cands []Cand
	Split int
}

// Merge combines per-source window contributions into the global window, in
// record order: the last half records below the query's insertion point and
// the first half at or above it, picked by a k-way merge outward from that
// point — below it the greatest record left at the sources' trailing ends,
// at or above it the least at their leading ends. The result is itself a
// Source, so merged windows merge again. A lone non-empty source is returned
// as it is, trimmed to the window: a subslice of its Cands, not a copy.
func Merge(half int, srcs ...Source) Source {
	nonEmpty, lone, nb, na := 0, 0, 0, 0
	for i, s := range srcs {
		if len(s.Cands) > 0 {
			nonEmpty, lone = nonEmpty+1, i
			nb += s.Split
			na += len(s.Cands) - s.Split
		}
	}
	nb, na = min(nb, half), min(na, half)
	switch nonEmpty {
	case 0:
		return Source{}
	case 1:
		s := srcs[lone]
		return Source{Cands: s.Cands[s.Split-nb : s.Split+na], Split: nb}
	}
	out := make([]Cand, nb+na)
	cur := make([]int, len(srcs))
	for i, s := range srcs {
		cur[i] = s.Split
	}
	for k := nb - 1; k >= 0; k-- {
		best := -1
		for i, s := range srcs {
			if cur[i] > 0 && (best < 0 || recordLess(&srcs[best].Cands[cur[best]-1], &s.Cands[cur[i]-1])) {
				best = i
			}
		}
		cur[best]--
		out[k] = srcs[best].Cands[cur[best]]
	}
	for i, s := range srcs {
		cur[i] = s.Split
	}
	for k := nb; k < nb+na; k++ {
		best := -1
		for i, s := range srcs {
			if cur[i] < len(s.Cands) && (best < 0 || recordLess(&s.Cands[cur[i]], &srcs[best].Cands[cur[best]])) {
				best = i
			}
		}
		out[k] = srcs[best].Cands[cur[best]]
		cur[best]++
	}
	return Source{Cands: out, Split: nb}
}

func recordLess(a, b *Cand) bool { return summary.RecordLess(a.Key, a.Pos, b.Key, b.Pos) }

// records is how many records an approximate search evaluates at radius 0
// around the query's sort position — the paper's "all data series in a
// specific radius from this specific point ... usually a disk page" (§4.3).
const records = 32

// Half is the one window rule: the per-side size of the window of
// 32×(radius+1) records over n records, saturated at n — a negative radius
// means 0, and a radius past what n records fill cannot overflow. Every
// index type sizes its sources' half-windows and their Merge with it.
func Half(radius, n int) int {
	radius = max(radius, 0)
	if radius >= 2*n/records {
		return n
	}
	return records * (radius + 1) / 2
}

// Eval evaluates the window for the k best: candidates are visited in
// ascending LB order (stable over the record order Merge produced, so the
// evaluation sequence is a pure function of the candidate list), stopping as
// soon as the next lower bound cannot beat the k-th best squared distance
// found, and abandoning each distance computation — taken on the encoded
// bytes — once it exceeds it. A record joins the top-k while fewer than k
// are held, and after that only by STRICTLY beating the k-th best, so with
// k = 1 the answer is the first strict improvement in evaluation order.
// fetch, called serially, loads the encoded series of one candidate,
// verified against whatever checksums guard it; the bytes are valid until
// its next call. Returns the top-k (position, SQUARED distance) ranked
// best-first — empty when cands is — and the number of records fetched.
func Eval(q series.Series, cands []Cand, k int, fetch func(c Cand) ([]byte, error)) (top []shard.Neighbor, visited int64, err error) {
	h := shard.NewKNNHeap(k)
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case cands[a].LB < cands[b].LB:
			return -1
		case cands[b].LB < cands[a].LB:
			return 1
		}
		return 0
	})
	for _, ci := range order {
		c := cands[ci]
		if c.LB >= h.Bound() {
			break
		}
		enc, err := fetch(c)
		if err != nil {
			return h.Sorted(), visited, err
		}
		visited++
		if sq, ok := series.SquaredEDEarlyAbandonEncoded(q, enc, h.Bound()); ok && sq < h.Bound() {
			h.Offer(shard.Neighbor{Pos: c.Pos, Dist: sq})
		}
	}
	return h.Sorted(), visited, nil
}
