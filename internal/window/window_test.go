package window

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/summary"
)

// referenceMerge is the window a single sorted sequence of the union
// yields: every source's records below the query key sorted under the
// record order and trimmed to the last half, then those at or above it
// sorted and trimmed to the first half.
func referenceMerge(half int, srcs []Source) Source {
	var below, above []Cand
	for _, s := range srcs {
		below = append(below, s.Cands[:s.Split]...)
		above = append(above, s.Cands[s.Split:]...)
	}
	slices.SortFunc(below, compareCand)
	slices.SortFunc(above, compareCand)
	below = below[len(below)-min(len(below), half):]
	above = above[:min(len(above), half)]
	return Source{Cands: append(below, above...), Split: len(below)}
}

func compareCand(a, b Cand) int {
	switch {
	case recordLess(&a, &b):
		return -1
	case recordLess(&b, &a):
		return 1
	}
	return 0
}

// sortedSource puts cs in record order and splits it at the query key.
func sortedSource(cs []Cand, query summary.Key) Source {
	slices.SortFunc(cs, compareCand)
	split := 0
	for split < len(cs) && cs[split].Key.Less(query) {
		split++
	}
	return Source{Cands: cs, Split: split}
}

// randomSources splits n records of unique positions over nsrc sources,
// each in record order and split at the query key. Keys come from a few
// values only, so equal keys sit in several sources at different positions,
// on both sides of the query key and at it.
func randomSources(rng *rand.Rand, nsrc, n int) []Source {
	var query summary.Key
	query[0] = 2
	keyOf := func(v int) summary.Key {
		var k summary.Key
		k[0] = byte(v)
		return k
	}
	cands := make([][]Cand, nsrc)
	for i, pos := range rng.Perm(n) {
		if nsrc == 0 {
			break
		}
		s := rng.Intn(nsrc)
		// Shifted positions stay unique below 256 records, and their
		// encoded-position order is not the integer one.
		cands[s] = append(cands[s], Cand{Key: keyOf(rng.Intn(5)), Pos: int64(pos) << (8 * (i % 3)), LB: float64(i), Ord: i})
	}
	srcs := make([]Source, nsrc)
	for i, cs := range cands {
		srcs[i] = sortedSource(cs, query)
	}
	return srcs
}

func total(srcs []Source) int {
	n := 0
	for _, s := range srcs {
		n += len(s.Cands)
	}
	return n
}

// TestMergeMatchesReference holds Merge to the sort-and-trim reference on
// random sources: none to eight of them, some empty, equal keys at
// different positions, and half of 0, 1, a few and at least the total.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		nsrc := rng.Intn(9)
		srcs := randomSources(rng, nsrc, rng.Intn(60))
		for _, half := range []int{0, 1, 3, 10, total(srcs), total(srcs) + 5} {
			got, want := Merge(half, srcs...), referenceMerge(half, srcs)
			if !slices.Equal(got.Cands, want.Cands) || got.Split != want.Split {
				t.Fatalf("iter %d, %d sources of %d records, half %d: merged %d split at %d, reference %d split at %d",
					iter, nsrc, total(srcs), half, len(got.Cands), got.Split, len(want.Cands), want.Split)
			}
		}
	}
}

// TestHalf pins the window rule: 16×(radius+1) records a side, a negative
// radius as 0, and every record once the window would cover them all —
// also at a radius whose window size would overflow an int.
func TestHalf(t *testing.T) {
	for _, c := range []struct{ radius, n, want int }{
		{0, 1000, 16}, {1, 1000, 32}, {2, 1000, 48}, {-5, 1000, 16},
		{61, 1000, 992}, {62, 1000, 1000}, {0, 10, 10}, {0, 0, 0},
		{math.MaxInt, 1000, 1000}, {math.MaxInt / 16, 1 << 40, 1 << 40},
	} {
		if got := Half(c.radius, c.n); got != c.want {
			t.Fatalf("Half(%d, %d) = %d, want %d", c.radius, c.n, got, c.want)
		}
	}
}

// TestMergeLoneSource: a lone non-empty source — also beside empty ones —
// comes back as a subslice of its own records, not a copy.
func TestMergeLoneSource(t *testing.T) {
	srcs := randomSources(rand.New(rand.NewSource(2)), 1, 40)
	lone := srcs[0]
	if lone.Split == 0 || lone.Split == len(lone.Cands) {
		t.Fatalf("fixture splits %d records at %d; want records on both sides", len(lone.Cands), lone.Split)
	}
	got := Merge(5, Source{}, lone, Source{})
	want := referenceMerge(5, []Source{lone})
	if !slices.Equal(got.Cands, want.Cands) || got.Split != want.Split {
		t.Fatalf("lone source merged to %d split at %d, reference %d split at %d", len(got.Cands), got.Split, len(want.Cands), want.Split)
	}
	if &got.Cands[0] != &lone.Cands[lone.Split-got.Split] {
		t.Fatal("a lone source's window is a copy, not a subslice of its records")
	}
	if w := Merge(5); len(w.Cands) != 0 || w.Split != 0 {
		t.Fatalf("no sources merged to %d records split at %d", len(w.Cands), w.Split)
	}
}

// FuzzMerge checks Merge against the reference on sources built from
// arbitrary bytes: each byte pair is one record — the source it goes to
// and its key — and half comes from the fuzzer too.
func FuzzMerge(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{0, 1, 1, 2, 2, 3, 0, 2, 1, 1})
	f.Add(uint8(1), uint8(0), []byte{0, 0})
	f.Add(uint8(8), uint8(50), []byte{7, 4, 6, 2, 5, 2, 4, 2, 3, 0, 2, 1, 1, 9, 0, 2})
	f.Fuzz(func(t *testing.T, nsrc, half uint8, recs []byte) {
		nsrc %= 9
		if nsrc == 0 {
			recs = nil
		}
		var query summary.Key
		query[0] = 2
		cands := make([][]Cand, nsrc)
		for i := 0; i+1 < len(recs); i += 2 {
			var k summary.Key
			k[0], k[1] = recs[i+1]%5, byte(i/2)%2
			s := int(recs[i]) % int(nsrc)
			cands[s] = append(cands[s], Cand{Key: k, Pos: int64(i) * 7919, Ord: i})
		}
		srcs := make([]Source, nsrc)
		for i, cs := range cands {
			srcs[i] = sortedSource(cs, query)
		}
		got, want := Merge(int(half), srcs...), referenceMerge(int(half), srcs)
		if !slices.Equal(got.Cands, want.Cands) || got.Split != want.Split {
			t.Fatalf("%d sources, half %d: merged %v, reference %v", nsrc, half, got, want)
		}
	})
}
