package summary

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// columnShapes are the shapes the column-kernel identity tests sweep: both
// unrolled segment counts, two the generic loop serves, and three wider
// than 16 segments, whose rows cost more than their 16-byte keys.
var columnShapes = []Params{
	{SeriesLen: 64, Segments: 8, CardBits: 8},
	{SeriesLen: 64, Segments: 16, CardBits: 8},
	{SeriesLen: 60, Segments: 10, CardBits: 5},
	{SeriesLen: 64, Segments: 16, CardBits: 3},
	{SeriesLen: 64, Segments: 32, CardBits: 4},
	{SeriesLen: 128, Segments: 64, CardBits: 2},
	{SeriesLen: 128, Segments: 128, CardBits: 1},
}

// sortedWordKeys returns n keys of Interleave'd random words of shape p,
// sorted by Key.Compare, in runs sharing prefixes of random lengths so that
// tiles have ranges of every width; and a few duplicates.
func sortedWordKeys(rng *rand.Rand, p Params, n int) []Key {
	keys := make([]Key, 0, n)
	word := make(SAX, p.Segments)
	for len(keys) < n {
		var base Key
		for j := range word {
			word[j] = uint8(rng.Intn(p.Cardinality()))
		}
		base = Interleave(word, p.CardBits)
		prefix := rng.Intn(p.Segments*p.CardBits + 1)
		for _, k := range keysSharing(rng, base, prefix, 1+rng.Intn(40)) {
			// Drop the bits past the last row, as a key of a word has none.
			keys = append(keys, Interleave(Deinterleave(k, p.Segments, p.CardBits), p.CardBits))
		}
		if rng.Intn(4) == 0 {
			keys = append(keys, keys[len(keys)-1])
		}
	}
	keys = keys[:n]
	slices.SortFunc(keys, Key.Compare)
	return keys
}

// perKeyFilter is the reference Filter: the direct kernel on every key's
// word, kept under limit, in order.
func perKeyFilter(s *Summarizer, qPAA []float64, keys []Key, ids []int64, limit float64) []Cand {
	p := s.Params()
	var out []Cand
	for i, k := range keys {
		if lb := s.MinDistSqPAAToSAX(qPAA, Deinterleave(k, p.Segments, p.CardBits)); lb < limit {
			id := int64(i)
			if ids != nil {
				id = ids[i]
			}
			out = append(out, Cand{ID: id, LB: lb})
		}
	}
	return out
}

// checkColumn holds the column form of sorted keys to the key form: rows
// re-interleave to their keys, CompareRows agrees with Key.Compare on
// every adjacent pair and on pairs
// picked by pick, Search agrees with a linear search, and Range over two
// rows is the box minimum of the two keys.
func checkColumn(t *testing.T, s *Summarizer, qPAA []float64, keys []Key, col Column, pick func(n int) int) {
	t.Helper()
	p := s.Params()
	tbl := s.BuildMinDistTable(qPAA, nil)
	shape := fmt.Sprintf("%dx%d", p.Segments, p.CardBits)
	if col.Len() != len(keys) || len(col.Syms) != len(keys)*p.Segments {
		t.Fatalf("%s: column of %d rows (%d bytes) for %d keys", shape, col.Len(), len(col.Syms), len(keys))
	}
	for i, k := range keys {
		if got := col.Key(i); got != k {
			t.Fatalf("%s: row %d re-interleaves to %v, key %v", shape, i, got, k)
		}
	}
	pairs := [][2]int{{0, len(keys) - 1}}
	for i := 1; i < len(keys); i++ {
		pairs = append(pairs, [2]int{i - 1, i}, [2]int{pick(len(keys)), pick(len(keys))})
	}
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		if got, want := CompareRows(col.Row(a), col.Row(b)), keys[a].Compare(keys[b]); got != want {
			t.Fatalf("%s: CompareRows(%d, %d) = %d, Key.Compare %d", shape, a, b, got, want)
		}
		if a > b {
			a, b = b, a
		}
		if got, want := tbl.Range(col.Row(a), col.Row(b)), boxMin(s, qPAA, keys[a], keys[b]); got != want {
			t.Fatalf("%s: Range(%d, %d) = %v, box minimum %v", shape, a, b, got, want)
		}
		if got, want := col.Search(col.Row(a)), slices.IndexFunc(keys, func(k Key) bool { return !k.Less(keys[a]) }); got != want {
			t.Fatalf("%s: Search(row %d) = %d, linear search %d", shape, a, got, want)
		}
	}
}

// TestColumnKernelIdentity: on every shape of columnShapes, for any worker
// count and limits from 0 through the median bound to +Inf, Filter over a
// column and FilterKeys over its keys return exactly the IDs, lower bounds
// and order of a per-key MinDistSqPAAToSAX filter, and KeysInto equals the
// direct kernel; the column agrees with its keys (checkColumn).
func TestColumnKernelIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, p := range columnShapes {
		s, err := NewSummarizer(p)
		if err != nil {
			t.Fatal(err)
		}
		keys := sortedWordKeys(rng, p, 1500)
		col := s.ColumnOf(keys)
		ids := make([]int64, len(keys))
		for i := range ids {
			ids[i] = int64(7*i + 3)
		}
		for trial := 0; trial < 4; trial++ {
			qPAA := edgePAA(rng, s)
			checkColumn(t, s, qPAA, keys, col, rng.Intn)
			tbl := s.BuildMinDistTable(qPAA, nil)
			all := perKeyFilter(s, qPAA, keys, nil, math.Inf(1))
			lbs := make([]float64, len(all))
			for i, c := range all {
				lbs[i] = c.LB
			}
			sorted := slices.Clone(lbs)
			slices.Sort(sorted)
			for _, workers := range []int{1, 2, 3, 8} {
				out := make([]float64, len(keys))
				tbl.KeysInto(keys, out, workers)
				if !slices.Equal(out, lbs) {
					t.Fatalf("%dx%d workers=%d: KeysInto differs from the direct kernel", p.Segments, p.CardBits, workers)
				}
				for _, limit := range []float64{0, sorted[0], sorted[len(sorted)/20], sorted[len(sorted)/2], math.Inf(1)} {
					if got, want := tbl.Filter(nil, col, nil, limit, workers), perKeyFilter(s, qPAA, keys, nil, limit); !slices.Equal(got, want) {
						t.Fatalf("%dx%d workers=%d limit %v: Filter kept %d, per-key filter %d (or a different list)", p.Segments, p.CardBits, workers, limit, len(got), len(want))
					}
					want := perKeyFilter(s, qPAA, keys, ids, limit)
					if got := tbl.Filter(nil, col, ids, limit, workers); !slices.Equal(got, want) {
						t.Fatalf("%dx%d workers=%d limit %v: Filter by ID kept %d, per-key filter %d (or a different list)", p.Segments, p.CardBits, workers, limit, len(got), len(want))
					}
					if got := tbl.FilterKeys(nil, keys, ids, limit, workers); !slices.Equal(got, want) {
						t.Fatalf("%dx%d workers=%d limit %v: FilterKeys kept %d, per-key filter %d (or a different list)", p.Segments, p.CardBits, workers, limit, len(got), len(want))
					}
				}
			}
		}
	}
}

// FuzzColumnKernel feeds arbitrary symbol bytes, shapes and queries to the
// column: the rows, sorted by their keys, must agree with those keys
// (checkColumn), and Filter over them must equal the per-key filter.
func FuzzColumnKernel(f *testing.F) {
	f.Add([]byte("coconut-invsax!!coconut-invsax!!coconut-invsax!!"), uint8(16), uint8(8), int64(1))
	f.Add(make([]byte, 64), uint8(8), uint8(8), int64(2))
	f.Add([]byte("\xff\x00\xaa\x55\x0f\xf0\x33\xcc\x01\x80\x7e\xe7\x5a\xa5\x3c\xc3\x00\xff"), uint8(10), uint8(5), int64(3))
	f.Add([]byte("sortable summarizations, static and streaming"), uint8(127), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, raw []byte, wRaw, bRaw uint8, seed int64) {
		b := int(bRaw%8) + 1
		w := int(wRaw)%(KeyBits/b) + 1
		s, err := NewSummarizer(Params{SeriesLen: w, Segments: w, CardBits: b})
		if err != nil {
			t.Fatal(err)
		}
		// Rows of the fuzzer's bytes, symbols masked to the alphabet; at
		// least two, so there is a pair.
		var keys []Key
		for lo := 0; lo < len(raw) || len(keys) < 2; lo += w {
			word := make(SAX, w)
			for j := range word {
				if lo+j < len(raw) {
					word[j] = raw[lo+j] & uint8(1<<b-1)
				}
			}
			keys = append(keys, Interleave(word, b))
		}
		slices.SortFunc(keys, Key.Compare)
		rng := rand.New(rand.NewSource(seed))
		qPAA := edgePAA(rng, s)
		col := s.ColumnOf(keys)
		checkColumn(t, s, qPAA, keys, col, rng.Intn)
		tbl := s.BuildMinDistTable(qPAA, nil)
		for _, limit := range []float64{0, tbl.Key(keys[len(keys)/2]), math.Inf(1)} {
			if got, want := tbl.Filter(nil, col, nil, limit, 1), perKeyFilter(s, qPAA, keys, nil, limit); !slices.Equal(got, want) {
				t.Fatalf("%dx%d limit %v: Filter kept %v, per-key filter %v", w, b, limit, got, want)
			}
		}
	})
}

// TestColumnPassesAllocationFree: KeysInto and a one-worker Filter or
// FilterKeys into a buffer with room allocate nothing, so neither does a
// query's lower-bound pass beyond its candidate list's growth.
func TestColumnPassesAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []Params{{SeriesLen: 64, Segments: 16, CardBits: 8}, {SeriesLen: 60, Segments: 10, CardBits: 5}} {
		s, err := NewSummarizer(p)
		if err != nil {
			t.Fatal(err)
		}
		keys := sortedWordKeys(rng, p, 3000)
		col := s.ColumnOf(keys)
		tbl := s.BuildMinDistTable(edgePAA(rng, s), nil)
		out := make([]float64, len(keys))
		dst := make([]Cand, 0, len(keys))
		if n := testing.AllocsPerRun(20, func() { tbl.KeysInto(keys, out, 1) }); n != 0 {
			t.Errorf("%dx%d: KeysInto allocates %v times", p.Segments, p.CardBits, n)
		}
		if n := testing.AllocsPerRun(20, func() { dst = tbl.Filter(dst[:0], col, nil, math.Inf(1), 1) }); n != 0 {
			t.Errorf("%dx%d: Filter allocates %v times", p.Segments, p.CardBits, n)
		}
		if n := testing.AllocsPerRun(20, func() { dst = tbl.FilterKeys(dst[:0], keys, nil, math.Inf(1), 1) }); n != 0 {
			t.Errorf("%dx%d: FilterKeys allocates %v times", p.Segments, p.CardBits, n)
		}
		if n := testing.AllocsPerRun(20, func() { _ = tbl.Key(keys[7]) + tbl.KeyRange(&keys[0], &keys[9]) }); n != 0 {
			t.Errorf("%dx%d: Key and KeyRange allocate %v times", p.Segments, p.CardBits, n)
		}
	}
}
