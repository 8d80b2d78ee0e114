package summary

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
)

// rangeShapes are the shapes the range-bound tests sweep: both whole-byte-row
// segment counts, which take the transpose kernels, and two that take the
// reference loop.
var rangeShapes = []Params{
	{SeriesLen: 64, Segments: 8, CardBits: 8},
	{SeriesLen: 64, Segments: 16, CardBits: 8},
	{SeriesLen: 60, Segments: 10, CardBits: 5},
	{SeriesLen: 64, Segments: 16, CardBits: 3},
}

// edgePAA draws a query PAA whose values include exact breakpoints (where
// two regions hold the value), the alphabet's ends, and values past them.
func edgePAA(rng *rand.Rand, s *Summarizer) []float64 {
	bp := s.Breakpoints()
	paa := make([]float64, s.Params().Segments)
	for j := range paa {
		switch rng.Intn(5) {
		case 0:
			paa[j] = bp[rng.Intn(len(bp))]
		case 1:
			paa[j] = []float64{bp[0], bp[len(bp)-1], -40, 40}[rng.Intn(4)]
		default:
			paa[j] = rng.NormFloat64()
		}
	}
	return paa
}

// keysSharing returns n keys that agree with base on its first prefixLen
// bits and are random after them, sorted.
func keysSharing(rng *rand.Rand, base Key, prefixLen, n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		rng.Read(keys[i][:])
		for bit := 0; bit < prefixLen; bit++ {
			m := byte(1) << uint(7-bit&7)
			keys[i][bit>>3] = keys[i][bit>>3]&^m | base[bit>>3]&m
		}
	}
	slices.SortFunc(keys, Key.Compare)
	return keys
}

// boxMin is the reference for Range: per segment, the smallest kernel term
// over every symbol the common prefix of lo and hi leaves open, enumerated
// symbol by symbol and summed in segment order.
func boxMin(s *Summarizer, qPAA []float64, lo, hi Key) float64 {
	p := s.Params()
	syms, bits := make(SAX, p.Segments), make([]uint8, p.Segments)
	KeyPrefix(lo, CommonPrefixBits(lo, hi, p.Segments*p.CardBits), p.CardBits, syms, bits)
	acc := 0.0
	for j, q := range qPAA {
		best := math.Inf(1)
		for sym := int(syms[j]); sym < int(syms[j])+1<<(p.CardBits-int(bits[j])); sym++ {
			best = min(best, s.minDistSqTerm(j, q, uint8(sym), p.CardBits))
		}
		acc += best
	}
	return acc
}

// checkRange asserts the bound's contract on sorted keys: Range(first,
// last) is at most every key's Key — and exactly the per-segment box
// minimum, so not weaker than it needs to be — and Range(k, k) is Key(k).
func checkRange(t *testing.T, s *Summarizer, tbl *MinDistTable, qPAA []float64, keys []Key) {
	t.Helper()
	p := s.Params()
	lo, hi := &keys[0], &keys[len(keys)-1]
	r := tbl.Range(lo, hi)
	if want := boxMin(s, qPAA, *lo, *hi); r != want {
		t.Fatalf("%dx%d Range(%v, %v) = %v, box minimum %v", p.Segments, p.CardBits, *lo, *hi, r, want)
	}
	for i := range keys {
		k := tbl.Key(keys[i])
		if r > k {
			t.Fatalf("%dx%d Range(%v, %v) = %v exceeds Key(%v) = %v", p.Segments, p.CardBits, *lo, *hi, r, keys[i], k)
		}
		if self := tbl.Range(&keys[i], &keys[i]); self != k {
			t.Fatalf("%dx%d Range(k, k) = %v, Key(k) = %v for %v", p.Segments, p.CardBits, self, k, keys[i])
		}
	}
}

// TestRangeBound checks Range on sorted key ranges sharing every prefix
// length, including none and the whole key, against queries with values on
// breakpoints and past the alphabet's ends.
func TestRangeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, p := range rangeShapes {
		s, err := NewSummarizer(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			qPAA := edgePAA(rng, s)
			tbl := s.BuildMinDistTable(qPAA, nil)
			var base Key
			rng.Read(base[:])
			for prefixLen := 0; prefixLen <= p.Segments*p.CardBits; prefixLen++ {
				checkRange(t, s, tbl, qPAA, keysSharing(rng, base, prefixLen, 3))
			}
		}
	}
}

// FuzzRangeBound feeds arbitrary key bytes, prefix lengths, shapes and
// query values to the range bound: on every input it must stay at or below
// Key of every key in the range, equal the box minimum, and equal Key on a
// one-key range.
func FuzzRangeBound(f *testing.F) {
	f.Add([]byte("coconut-invsax!!coconut-invsax!!"), uint8(16), uint8(8), uint8(40), int64(1))
	f.Add(make([]byte, 2*KeySize), uint8(8), uint8(8), uint8(0), int64(2))
	f.Add([]byte("\xff\x00\xaa\x55\x0f\xf0\x33\xcc\x01\x80\x7e\xe7\x5a\xa5\x3c\xc3"), uint8(10), uint8(5), uint8(49), int64(3))
	f.Add([]byte("sortable summarizations"), uint8(16), uint8(3), uint8(128), int64(4))
	f.Fuzz(func(t *testing.T, raw []byte, wRaw, bRaw, lRaw uint8, seed int64) {
		b := int(bRaw%8) + 1
		w := int(wRaw)%(KeyBits/b) + 1
		s, err := NewSummarizer(Params{SeriesLen: w, Segments: w, CardBits: b})
		if err != nil {
			t.Fatal(err)
		}
		var base Key
		copy(base[:], raw)
		rng := rand.New(rand.NewSource(seed))
		keys := keysSharing(rng, base, int(lRaw)%(KeyBits+1), 3)
		// The raw bytes past the base key, when there are any, are one
		// more key of the range's own choosing.
		if len(raw) > KeySize {
			var k Key
			copy(k[:], raw[KeySize:])
			keys = append(keys, k)
			slices.SortFunc(keys, Key.Compare)
		}
		qPAA := edgePAA(rng, s)
		checkRange(t, s, s.BuildMinDistTable(qPAA, nil), qPAA, keys)
	})
}

// TestTableRowsMatchTerm pins the sweep-built full level to the per-symbol
// kernel term on every valid shape, bit for bit, for queries on and between
// breakpoints, past both ends of the alphabet, infinite and NaN — and the
// row shape Range relies on: 0 at the query's symbol, growing away from it.
func TestTableRowsMatchTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, p := range validShapes() {
		s, err := NewSummarizer(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			qPAA := edgePAA(rng, s)
			if trial == 0 {
				for j := range qPAA {
					qPAA[j] = []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0}[j%4]
				}
			}
			tbl := s.BuildMinDistTable(qPAA, nil)
			for j, q := range qPAA {
				row := func(sym int) float64 { return tbl.full[j][sym<<tbl.shift] }
				for sym := 0; sym < p.Cardinality(); sym++ {
					if got, want := row(sym), s.minDistSqTerm(j, q, uint8(sym), p.CardBits); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%dx%d q=%v symbol %d: table %v, term %v", p.Segments, p.CardBits, q, sym, got, want)
					}
				}
				qs := int(tbl.qsym[j])
				if row(qs) != 0 {
					t.Fatalf("%dx%d q=%v: query symbol %d has entry %v", p.Segments, p.CardBits, q, qs, row(qs))
				}
				for sym := 1; sym < p.Cardinality(); sym++ {
					if sym <= qs && row(sym-1) < row(sym) || sym > qs && row(sym-1) > row(sym) {
						t.Fatalf("%dx%d q=%v: entries %d, %d do not grow away from symbol %d", p.Segments, p.CardBits, q, sym-1, sym, qs)
					}
				}
			}
		}
	}
}

// sortedKeys summarizes n series of gen and returns their keys sorted, each
// with its series' index, and the series.
func sortedKeys(t *testing.T, s *Summarizer, gen dataset.Generator, n int, seed int64) ([]Key, []int64, []series.Series) {
	t.Helper()
	data := dataset.Generate(gen, n, s.Params().SeriesLen, seed)
	keys, err := s.KeysOf(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	sort.Sort(byKey{keys, ids})
	return keys, ids, data
}

type byKey struct {
	keys []Key
	ids  []int64
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i].Less(b.keys[j]) }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
}

// approxSeed is the squared distance of the approximate answer the exact
// search starts from: the best series among the 64 whose keys sort nearest
// the query's.
func approxSeed(t *testing.T, s *Summarizer, keys []Key, ids []int64, data []series.Series, q series.Series) float64 {
	t.Helper()
	k, err := s.KeyOf(q)
	if err != nil {
		t.Fatal(err)
	}
	at := sort.Search(len(keys), func(i int) bool { return !keys[i].Less(k) })
	best := math.Inf(1)
	for i := max(0, at-32); i < min(len(keys), at+32); i++ {
		d, err := series.SquaredED(q, data[ids[i]])
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, d)
	}
	return best
}

// TestFilterSkipKeepsCandidates: with whole tiles skipped, Filter must
// return exactly the list a per-key filter returns — on sorted randomwalk
// and skewed keys, for every worker count, at limits from below every bound
// through the approximate seed to +Inf, where no tile may be skipped.
func TestFilterSkipKeepsCandidates(t *testing.T) {
	s, err := NewSummarizer(Params{SeriesLen: 128, Segments: 16, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range []dataset.Generator{dataset.NewRandomWalk(), dataset.NewSkewed()} {
		keys, ids, data := sortedKeys(t, s, gen, 6000, 3)
		for qi, q := range dataset.Queries(gen, 6, 128, 99) {
			pass, err := s.NewPass(q)
			if err != nil {
				t.Fatal(err)
			}
			tbl := &pass.Table
			lbs := make([]float64, len(keys))
			tbl.KeysInto(keys, lbs, 1)
			sorted := slices.Clone(lbs)
			slices.Sort(sorted)
			limits := []float64{0, sorted[0], sorted[len(sorted)/100], sorted[len(sorted)/2], sorted[len(sorted)-1],
				approxSeed(t, s, keys, ids, data, q), math.Inf(1)}
			for _, limit := range limits {
				var want []Cand
				for i, lb := range lbs {
					if lb < limit {
						want = append(want, Cand{ID: ids[i], LB: lb})
					}
				}
				for _, w := range []int{1, 2, 8} {
					if got := tbl.Filter(nil, keys, ids, limit, w); !slices.Equal(got, want) {
						t.Fatalf("%s query %d limit %v workers=%d: Filter kept %d candidates, per-key filter %d (or a different list)",
							gen.Name(), qi, limit, w, len(got), len(want))
					}
				}
			}
			if _, skipped := tbl.filterRange(nil, keys, ids, shard.Range{Hi: len(keys)}, math.Inf(1)); skipped != 0 {
				t.Fatalf("%s query %d: %d keys skipped under an infinite limit", gen.Name(), qi, skipped)
			}
			pass.Release()
		}
	}
}

// TestFilterSkipsTiles: skipping must actually happen where the paper's
// property says it should — on sorted randomwalk keys, at the approximate
// seed, more than a fifth of all keys are ruled out in whole tiles.
func TestFilterSkipsTiles(t *testing.T) {
	s, err := NewSummarizer(Params{SeriesLen: 128, Segments: 16, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewRandomWalk()
	keys, ids, data := sortedKeys(t, s, gen, 20000, 1)
	skipped, total := 0, 0
	for _, q := range dataset.Queries(gen, 40, 128, 7) {
		pass, err := s.NewPass(q)
		if err != nil {
			t.Fatal(err)
		}
		_, n := pass.Table.filterRange(nil, keys, ids, shard.Range{Hi: len(keys)}, approxSeed(t, s, keys, ids, data, q))
		skipped += n
		total += len(keys)
		pass.Release()
	}
	share := float64(skipped) / float64(total)
	t.Logf("skipped share %.3f over %d keys x 40 queries", share, len(keys))
	if share <= 0.2 {
		t.Fatalf("Filter skipped %.3f of the keys at the approximate seed, want > 0.2", share)
	}
}
