package summary

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/coconut-db/coconut/internal/series"
)

func TestInvNormCDF(t *testing.T) {
	if got := InvNormCDF(0.5); math.Abs(got) > 1e-12 {
		t.Errorf("InvNormCDF(0.5) = %v, want 0", got)
	}
	// Known quantiles.
	cases := map[float64]float64{
		0.975:              1.959963984540054,
		0.8413447460685429: 1.0, // Φ(1)
		0.025:              -1.959963984540054,
	}
	for p, want := range cases {
		if got := InvNormCDF(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("InvNormCDF(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsInf(InvNormCDF(0), -1) || !math.IsInf(InvNormCDF(1), 1) {
		t.Error("edge quantiles should be infinite")
	}
	if !math.IsNaN(InvNormCDF(-0.1)) || !math.IsNaN(InvNormCDF(1.1)) {
		t.Error("out-of-range p should be NaN")
	}
}

func TestInvNormCDFRoundTrip(t *testing.T) {
	cdf := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	for p := 0.001; p < 1; p += 0.001 {
		x := InvNormCDF(p)
		if got := cdf(x); math.Abs(got-p) > 1e-12 {
			t.Fatalf("CDF(InvNormCDF(%v)) = %v", p, got)
		}
	}
}

func TestBreakpoints(t *testing.T) {
	bp := Breakpoints(4)
	if len(bp) != 3 {
		t.Fatalf("cardinality 4 should have 3 breakpoints, got %d", len(bp))
	}
	want := []float64{-0.6744897501960817, 0, 0.6744897501960817}
	for i := range bp {
		if math.Abs(bp[i]-want[i]) > 1e-9 {
			t.Errorf("bp[%d] = %v, want %v", i, bp[i], want[i])
		}
	}
	if !sort.Float64sAreSorted(Breakpoints(256)) {
		t.Error("breakpoints must be sorted")
	}
	if Breakpoints(1) != nil {
		t.Error("cardinality 1 has no breakpoints")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{SeriesLen: 256, Segments: 16, CardBits: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{SeriesLen: 0, Segments: 16, CardBits: 8},
		{SeriesLen: 256, Segments: 0, CardBits: 8},
		{SeriesLen: 8, Segments: 16, CardBits: 8},
		{SeriesLen: 256, Segments: 16, CardBits: 0},
		{SeriesLen: 256, Segments: 16, CardBits: 9},
		{SeriesLen: 256, Segments: 32, CardBits: 8}, // 256 bits > 128-bit key
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
	if got := good.Cardinality(); got != 256 {
		t.Errorf("Cardinality = %d", got)
	}
}

func mustSummarizer(t *testing.T, p Params) *Summarizer {
	t.Helper()
	s, err := NewSummarizer(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPAAKnownValues(t *testing.T) {
	s := mustSummarizer(t, Params{SeriesLen: 8, Segments: 4, CardBits: 8})
	ser := series.Series{1, 3, -2, 2, 5, 5, 0, 4}
	paa, err := s.PAA(ser, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 5, 2}
	for j := range want {
		if math.Abs(paa[j]-want[j]) > 1e-12 {
			t.Errorf("paa[%d] = %v, want %v", j, paa[j], want[j])
		}
	}
	if _, err := s.PAA(series.Series{1, 2}, nil); err == nil {
		t.Error("expected length error")
	}
}

func TestPAAUnequalSegments(t *testing.T) {
	// 10 points over 4 segments: widths 2,3,2,3 (bounds 0,2,5,7,10).
	s := mustSummarizer(t, Params{SeriesLen: 10, Segments: 4, CardBits: 4})
	widths := 0
	for j := 0; j < 4; j++ {
		w := s.SegmentWidth(j)
		if w < 2 || w > 3 {
			t.Errorf("segment %d width %d out of range", j, w)
		}
		widths += w
	}
	if widths != 10 {
		t.Fatalf("segment widths sum to %d, want 10", widths)
	}
	ser := make(series.Series, 10)
	for i := range ser {
		ser[i] = 1
	}
	paa, _ := s.PAA(ser, nil)
	for j, v := range paa {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("paa[%d] = %v, want 1", j, v)
		}
	}
}

func TestSymbolMonotonic(t *testing.T) {
	s := mustSummarizer(t, Params{SeriesLen: 16, Segments: 4, CardBits: 8})
	prev := uint8(0)
	for v := -4.0; v <= 4.0; v += 0.01 {
		sym := s.Symbol(v)
		if sym < prev {
			t.Fatalf("Symbol not monotonic at %v: %d < %d", v, sym, prev)
		}
		prev = sym
	}
	if s.Symbol(-100) != 0 {
		t.Error("very low value should map to symbol 0")
	}
	if s.Symbol(100) != uint8(s.Params().Cardinality()-1) {
		t.Error("very high value should map to the top symbol")
	}
}

func TestRegionContainsValue(t *testing.T) {
	s := mustSummarizer(t, Params{SeriesLen: 16, Segments: 4, CardBits: 8})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64() * 2
		sym := s.Symbol(v)
		for pb := 1; pb <= 8; pb++ {
			lo, hi := s.Region(sym, pb)
			if v < lo || v > hi {
				t.Fatalf("value %v outside region [%v,%v] of symbol %d at %d bits", v, lo, hi, sym, pb)
			}
		}
		// Coarser prefixes cover wider regions.
		lo8, hi8 := s.Region(sym, 8)
		lo1, hi1 := s.Region(sym, 1)
		if lo1 > lo8 || hi1 < hi8 {
			t.Fatalf("coarse region must contain fine region")
		}
	}
}

func TestInterleavePaperExample(t *testing.T) {
	// Figure 2/4 of the paper: 2 segments, 3-bit symbols.
	// S1 = (100,010), S2 = (100,100), S3 = (101,010), S4 = (110,100).
	// Sorting by invSAX must give S1, S3, S2, S4 — placing the most similar
	// pairs (S1,S3) and (S2,S4) adjacent, unlike lexicographic SAX order.
	k1 := Interleave(SAX{0b100, 0b010}, 3)
	k2 := Interleave(SAX{0b100, 0b100}, 3)
	k3 := Interleave(SAX{0b101, 0b010}, 3)
	k4 := Interleave(SAX{0b110, 0b100}, 3)
	if !(k1.Less(k3) && k3.Less(k2) && k2.Less(k4)) {
		t.Fatalf("z-order mismatch with paper example: %v %v %v %v", k1, k3, k2, k4)
	}
	// Leading 6 bits: S1=100100, S3=100110, S2=110000, S4=111000.
	if k1[0] != 0b10010000 {
		t.Errorf("k1 first byte = %08b", k1[0])
	}
	if k3[0] != 0b10011000 {
		t.Errorf("k3 first byte = %08b", k3[0])
	}
	if k2[0] != 0b11000000 {
		t.Errorf("k2 first byte = %08b", k2[0])
	}
	if k4[0] != 0b11100000 {
		t.Errorf("k4 first byte = %08b", k4[0])
	}
}

func TestInterleaveDeinterleaveRoundTrip(t *testing.T) {
	configs := []struct{ w, b int }{{16, 8}, {8, 8}, {16, 4}, {4, 3}, {1, 8}, {32, 4}}
	for _, cfg := range configs {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			sax := make(SAX, cfg.w)
			for j := range sax {
				sax[j] = uint8(rng.Intn(1 << cfg.b))
			}
			k := Interleave(sax, cfg.b)
			got := Deinterleave(k, cfg.w, cfg.b)
			for j := range sax {
				if sax[j] != got[j] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

func TestKeyOrderMatchesMortonOrder(t *testing.T) {
	// For 2 segments the z-order curve on (sym0, sym1) is the standard
	// Morton order; verify against a direct bit-interleaving of integers.
	const bits = 8
	morton := func(a, b uint8) uint32 {
		var m uint32
		for i := bits - 1; i >= 0; i-- {
			m = m<<1 | uint32((a>>uint(i))&1)
			m = m<<1 | uint32((b>>uint(i))&1)
		}
		return m
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a0, b0 := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		a1, b1 := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		k0 := Interleave(SAX{a0, b0}, bits)
		k1 := Interleave(SAX{a1, b1}, bits)
		wantLess := morton(a0, b0) < morton(a1, b1)
		if k0.Less(k1) != wantLess {
			t.Fatalf("key order disagrees with Morton order for (%d,%d) vs (%d,%d)", a0, b0, a1, b1)
		}
	}
}

func TestCommonPrefixBits(t *testing.T) {
	a := Interleave(SAX{0b1000, 0b1000}, 4)
	b := Interleave(SAX{0b1000, 0b1001}, 4)
	// Keys differ only in the last interleaved bit (bit index 7 of 8).
	if got := CommonPrefixBits(a, b, 8); got != 7 {
		t.Fatalf("CommonPrefixBits = %d, want 7", got)
	}
	if got := CommonPrefixBits(a, a, 8); got != 8 {
		t.Fatalf("identical keys: %d, want 8", got)
	}
}

func randomSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s.ZNormalize()
}

func TestMinDistLowerBoundsED(t *testing.T) {
	s := mustSummarizer(t, Params{SeriesLen: 64, Segments: 8, CardBits: 6})
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		q := randomSeries(rng, 64)
		x := randomSeries(rng, 64)
		qPAA, _ := s.PAA(q, nil)
		xSAX, _ := s.SAXOf(x)
		ed, _ := series.ED(q, x)

		lb := s.MinDistPAAToSAX(qPAA, xSAX)
		if lb > ed+1e-9 {
			t.Fatalf("trial %d: MINDIST %v > ED %v", trial, lb, ed)
		}

		// Coarser prefixes give weaker (smaller) bounds.
		bits := make([]uint8, 8)
		for j := range bits {
			bits[j] = 3
		}
		lbCoarse := s.MinDistPAAToPrefix(qPAA, xSAX, bits)
		if lbCoarse > lb+1e-9 {
			t.Fatalf("trial %d: coarse bound %v exceeds fine bound %v", trial, lbCoarse, lb)
		}

		qSAX := s.SAXFromPAA(qPAA, nil)
		lbSS := s.MinDistSAXToSAX(qSAX, xSAX)
		if lbSS > ed+1e-9 {
			t.Fatalf("trial %d: SAX-SAX bound %v > ED %v", trial, lbSS, ed)
		}
	}
}

func TestMinDistZeroForOwnWord(t *testing.T) {
	s := mustSummarizer(t, Params{SeriesLen: 64, Segments: 8, CardBits: 6})
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		q := randomSeries(rng, 64)
		qPAA, _ := s.PAA(q, nil)
		qSAX := s.SAXFromPAA(qPAA, nil)
		if lb := s.MinDistPAAToSAX(qPAA, qSAX); lb != 0 {
			t.Fatalf("distance to own SAX region should be 0, got %v", lb)
		}
	}
}

func TestKeyOfMatchesManualPipeline(t *testing.T) {
	s := mustSummarizer(t, DefaultParams(256))
	rng := rand.New(rand.NewSource(5))
	ser := randomSeries(rng, 256)
	k, err := s.KeyOf(ser)
	if err != nil {
		t.Fatal(err)
	}
	sax, _ := s.SAXOf(ser)
	if k != s.KeyFromSAX(sax) {
		t.Fatal("KeyOf disagrees with SAX+Interleave")
	}
	back := Deinterleave(k, s.Params().Segments, s.Params().CardBits)
	for j := range sax {
		if sax[j] != back[j] {
			t.Fatal("Deinterleave failed to invert KeyFromSAX")
		}
	}
	if _, err := s.KeyOf(series.Series{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestZOrderLocality(t *testing.T) {
	// Statistical sanity check of the paper's core claim: sorting by invSAX
	// places similar series closer than sorting by plain lexicographic SAX.
	// We measure the mean ED between sort-order neighbors under both orders.
	const n, count = 64, 400
	s := mustSummarizer(t, Params{SeriesLen: n, Segments: 8, CardBits: 8})
	rng := rand.New(rand.NewSource(31))
	sers := make([]series.Series, count)
	keys := make([]Key, count)
	saxes := make([]SAX, count)
	for i := range sers {
		sers[i] = randomSeries(rng, n)
		saxes[i], _ = s.SAXOf(sers[i])
		keys[i] = s.KeyFromSAX(saxes[i])
	}
	meanNeighborED := func(order []int) float64 {
		total := 0.0
		for i := 1; i < len(order); i++ {
			d, _ := series.ED(sers[order[i-1]], sers[order[i]])
			total += d
		}
		return total / float64(len(order)-1)
	}
	zo := make([]int, count)
	lex := make([]int, count)
	for i := range zo {
		zo[i], lex[i] = i, i
	}
	sort.Slice(zo, func(a, b int) bool { return keys[zo[a]].Less(keys[zo[b]]) })
	sort.Slice(lex, func(a, b int) bool {
		sa, sb := saxes[lex[a]], saxes[lex[b]]
		for j := range sa {
			if sa[j] != sb[j] {
				return sa[j] < sb[j]
			}
		}
		return false
	})
	zED := meanNeighborED(zo)
	lexED := meanNeighborED(lex)
	if zED >= lexED {
		t.Fatalf("z-order locality failed: z-order neighbor ED %v >= lexicographic %v", zED, lexED)
	}
}
