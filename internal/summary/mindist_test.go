package summary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coconut-db/coconut/internal/series"
)

// randomConfig derives a valid Params from fuzz bytes, sweeping Segments ×
// CardBits like the existing quick tests.
func randomConfig(wRaw, bRaw, nRaw uint8) (Params, bool) {
	w := int(wRaw%16) + 1
	b := int(bRaw%8) + 1
	if w*b > KeyBits {
		w = KeyBits / b
		if w == 0 {
			return Params{}, false
		}
	}
	n := w * (int(nRaw%8) + 1)
	return Params{SeriesLen: n, Segments: w, CardBits: b}, true
}

// TestQuickMinDistTableEqualsKernels is the table/kernel equivalence
// property: across random summarization configurations, queries, and
// candidates, every MinDistTable evaluation path (Key, Word, Prefix) must
// equal the corresponding direct squared kernel to EXACT float64 equality —
// both sum the identical per-segment terms in segment order — and the sqrt
// kernels must be exactly the square roots of the squared ones.
func TestQuickMinDistTableEqualsKernels(t *testing.T) {
	f := func(seed int64, wRaw, bRaw, nRaw uint8) bool {
		p, ok := randomConfig(wRaw, bRaw, nRaw)
		if !ok {
			return true
		}
		s, err := NewSummarizer(p)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		mk := func() series.Series {
			out := make(series.Series, p.SeriesLen)
			v := 0.0
			for i := range out {
				v += rng.NormFloat64()
				out[i] = v
			}
			return out.ZNormalize()
		}
		q := mk()
		qPAA, err := s.PAA(q, nil)
		if err != nil {
			return false
		}
		tbl := s.BuildMinDistTable(qPAA, nil)
		bits := make([]uint8, p.Segments)
		for trial := 0; trial < 10; trial++ {
			xSAX, err := s.SAXOf(mk())
			if err != nil {
				return false
			}
			want := s.MinDistSqPAAToSAX(qPAA, xSAX)
			if tbl.Word(xSAX) != want {
				return false
			}
			if tbl.Key(Interleave(xSAX, p.CardBits)) != want {
				return false
			}
			if tbl.Prefix(xSAX, nil) != want {
				return false
			}
			if s.MinDistPAAToSAX(qPAA, xSAX) != math.Sqrt(want) {
				return false
			}
			// Random per-segment prefix lengths, including 0 (whole axis).
			for j := range bits {
				bits[j] = uint8(rng.Intn(p.CardBits + 1))
			}
			wantPre := s.MinDistSqPAAToPrefix(qPAA, xSAX, bits)
			if tbl.Prefix(xSAX, bits) != wantPre {
				return false
			}
			if s.MinDistPAAToPrefix(qPAA, xSAX, bits) != math.Sqrt(wantPre) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestKeysIntoMatchesKernel checks the batch entry point on a small and a
// large key set and across worker counts: every element must exactly equal
// the direct squared kernel on the decoded key.
func TestKeysIntoMatchesKernel(t *testing.T) {
	s, err := NewSummarizer(Params{SeriesLen: 96, Segments: 8, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	mk := func() series.Series {
		out := make(series.Series, 96)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out.ZNormalize()
	}
	qPAA, err := s.PAA(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{7, 2000} {
		keys := make([]Key, n)
		for i := range keys {
			sax, err := s.SAXOf(mk())
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = s.KeyFromSAX(sax)
		}
		want := make([]float64, n)
		for i, k := range keys {
			want[i] = s.MinDistSqPAAToSAX(qPAA, Deinterleave(k, s.Params().Segments, s.Params().CardBits))
		}
		for _, workers := range []int{1, 2, 7, 64} {
			got := make([]float64, n)
			s.BuildMinDistTable(qPAA, nil).KeysInto(keys, got, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d key %d: %v != kernel %v", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkBuildMinDistTable times one per-query table build — what every
// exact query and every LSM approximate query pays before its first bound —
// over PAAs of four shapes, some values exactly on a breakpoint.
func BenchmarkBuildMinDistTable(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var tbl *MinDistTable
	for _, p := range []Params{{SeriesLen: 256, Segments: 16, CardBits: 8}, {SeriesLen: 256, Segments: 8, CardBits: 8},
		{SeriesLen: 60, Segments: 10, CardBits: 5}, {SeriesLen: 64, Segments: 16, CardBits: 3}} {
		s, err := NewSummarizer(p)
		if err != nil {
			b.Fatal(err)
		}
		paas := make([][]float64, 64)
		for i := range paas {
			paas[i] = edgePAA(rng, s)
		}
		b.Run(fmt.Sprintf("%dx%d", p.Segments, p.CardBits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl = s.BuildMinDistTable(paas[i%len(paas)], tbl)
			}
		})
		tbl = nil
	}
}

// TestMinDistTableReuse checks that rebuilding into an existing table for a
// new query fully overwrites the previous query's entries.
func TestMinDistTableReuse(t *testing.T) {
	s, err := NewSummarizer(Params{SeriesLen: 64, Segments: 8, CardBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	mk := func() series.Series {
		out := make(series.Series, 64)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out.ZNormalize()
	}
	q1, _ := s.PAA(mk(), nil)
	q2, _ := s.PAA(mk(), nil)
	tbl := s.BuildMinDistTable(q1, nil)
	tbl = s.BuildMinDistTable(q2, tbl) // reuse
	fresh := s.BuildMinDistTable(q2, nil)
	for trial := 0; trial < 20; trial++ {
		sax, err := s.SAXOf(mk())
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Word(sax) != fresh.Word(sax) {
			t.Fatalf("reused table disagrees with fresh build: %v != %v", tbl.Word(sax), fresh.Word(sax))
		}
	}
}

// TestDeinterleaveIntoMatchesDeinterleave pins the scratch decoder against
// the allocating one, including scratch reuse across differing keys.
func TestDeinterleaveIntoMatchesDeinterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scratch := make(SAX, 16)
	for trial := 0; trial < 100; trial++ {
		sax := make(SAX, 16)
		for j := range sax {
			sax[j] = uint8(rng.Intn(256))
		}
		k := Interleave(sax, 8)
		want := Deinterleave(k, 16, 8)
		got := DeinterleaveInto(k, 8, scratch)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d segment %d: %d != %d", trial, j, got[j], want[j])
			}
		}
	}
}
