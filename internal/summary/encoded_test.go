package summary

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/coconut-db/coconut/internal/series"
)

// keyOfEncodedRef is the reference the summarization kernel must equal bit
// for bit: decode the record, take its PAA, place each mean among the
// breakpoints with sort.SearchFloat64s, and interleave.
func keyOfEncodedRef(s *Summarizer, rec []byte) Key {
	ser := make(series.Series, s.p.SeriesLen)
	series.DecodeInto(rec, ser)
	paa, err := s.PAA(ser, nil)
	if err != nil {
		panic(err)
	}
	sax := make(SAX, len(paa))
	for j, v := range paa {
		sax[j] = uint8(sort.SearchFloat64s(s.bp, v))
	}
	return Interleave(sax, s.p.CardBits)
}

// symbolEdges returns the values every symbol search must place exactly:
// each breakpoint and its neighbours one ulp away, the signed zeros and
// infinities, NaNs of both signs, denormals, and values far outside the
// breakpoints.
func symbolEdges(bp []float64) []float64 {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
		5e-324, -5e-324, math.SmallestNonzeroFloat64 * 1024, -2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 8, -8, 1e10, -1e10}
	for _, b := range bp {
		vals = append(vals, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)), -b)
	}
	return vals
}

func TestSymbolMatchesSearchFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for b := 1; b <= 8; b++ {
		s := mustSummarizer(t, Params{SeriesLen: 16, Segments: 16, CardBits: b})
		vals := symbolEdges(s.bp)
		for i := 0; i < 2000; i++ {
			vals = append(vals, rng.NormFloat64()*2)
		}
		for _, v := range vals {
			if got, want := s.Symbol(v), uint8(sort.SearchFloat64s(s.bp, v)); got != want {
				t.Fatalf("CardBits %d: Symbol(%v [%#x]) = %d, sort.SearchFloat64s %d", b, v, math.Float64bits(v), got, want)
			}
		}
	}
}

// encodedShapes are the kernel's shapes: whole groups of four segments,
// a remainder, one segment, widths of one point, and series lengths not
// divisible by the segment count — at every CardBits.
func encodedShapes() []Params {
	var ps []Params
	for b := 1; b <= 8; b++ {
		for _, sh := range [][2]int{{256, 16}, {96, 8}, {100, 16}, {16, 16}, {7, 7}, {13, 5}, {1, 1}, {37, 3}, {64, 9}} {
			if sh[1]*b <= KeyBits {
				ps = append(ps, Params{SeriesLen: sh[0], Segments: sh[1], CardBits: b})
			}
		}
		ps = append(ps, Params{SeriesLen: KeyBits / b, Segments: KeyBits / b, CardBits: b})
	}
	return ps
}

func TestKeyOfEncodedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cancelling := []float64{1e16, -1e16, 1, -1, 3, 0.25}
	for _, p := range encodedShapes() {
		s := mustSummarizer(t, p)
		edges := symbolEdges(s.bp)
		rec := make([]byte, series.EncodedSize(p.SeriesLen))
		for trial := 0; trial < 80; trial++ {
			ser := make(series.Series, p.SeriesLen)
			for i := range ser {
				switch trial % 4 {
				case 0:
					ser[i] = rng.NormFloat64()
				case 1:
					ser[i] = edges[rng.Intn(len(edges))]
				case 2:
					// A constant run makes every mean exactly a picked edge.
					ser[i] = edges[trial%len(edges)]
				default:
					// Small values absorbed by large ones or not, depending
					// on the order they are added in: a sum in any other
					// order than the points' lands elsewhere.
					ser[i] = cancelling[rng.Intn(len(cancelling))]
				}
			}
			series.Encode(rec, ser)
			if got, want := s.KeyOfEncoded(rec), keyOfEncodedRef(s, rec); got != want {
				t.Fatalf("%+v trial %d: KeyOfEncoded %v, reference %v", p, trial, got, want)
			}
			if trial%4 == 0 {
				if k, err := s.KeyOf(ser); err != nil || k != s.KeyOfEncoded(rec) {
					t.Fatalf("%+v: KeyOf %v (%v) differs from KeyOfEncoded %v", p, k, err, s.KeyOfEncoded(rec))
				}
			}
		}
	}
}

func TestKeysOfEncodedAnyWorkers(t *testing.T) {
	s := mustSummarizer(t, Params{SeriesLen: 100, Segments: 16, CardBits: 8})
	rng := rand.New(rand.NewSource(43))
	const n = 131
	size := series.EncodedSize(100)
	enc := make([]byte, 0, n*size)
	for i := 0; i < n; i++ {
		ser := make(series.Series, 100)
		for j := range ser {
			ser[j] = rng.NormFloat64()
		}
		enc = series.AppendEncode(enc, ser)
	}
	for _, workers := range []int{0, 1, 2, 7, 200} {
		keys := s.KeysOfEncoded(enc, workers)
		if len(keys) != n {
			t.Fatalf("workers=%d: %d keys, want %d", workers, len(keys), n)
		}
		for i, k := range keys {
			if want := keyOfEncodedRef(s, enc[i*size:(i+1)*size]); k != want {
				t.Fatalf("workers=%d: key %d = %v, reference %v", workers, i, k, want)
			}
		}
	}
	if keys := s.KeysOfEncoded(nil, 4); len(keys) != 0 {
		t.Fatalf("empty batch: %d keys", len(keys))
	}
}

func TestKeyOfEncodedLengthMismatchPanics(t *testing.T) {
	s := mustSummarizer(t, Params{SeriesLen: 16, Segments: 4, CardBits: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic on a record of the wrong length")
		}
	}()
	s.KeyOfEncoded(make([]byte, series.EncodedSize(15)))
}

func TestKeyOfEncodedAllocationFree(t *testing.T) {
	s := mustSummarizer(t, DefaultParams(256))
	rec := make([]byte, series.EncodedSize(256))
	if n := testing.AllocsPerRun(100, func() { s.KeyOfEncoded(rec) }); n != 0 {
		t.Fatalf("KeyOfEncoded allocates %v times per series", n)
	}
}

// FuzzKeyOfEncoded feeds arbitrary record bytes — so every bit pattern,
// NaN payloads, infinities, signed zeros and denormals included, reaches
// the sums — in every shape (CardBits 1-8, series lengths not divisible by
// the segment count) to the kernel, which must equal the decoded
// reference.
func FuzzKeyOfEncoded(f *testing.F) {
	edges := func(b int) []byte {
		bp := Breakpoints(1 << b)
		vals := symbolEdges(bp)
		return series.AppendEncode(nil, vals)
	}
	f.Add([]byte{}, uint8(15), uint8(240), uint8(7))
	f.Add(series.AppendEncode(nil, series.Series{1, 2, 3, 4, 5, 1, 2, 3, 4, 6}), uint8(3), uint8(7), uint8(7))
	for b := 1; b <= 8; b++ {
		e := edges(b)
		n := len(e) / series.PointSize
		// Width-one segments: every edge value is a mean, exactly.
		f.Add(e, uint8(min(n, KeyBits/b)-1), uint8(0), uint8(b-1))
		f.Add(e, uint8(4), uint8(n), uint8(b-1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, wRaw, extra, bRaw uint8) {
		b := int(bRaw%8) + 1
		w := int(wRaw)%(KeyBits/b) + 1
		p := Params{SeriesLen: w + int(extra), Segments: w, CardBits: b}
		s, err := NewSummarizer(p)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]byte, series.EncodedSize(p.SeriesLen))
		copy(rec, raw)
		if got, want := s.KeyOfEncoded(rec), keyOfEncodedRef(s, rec); got != want {
			t.Fatalf("%+v: KeyOfEncoded %v, reference %v", p, got, want)
		}
	})
}

// BenchmarkKeyOfEncoded is the build's per-series summarization cost at the
// paper's shape (256 points, 16 segments, 8 bits) on random-walk data: the
// kernel reads the encoded record in place and must not allocate.
func BenchmarkKeyOfEncoded(b *testing.B) {
	s, err := NewSummarizer(DefaultParams(256))
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	size := series.EncodedSize(256)
	rng := rand.New(rand.NewSource(44))
	enc := make([]byte, 0, n*size)
	ser := make(series.Series, 256)
	for i := 0; i < n; i++ {
		x := 0.0
		for j := range ser {
			x += rng.NormFloat64()
			ser[j] = x
		}
		enc = series.AppendEncode(enc, ser.ZNormalize())
	}
	var sink Key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			k := s.KeyOfEncoded(enc[r*size : (r+1)*size])
			sink[r&15] ^= k[r&15]
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/series")
	_ = sink
}
