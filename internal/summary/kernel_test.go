package summary

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// validShapes lists every (Segments, CardBits) Params.Validate accepts for
// a long enough series: the two whole-byte-row shapes per CardBits that
// take the transpose paths, and all the others, which take the reference
// loops (4x4, 4x8, 8x4, 8x6 and 33x1 among them — shapes other tests use).
func validShapes() []Params {
	var out []Params
	for b := 1; b <= 8; b++ {
		for w := 1; w*b <= KeyBits; w++ {
			out = append(out, Params{SeriesLen: 2 * w, Segments: w, CardBits: b})
		}
	}
	return out
}

// edgeKeys returns the keys a bit permutation can get wrong: none set, all
// set, and every single bit. The transposes are linear over the bits, so
// being right on these is being right everywhere; the random keys are for
// the table sums.
func edgeKeys(rng *rand.Rand, random int) []Key {
	keys := make([]Key, 2, 2+KeyBits+random)
	for i := range keys[1] {
		keys[1][i] = 0xFF
	}
	for bit := 0; bit < KeyBits; bit++ {
		var k Key
		k[bit>>3] = 1 << uint(7-bit&7)
		keys = append(keys, k)
	}
	for i := 0; i < random; i++ {
		var k Key
		rng.Read(k[:])
		keys = append(keys, k)
	}
	return keys
}

// TestKernelsMatchReference is the differential test of the transpose
// kernels: on every valid shape, Interleave, DeinterleaveInto and the
// table's Key, KeysInto and Filter must equal the bit-at-a-time reference
// loops — symbols byte for byte, bounds with float64 == — including on keys
// with stray bits past the last row and words with symbols past the
// alphabet, which the references ignore. The keys are sorted, as Filter
// requires.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	keys := edgeKeys(rng, 64)
	slices.SortFunc(keys, Key.Compare)
	for _, p := range validShapes() {
		s, err := NewSummarizer(p)
		if err != nil {
			t.Fatalf("%dx%d: %v", p.Segments, p.CardBits, err)
		}
		qPAA := make([]float64, p.Segments)
		for j := range qPAA {
			qPAA[j] = rng.NormFloat64()
		}
		tbl := s.BuildMinDistTable(qPAA, nil)
		want := make([]float64, len(keys))
		got, ref := make(SAX, p.Segments), make(SAX, p.Segments)
		for i, k := range keys {
			deinterleaveRef(k, p.CardBits, ref)
			DeinterleaveInto(k, p.CardBits, got)
			if string(got) != string(ref) {
				t.Fatalf("%dx%d key %v: DeinterleaveInto %v, reference %v", p.Segments, p.CardBits, k, got, ref)
			}
			if a, b := Interleave(ref, p.CardBits), interleaveRef(ref, p.CardBits); a != b {
				t.Fatalf("%dx%d word %v: Interleave %v, reference %v", p.Segments, p.CardBits, ref, a, b)
			}
			// The key's own leading bytes as a word: symbols past the alphabet.
			raw := SAX(k[:min(p.Segments, KeySize)])
			if a, b := Interleave(raw, p.CardBits), interleaveRef(raw, p.CardBits); a != b {
				t.Fatalf("%dx%d word %v: Interleave %v, reference %v", len(raw), p.CardBits, raw, a, b)
			}
			want[i] = s.MinDistSqPAAToSAX(qPAA, ref)
			if r := tbl.keyRef(k); r != want[i] {
				t.Fatalf("%dx%d key %v: keyRef %v, kernel %v", p.Segments, p.CardBits, k, r, want[i])
			}
			if g := tbl.Key(k); g != want[i] {
				t.Fatalf("%dx%d key %v: Key %v, reference %v", p.Segments, p.CardBits, k, g, want[i])
			}
		}
		// The batch forms, across the serial path and uneven shards; the
		// limit is a bound that occurs, so the strict comparison is tested.
		limit := want[len(want)/2]
		ids := make([]int64, len(keys))
		for i := range ids {
			ids[i] = int64(1000 - i)
		}
		for _, workers := range []int{1, 3, 64} {
			out := make([]float64, len(keys))
			tbl.KeysInto(keys, out, workers)
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("%dx%d workers=%d: KeysInto[%d] %v, want %v", p.Segments, p.CardBits, workers, i, out[i], want[i])
				}
			}
			byIndex := tbl.Filter(nil, keys, nil, limit, workers)
			byID := tbl.Filter([]Cand{{ID: -1}}, keys, ids, limit, workers)[1:]
			n := 0
			for i, lb := range want {
				if lb >= limit {
					continue
				}
				if n >= len(byIndex) || byIndex[n] != (Cand{ID: int64(i), LB: lb}) || byID[n] != (Cand{ID: ids[i], LB: lb}) {
					t.Fatalf("%dx%d workers=%d: Filter candidate %d is not key %d", p.Segments, p.CardBits, workers, n, i)
				}
				n++
			}
			if n != len(byIndex) || n != len(byID) {
				t.Fatalf("%dx%d workers=%d: Filter kept %d and %d, want %d", p.Segments, p.CardBits, workers, len(byIndex), len(byID), n)
			}
		}
	}
}

// TestQuickByteRowShapes: on the shapes the transposes serve, interleaving
// round-trips and byte order on keys is z-order on words — compared here
// through the symbols' bits directly, not through the reference loop.
func TestQuickByteRowShapes(t *testing.T) {
	f := func(a, c [16]uint8, wide bool, bRaw uint8) bool {
		w, b := 8, int(bRaw%8)+1
		if wide {
			w = 16
		}
		x, y := make(SAX, w), make(SAX, w)
		for j := range x {
			x[j], y[j] = a[j]&(1<<uint(b)-1), c[j]&(1<<uint(b)-1)
		}
		kx, ky := Interleave(x, b), Interleave(y, b)
		if string(Deinterleave(kx, w, b)) != string(x) || string(Deinterleave(ky, w, b)) != string(y) {
			return false
		}
		// z-order: the first differing bit, rows from the most significant,
		// segments in series order within a row, decides.
		want := 0
		for i := b - 1; i >= 0 && want == 0; i-- {
			for j := 0; j < w && want == 0; j++ {
				want = int(x[j]>>uint(i)&1) - int(y[j]>>uint(i)&1)
			}
		}
		return kx.Compare(ky) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDeinterleave feeds arbitrary key bytes and shapes to the transposes
// and the table kernel: they must agree with the reference loops on every
// input, not only on keys Interleave can produce.
func FuzzDeinterleave(f *testing.F) {
	f.Add(make([]byte, KeySize), uint8(16), uint8(8))
	f.Add([]byte("\xff\x00\xaa\x55\x0f\xf0\x33\xcc\x01\x80\x7e\xe7\x5a\xa5\x3c\xc3"), uint8(8), uint8(6))
	f.Add([]byte("coconut-invsax!!"), uint8(16), uint8(3))
	f.Add([]byte("coconut-invsax!!"), uint8(33), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, wRaw, bRaw uint8) {
		var k Key
		copy(k[:], raw)
		b := int(bRaw%8) + 1
		w := int(wRaw)%(KeyBits/b) + 1
		s, err := NewSummarizer(Params{SeriesLen: w, Segments: w, CardBits: b})
		if err != nil {
			t.Fatal(err)
		}
		ref := deinterleaveRef(k, b, make(SAX, w))
		if got := Deinterleave(k, w, b); string(got) != string(ref) {
			t.Fatalf("%dx%d key %v: Deinterleave %v, reference %v", w, b, k, got, ref)
		}
		if a, c := Interleave(ref, b), interleaveRef(ref, b); a != c {
			t.Fatalf("%dx%d word %v: Interleave %v, reference %v", w, b, ref, a, c)
		}
		qPAA := make([]float64, w)
		for j := range qPAA {
			qPAA[j] = float64(int8(k[j%KeySize])) / 32
		}
		tbl := s.BuildMinDistTable(qPAA, nil)
		if got, want := tbl.Key(k), s.MinDistSqPAAToSAX(qPAA, ref); got != want {
			t.Fatalf("%dx%d key %v: Key %v, kernel %v", w, b, k, got, want)
		}
	})
}

// TestCommonPrefixBitsMatchesLoop compares the leading-zeros form with the
// bit-at-a-time loop it replaced, for first differences at every bit and
// every totalBits.
func TestCommonPrefixBitsMatchesLoop(t *testing.T) {
	loop := func(a, b Key, totalBits int) int {
		for i := 0; i < totalBits; i++ {
			byteIdx, bitIdx := i>>3, uint(7-i&7)
			if (a[byteIdx]>>bitIdx)&1 != (b[byteIdx]>>bitIdx)&1 {
				return i
			}
		}
		return totalBits
	}
	rng := rand.New(rand.NewSource(4))
	for diff := 0; diff <= KeyBits; diff++ {
		// a and b agree on exactly the first diff bits, then differ (when
		// diff < KeyBits) and continue at random.
		var a, b Key
		rng.Read(a[:])
		rng.Read(b[:])
		for i := 0; i < diff; i++ {
			b[i>>3] = b[i>>3]&^(1<<uint(7-i&7)) | a[i>>3]&(1<<uint(7-i&7))
		}
		if diff < KeyBits {
			b[diff>>3] = b[diff>>3]&^(1<<uint(7-diff&7)) | ^a[diff>>3]&(1<<uint(7-diff&7))
		}
		for totalBits := 0; totalBits <= KeyBits; totalBits++ {
			if got, want := CommonPrefixBits(a, b, totalBits), loop(a, b, totalBits); got != want {
				t.Fatalf("first difference at bit %d, totalBits %d: %d, loop says %d", diff, totalBits, got, want)
			}
		}
	}
}
