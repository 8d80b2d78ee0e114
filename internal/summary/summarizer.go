package summary

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/coconut-db/coconut/internal/series"
)

// SAX is a SAX word: one symbol per segment. Symbols are ordered by value —
// symbol 0 is the lowest Gaussian region — so numeric comparisons on
// symbols correspond to vertical order in value space (Figure 1).
type SAX []uint8

// Summarizer converts raw series into PAA, SAX, and sortable invSAX keys
// for one fixed Params configuration. It is immutable after construction
// and safe for concurrent use.
type Summarizer struct {
	p  Params
	bp []float64 // cardinality-1 Gaussian breakpoints
	// bk[i] is orderKey(bp[i]); Symbol searches it without a branch. The
	// entries past len(bp) are never read: the array's size lets an index
	// masked to a byte skip the bounds check.
	bk [256]uint64
	// segBounds[j] is the first point index of segment j; segBounds has
	// Segments+1 entries. Segment widths differ by at most one point when
	// SeriesLen is not divisible by Segments.
	segBounds []int
}

// NewSummarizer validates p and returns a Summarizer for it.
func NewSummarizer(p Params) (*Summarizer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Summarizer{p: p, bp: Breakpoints(p.Cardinality())}
	for i, b := range s.bp {
		// b + 0 keys a -0 breakpoint as +0: a key orders -0 below +0, so
		// keyed as -0 it would count as below v = +0, which as floats it is
		// not. Keyed as +0, it is below neither zero, as it must be.
		s.bk[i] = orderKey(b + 0)
	}
	s.segBounds = make([]int, p.Segments+1)
	for j := 0; j <= p.Segments; j++ {
		s.segBounds[j] = j * p.SeriesLen / p.Segments
	}
	return s, nil
}

// Params returns the configuration.
func (s *Summarizer) Params() Params { return s.p }

// Breakpoints exposes the Gaussian breakpoint table (do not mutate).
func (s *Summarizer) Breakpoints() []float64 { return s.bp }

// SegmentWidth returns the number of points in segment j.
func (s *Summarizer) SegmentWidth(j int) int { return s.segBounds[j+1] - s.segBounds[j] }

// PAA computes the Piecewise Aggregate Approximation of ser into dst
// (allocated when nil) and returns it. ser must have length SeriesLen.
func (s *Summarizer) PAA(ser series.Series, dst []float64) ([]float64, error) {
	if len(ser) != s.p.SeriesLen {
		return nil, fmt.Errorf("summary: series length %d, summarizer expects %d", len(ser), s.p.SeriesLen)
	}
	if cap(dst) < s.p.Segments {
		dst = make([]float64, s.p.Segments)
	}
	dst = dst[:s.p.Segments]
	for j := 0; j < s.p.Segments; j++ {
		lo, hi := s.segBounds[j], s.segBounds[j+1]
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += ser[i]
		}
		dst[j] = sum / float64(hi-lo)
	}
	return dst, nil
}

// Symbol maps one value to its SAX symbol: the index of the Gaussian region
// containing v, which is the number of breakpoints below v — where a binary
// search of Breakpoints() for the first breakpoint at or above v lands, NaN
// (no breakpoint is at or above it) mapping to the top symbol.
func (s *Summarizer) Symbol(v float64) uint8 {
	var sym [4]uint8
	s.symbols4(&sym, v, v, v, v)
	return sym[0]
}

// symbols4 is Symbol of four values. Each search is a binary search without
// a data-dependent branch: each of the CardBits steps compares the value's
// order key with one breakpoint's by the borrow of an unsigned subtraction
// and adds the step under that mask (a compiled `if bk[i] < vk { i += step }`
// stays a branch, mispredicted half the time on real data). The four
// searches are interleaved step by step, so their chains of dependent loads
// and adds overlap.
func (s *Summarizer) symbols4(dst *[4]uint8, v0, v1, v2, v3 float64) {
	k0, k1, k2, k3 := searchKey(v0), searchKey(v1), searchKey(v2), searchKey(v3)
	var i0, i1, i2, i3 int
	for step := len(s.bp)/2 + 1; step > 0; step >>= 1 {
		_, b0 := bits.Sub64(s.bk[(i0+step-1)&0xFF], k0, 0)
		_, b1 := bits.Sub64(s.bk[(i1+step-1)&0xFF], k1, 0)
		_, b2 := bits.Sub64(s.bk[(i2+step-1)&0xFF], k2, 0)
		_, b3 := bits.Sub64(s.bk[(i3+step-1)&0xFF], k3, 0)
		i0 += step & -int(b0)
		i1 += step & -int(b1)
		i2 += step & -int(b2)
		i3 += step & -int(b3)
	}
	dst[0], dst[1], dst[2], dst[3] = uint8(i0), uint8(i1), uint8(i2), uint8(i3)
}

// searchKey is the key Symbol searches the breakpoints' keys for: v's order
// key, or for NaN of either sign one above every breakpoint's.
func searchKey(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	return orderKey(v)
}

// orderKey maps a float64 to a uint64 whose unsigned order is the float's
// numeric order: a non-negative float's bits with the sign bit set, a
// negative one's bits inverted. It orders -0 just below +0.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// KeyOfEncoded is KeyOf over one series in the raw file format (SeriesLen
// little-endian float64s, series.Encode's layout), read in place: the one
// summarization kernel of every record a build, an insert, a sample or a
// recovery keys. Each segment is summed in point order, exactly as PAA
// sums the decoded series, so the key is bit-identical to KeyOf's; four
// segments are summed at a time in independent accumulators, so their adds
// overlap instead of waiting on one another. The points are read as a
// float64 view of rec where the target and rec's alignment allow one
// (pointView), and decoded a point at a time otherwise (keyOfBytes), with
// the same sums either way. rec must be exactly one series long, 8 bytes a
// point; KeyOfEncoded panics otherwise.
func (s *Summarizer) KeyOfEncoded(rec []byte) Key {
	if len(rec) != series.EncodedSize(s.p.SeriesLen) {
		panic(fmt.Sprintf("summary: encoded series of %d bytes, summarizer expects %d", len(rec), series.EncodedSize(s.p.SeriesLen)))
	}
	if pts := pointView(rec); pts != nil {
		return s.keyOfPoints(pts)
	}
	return s.keyOfBytes(rec)
}

// keyOfPoints is KeyOfEncoded over the points of a series read in place.
func (s *Summarizer) keyOfPoints(pts []float64) Key {
	var sax [KeyBits]uint8 // Segments*CardBits <= KeyBits bounds Segments
	w, b := s.p.Segments, s.segBounds
	j := 0
	for ; j+4 <= w; j += 4 {
		p0, p1, p2, p3 := pts[b[j]:b[j+1]], pts[b[j+1]:b[j+2]], pts[b[j+2]:b[j+3]], pts[b[j+3]:b[j+4]]
		// As in keyOfBytes: the four sums run together over the narrowest
		// segment, then each adds the point it may have left. Slicing the
		// others to q0's length lets the loop index them unchecked.
		q0 := p0[:min(len(p0), len(p1), len(p2), len(p3))]
		q1, q2, q3 := p1[:len(q0)], p2[:len(q0)], p3[:len(q0)]
		var a0, a1, a2, a3 float64
		for i, v := range q0 {
			a0 += v
			a1 += q1[i]
			a2 += q2[i]
			a3 += q3[i]
		}
		n := len(q0)
		s.symbols4((*[4]uint8)(sax[j:j+4]),
			sumFrom(a0, p0[n:])/float64(len(p0)), sumFrom(a1, p1[n:])/float64(len(p1)),
			sumFrom(a2, p2[n:])/float64(len(p2)), sumFrom(a3, p3[n:])/float64(len(p3)))
	}
	for ; j < w; j++ {
		p := pts[b[j]:b[j+1]]
		sax[j] = s.Symbol(sumFrom(0, p) / float64(len(p)))
	}
	return Interleave(sax[:w], s.p.CardBits)
}

// sumFrom adds the points of pts to acc, in order.
func sumFrom(acc float64, pts []float64) float64 {
	for _, v := range pts {
		acc += v
	}
	return acc
}

// keyOfBytes is KeyOfEncoded decoding each point from its little-endian
// bytes: the kernel wherever no view of the record can be taken, and the
// reference the view's sums are tested against.
func (s *Summarizer) keyOfBytes(rec []byte) Key {
	var sax [KeyBits]uint8 // Segments*CardBits <= KeyBits bounds Segments
	w, b := s.p.Segments, s.segBounds
	j := 0
	for ; j+4 <= w; j += 4 {
		p0, p1, p2, p3 := rec[b[j]*8:b[j+1]*8], rec[b[j+1]*8:b[j+2]*8], rec[b[j+2]*8:b[j+3]*8], rec[b[j+3]*8:b[j+4]*8]
		w0, w1, w2, w3 := float64(len(p0)/8), float64(len(p1)/8), float64(len(p2)/8), float64(len(p3)/8)
		// Segment widths differ by at most one point: the four sums run
		// together over the narrowest one's n bytes, then each adds the
		// point it may have left.
		n := min(len(p0), len(p1), len(p2), len(p3))
		q0, q1, q2, q3 := p0[:n], p1[:n], p2[:n], p3[:n]
		var a0, a1, a2, a3 float64
		for i := 0; i+8 <= n; i += 8 {
			a0 += point(q0[i : i+8])
			a1 += point(q1[i : i+8])
			a2 += point(q2[i : i+8])
			a3 += point(q3[i : i+8])
		}
		s.symbols4((*[4]uint8)(sax[j:j+4]),
			addPoints(a0, p0[n:])/w0, addPoints(a1, p1[n:])/w1, addPoints(a2, p2[n:])/w2, addPoints(a3, p3[n:])/w3)
	}
	for ; j < w; j++ {
		p := rec[b[j]*8 : b[j+1]*8]
		sax[j] = s.Symbol(addPoints(0, p) / float64(len(p)/8))
	}
	return Interleave(sax[:w], s.p.CardBits)
}

// point decodes the first value of an encoded series.
func point(enc []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(enc))
}

// addPoints adds the points of enc to acc, in order.
func addPoints(acc float64, enc []byte) float64 {
	for ; len(enc) >= 8; enc = enc[8:] {
		acc += point(enc)
	}
	return acc
}

// SAXFromPAA discretizes a PAA vector into a SAX word, into dst when
// provided.
func (s *Summarizer) SAXFromPAA(paa []float64, dst SAX) SAX {
	if cap(dst) < len(paa) {
		dst = make(SAX, len(paa))
	}
	dst = dst[:len(paa)]
	for j, v := range paa {
		dst[j] = s.Symbol(v)
	}
	return dst
}

// SAXOf computes the SAX word of a raw series.
func (s *Summarizer) SAXOf(ser series.Series) (SAX, error) {
	paa, err := s.PAA(ser, nil)
	if err != nil {
		return nil, err
	}
	return s.SAXFromPAA(paa, nil), nil
}

// KeyOf computes the sortable invSAX key of a raw series: SAX followed by
// bit interleaving (Algorithm 1).
func (s *Summarizer) KeyOf(ser series.Series) (Key, error) {
	sax, err := s.SAXOf(ser)
	if err != nil {
		return Key{}, err
	}
	return Interleave(sax, s.p.CardBits), nil
}

// KeyFromSAX interleaves an existing SAX word.
func (s *Summarizer) KeyFromSAX(sax SAX) Key { return Interleave(sax, s.p.CardBits) }

// Region returns the value interval [lo, hi) covered by the prefix made of
// the top prefixBits bits of symbol sym. prefixBits == CardBits denotes a
// fully specified symbol. lo may be -Inf and hi may be +Inf.
//
// Because the breakpoints are equiprobable quantiles, the region of a k-bit
// prefix p is exactly the union of the fine regions of the symbols sharing
// that prefix: fine symbols [p << (b-k), (p+1) << (b-k)).
func (s *Summarizer) Region(sym uint8, prefixBits int) (lo, hi float64) {
	b := s.p.CardBits
	if prefixBits < 0 || prefixBits > b {
		panic("summary: prefix bits out of range")
	}
	shift := uint(b - prefixBits)
	prefix := int(sym) >> shift
	first := prefix << shift
	last := (prefix + 1) << shift // exclusive
	if first == 0 {
		lo = math.Inf(-1)
	} else {
		lo = s.bp[first-1]
	}
	if last >= s.p.Cardinality() {
		hi = math.Inf(1)
	} else {
		hi = s.bp[last-1]
	}
	return lo, hi
}

// MinDistPAAToSAX returns the classic iSAX lower bound on the Euclidean
// distance between the series behind paa (the query) and ANY series whose
// SAX word is sax. Both must come from this summarizer's configuration.
//
// Query hot paths should prefer MinDistSqPAAToSAX (or a per-query
// MinDistTable) and compare in squared space; this sqrt form is kept for
// reporting and for callers mixing the bound with true distances.
func (s *Summarizer) MinDistPAAToSAX(paa []float64, sax SAX) float64 {
	return math.Sqrt(s.MinDistSqPAAToPrefix(paa, sax, nil))
}

// MinDistSqPAAToSAX is MinDistPAAToSAX without the final square root: the
// SQUARED lower bound. Squaring is monotone on non-negative reals, so
// comparing squared lower bounds against a squared best-so-far prunes
// exactly like the sqrt forms — and skips one sqrt per candidate.
func (s *Summarizer) MinDistSqPAAToSAX(paa []float64, sax SAX) float64 {
	return s.MinDistSqPAAToPrefix(paa, sax, nil)
}

// MinDistPAAToPrefix generalizes MinDistPAAToSAX to iSAX nodes: bits[j]
// gives how many leading bits of sax[j] are fixed (nil bits means all
// CardBits are fixed for every segment). The bound is
//
//	sqrt( Σ_j width_j · d_j² )
//
// where d_j is the gap between the query PAA value and the node's value
// region in segment j, and width_j is the segment's point count — the
// general form of sqrt(n/w)·sqrt(Σ d²) that remains a lower bound when
// segments have unequal widths.
func (s *Summarizer) MinDistPAAToPrefix(paa []float64, sax SAX, bits []uint8) float64 {
	return math.Sqrt(s.MinDistSqPAAToPrefix(paa, sax, bits))
}

// MinDistSqPAAToPrefix is the squared form of MinDistPAAToPrefix and the
// single implementation the sqrt wrappers share: every other evaluation
// path, MinDistTable's included, must sum these exact per-segment terms (width_j · d_j², accumulated in segment order) so that table
// lookups reproduce it to exact float64 equality.
func (s *Summarizer) MinDistSqPAAToPrefix(paa []float64, sax SAX, bits []uint8) float64 {
	acc := 0.0
	for j, q := range paa {
		pb := s.p.CardBits
		if bits != nil {
			pb = int(bits[j])
		}
		acc += s.minDistSqTerm(j, q, sax[j], pb)
	}
	return acc
}

// minDistSqTerm computes segment j's contribution to the squared MINDIST:
// width_j · d², where d is the gap between the query PAA value q and the
// value region of sym's pb-bit prefix. The MinDistTable prefix levels call
// it; the full level (fillRow) evaluates the same gaps and width·d·d without
// the region lookup. Those shared float expressions are what make table
// evaluation exactly equal to the direct kernels.
func (s *Summarizer) minDistSqTerm(j int, q float64, sym uint8, pb int) float64 {
	lo, hi := s.Region(sym, pb)
	var d float64
	switch {
	case q < lo:
		d = lo - q
	case q > hi:
		d = q - hi
	}
	if d == 0 {
		return 0
	}
	return float64(s.SegmentWidth(j)) * d * d
}

// MinDistSAXToSAX lower-bounds the distance between any two series given
// only their SAX words, using the gap between their symbol regions. It is
// weaker than MinDistPAAToSAX (used when only summaries are available).
func (s *Summarizer) MinDistSAXToSAX(a, b SAX) float64 {
	acc := 0.0
	for j := range a {
		if a[j] == b[j] {
			continue
		}
		loA, hiA := s.Region(a[j], s.p.CardBits)
		loB, hiB := s.Region(b[j], s.p.CardBits)
		var d float64
		if hiA < loB {
			d = loB - hiA
		} else if hiB < loA {
			d = loA - hiB
		}
		if d != 0 {
			acc += float64(s.SegmentWidth(j)) * d * d
		}
	}
	return math.Sqrt(acc)
}
