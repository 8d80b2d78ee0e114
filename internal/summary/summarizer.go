package summary

import (
	"fmt"
	"math"
	"sort"

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
// containing v.
func (s *Summarizer) Symbol(v float64) uint8 {
	// sort.SearchFloat64s returns the number of breakpoints < v or <= v;
	// either convention lands v in a valid region, and ties on an exact
	// breakpoint are vanishingly rare on real data.
	return uint8(sort.SearchFloat64s(s.bp, v))
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

// SAXFromKey inverts KeyFromSAX.
func (s *Summarizer) SAXFromKey(k Key) SAX {
	return Deinterleave(k, s.p.Segments, s.p.CardBits)
}

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
