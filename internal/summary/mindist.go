package summary

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// MinDistTable is a per-query lookup table for the squared iSAX
// lower-bounding distance MINDIST. For a fixed query PAA vector, segment
// j's contribution to the bound depends only on the candidate's symbol in
// that segment — so the table precomputes width_j · d² for every (segment,
// symbol) once per query, in O(Segments · Cardinality) time, and every
// candidate afterwards is a sum of Segments array lookups: no SAX
// allocation, no breakpoint-region recomputation, no sqrt. The coarser
// iSAX prefix levels, which only Prefix reads, are built on its first use.
//
// Entries hold the float expressions of minDistSqTerm, the direct kernels'
// per-segment term — the full level evaluates them in two sweeps per row
// (fillRow), the prefix levels by calling it — and are summed in segment
// order, so every evaluation method returns EXACTLY (bit for bit) what the
// corresponding MinDistSq kernel returns.
//
// Between two builds a table is safe for concurrent use by any number of
// goroutines (the SIMS lower-bound pass shards one table across all query
// workers). It must not be copied.
type MinDistTable struct {
	s        *Summarizer
	paa      []float64 // own copy of the query PAA, for the lazy levels
	segments int
	cardBits int
	// full is the full-cardinality level, the only one the SIMS pass
	// reads. One contiguous block, 32 KiB at 16 segments, so it stays in L1
	// during a pass. A row is indexed by the symbol aligned to the top of
	// its byte, full[j][sym<<shift] with shift = 8-cardBits, which is how a
	// bit-matrix transpose of a key delivers it.
	full  [][256]float64
	shift uint
	// qsym[j] is a symbol whose region holds the query's segment j value:
	// its entry in row j is 0, and the entries grow away from it on both
	// sides, which is what Range relies on.
	qsym []uint8
	// levels holds, per segment, one entry per prefix at every prefix
	// length 0..cardBits (stride 2^(cardBits+1) - 1): level pb of segment j
	// starts at j*stride + (1<<pb - 1), and the entry of a symbol sym at
	// prefix length pb is at index sym >> (cardBits-pb) within the level.
	levelsOnce sync.Once
	levels     []float64
}

// BuildMinDistTable builds (or rebuilds, reusing tbl's storage when it has
// capacity) the per-query table for qPAA, which must have exactly Segments
// entries from this summarizer's configuration — anything else panics,
// matching the contract of the direct MINDIST kernels.
func (s *Summarizer) BuildMinDistTable(qPAA []float64, tbl *MinDistTable) *MinDistTable {
	if len(qPAA) != s.p.Segments {
		panic(fmt.Sprintf("summary: query PAA has %d segments, summarizer expects %d", len(qPAA), s.p.Segments))
	}
	if tbl == nil {
		tbl = &MinDistTable{}
	}
	tbl.paa = append(tbl.paa[:0], qPAA...)
	s.fillTable(tbl)
	return tbl
}

// fillTable (re)builds tbl for the query PAA already in tbl.paa.
func (s *Summarizer) fillTable(tbl *MinDistTable) {
	tbl.s = s
	tbl.segments = s.p.Segments
	tbl.cardBits = s.p.CardBits
	tbl.shift = uint(8 - s.p.CardBits)
	tbl.levelsOnce = sync.Once{}
	if cap(tbl.full) < tbl.segments {
		tbl.full = make([][256]float64, tbl.segments)
	}
	tbl.full = tbl.full[:tbl.segments]
	if cap(tbl.qsym) < tbl.segments {
		tbl.qsym = make([]uint8, tbl.segments)
	}
	tbl.qsym = tbl.qsym[:tbl.segments]
	for j, q := range tbl.paa {
		tbl.qsym[j] = s.fillRow(&tbl.full[j], tbl.shift, j, q)
	}
}

// fillRow fills segment j's row of the full level for query value q with
// exactly the entries minDistSqTerm(j, q, sym, CardBits) returns, in two
// monotone sweeps over the breakpoints instead of a region lookup per
// symbol: down through the regions wholly above q, whose gap is their lower
// breakpoint minus q, then, past the one or two regions holding q (entry 0),
// through those wholly below, whose gap is q minus their upper breakpoint.
// The gaps and width·d·d are minDistSqTerm's own float expressions. It
// returns the highest symbol whose region holds q.
func (s *Summarizer) fillRow(row *[256]float64, shift uint, j int, q float64) (qsym uint8) {
	bp, width := s.bp, float64(s.SegmentWidth(j))
	sym := len(bp) // the top symbol: its region is [bp[len-1], +Inf)
	for ; sym > 0 && q < bp[sym-1]; sym-- {
		d := bp[sym-1] - q
		row[sym<<shift] = width * d * d
	}
	qsym = uint8(sym)
	for ; sym >= 0 && !(sym < len(bp) && q > bp[sym]); sym-- {
		row[sym<<shift] = 0
	}
	for ; sym >= 0; sym-- {
		d := q - bp[sym]
		row[sym<<shift] = width * d * d
	}
	return qsym
}

// buildLevels fills the prefix levels. The full-cardinality one repeats
// full, so Prefix reads a single array.
func (t *MinDistTable) buildLevels() {
	b := uint(t.cardBits)
	stride := 2<<b - 1
	if need := t.segments * stride; cap(t.levels) < need {
		t.levels = make([]float64, need)
	} else {
		t.levels = t.levels[:need]
	}
	for j, q := range t.paa {
		row := t.levels[j*stride : (j+1)*stride]
		for pb := uint(0); pb < b; pb++ {
			level := row[1<<pb-1:]
			for prefix := range level[:1<<pb] {
				level[prefix] = t.s.minDistSqTerm(j, q, uint8(prefix<<(b-pb)), int(pb))
			}
		}
		for sym, level := 0, row[1<<b-1:]; sym < 1<<b; sym++ {
			level[sym] = t.full[j][sym<<t.shift]
		}
	}
}

// Segments returns the segment count the table was built for.
func (t *MinDistTable) Segments() int { return t.segments }

// Key evaluates the squared lower bound for an interleaved invSAX key
// straight off its bit layout: no SAX word is materialized and nothing is
// allocated. Keys with whole-byte rows (8 or 16 segments) are
// de-interleaved by bit-matrix transpose and then cost one table load and
// one add per segment; other shapes take keyRef.
func (t *MinDistTable) Key(k Key) float64 {
	keys, out := [1]Key{k}, [1]float64{}
	t.bounds(keys[:], out[:])
	return out[0]
}

// Range lower-bounds every key k with lo <= k <= hi (byte order) at once.
// Such keys share the interleaved prefix lo and hi share — a sorted key
// range is one iSAX region (§4.1) — so segment j's symbol lies in the box of
// symbols that prefix leaves open, and the box's smallest entry is a bound
// on its term: 0 when the box holds the query's own symbol, else the entry
// at one of its ends, as entries only grow away from the query's symbol.
// Summed in segment order like Key, the result is <= Key(k) for every k in
// the range, because float64 rounding is monotone, and == Key(k) when
// lo == hi.
func (t *MinDistTable) Range(lo, hi *Key) float64 {
	w, b := t.segments, t.cardBits
	var symBuf, bitBuf [KeyBits]uint8
	syms, bits := SAX(symBuf[:w]), bitBuf[:w]
	KeyPrefix(*lo, CommonPrefixBits(*lo, *hi, w*b), b, syms, bits)
	acc := 0.0
	for j, first := range syms {
		last := first | uint8(1<<(b-int(bits[j]))-1)
		if q := t.qsym[j]; first <= q && q <= last {
			continue
		}
		acc += min(t.full[j][first<<t.shift], t.full[j][last<<t.shift])
	}
	return acc
}

// bounds fills out[i] with the squared lower bound of keys[i]: the one
// kernel behind Key, KeysInto and Filter, choosing the path for the
// table's shape once per call rather than once per key.
func (t *MinDistTable) bounds(keys []Key, out []float64) {
	out = out[:len(keys)]
	// A transposed block holds each symbol in the top cardBits bits of its
	// byte; the mask clears what a key with stray bits past the last row
	// would leave below them, as the reference loop never reads those.
	mask := symMask(t.cardBits) << t.shift
	switch t.segments {
	case 8:
		f := (*[8][256]float64)(t.full)
		for i := range keys {
			a := transpose8(binary.BigEndian.Uint64(keys[i][:8])) & mask
			acc := 0.0
			acc += f[0][uint8(a>>56)]
			acc += f[1][uint8(a>>48)]
			acc += f[2][uint8(a>>40)]
			acc += f[3][uint8(a>>32)]
			acc += f[4][uint8(a>>24)]
			acc += f[5][uint8(a>>16)]
			acc += f[6][uint8(a>>8)]
			acc += f[7][uint8(a)]
			out[i] = acc
		}
	case 16:
		f := (*[16][256]float64)(t.full)
		for i := range keys {
			a, b := splitRows16(&keys[i])
			a, b = transposeShuffled(a)&mask, transposeShuffled(b)&mask
			// Segment order, as everywhere: byte (0,2,4,6,1,3,5,7)[j] of a
			// block is its segment j.
			acc := 0.0
			acc += f[0][uint8(a>>56)]
			acc += f[1][uint8(a>>40)]
			acc += f[2][uint8(a>>24)]
			acc += f[3][uint8(a>>8)]
			acc += f[4][uint8(a>>48)]
			acc += f[5][uint8(a>>32)]
			acc += f[6][uint8(a>>16)]
			acc += f[7][uint8(a)]
			acc += f[8][uint8(b>>56)]
			acc += f[9][uint8(b>>40)]
			acc += f[10][uint8(b>>24)]
			acc += f[11][uint8(b>>8)]
			acc += f[12][uint8(b>>48)]
			acc += f[13][uint8(b>>32)]
			acc += f[14][uint8(b>>16)]
			acc += f[15][uint8(b)]
			out[i] = acc
		}
	default:
		for i := range keys {
			out[i] = t.keyRef(keys[i])
		}
	}
}

// keyRef is the bit-at-a-time form of Key for shapes without whole-byte
// rows, and the reference the transpose path is tested against. Bit i
// (counting from the symbol's MSB) of segment j lives at interleaved
// position i·Segments + j, so segment j's bits are the key bits j, j+w,
// j+2w, ...
func (t *MinDistTable) keyRef(k Key) float64 {
	acc := 0.0
	w, b := t.segments, t.cardBits
	for j := 0; j < w; j++ {
		sym := 0
		in := j
		for i := 0; i < b; i++ {
			bit := int(k[in>>3]>>uint(7-in&7)) & 1
			sym = sym<<1 | bit
			in += w
		}
		acc += t.full[j][sym<<t.shift]
	}
	return acc
}

// Word evaluates the squared lower bound for a full-cardinality SAX word.
// Exactly equal to MinDistSqPAAToSAX on the query the table was built for.
func (t *MinDistTable) Word(sax SAX) float64 {
	acc := 0.0
	for j, sym := range sax {
		acc += t.full[j][sym<<t.shift]
	}
	return acc
}

// Prefix evaluates the squared lower bound for an iSAX node: syms[j] holds
// segment j's prefix in its high bits and bits[j] says how many of them
// are fixed (nil bits means fully specified). Exactly equal to
// MinDistSqPAAToPrefix on the query the table was built for.
func (t *MinDistTable) Prefix(syms SAX, bits []uint8) float64 {
	if bits == nil {
		return t.Word(syms)
	}
	t.levelsOnce.Do(t.buildLevels)
	acc := 0.0
	b := uint(t.cardBits)
	stride := 2<<b - 1
	for j, sym := range syms {
		pb := uint(bits[j])
		acc += t.levels[j*stride+1<<pb-1+int(sym>>(b-pb))]
	}
	return acc
}
