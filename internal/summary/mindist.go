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
// candidate afterwards is a sum of Segments array lookups, indexed by its
// symbols — the bytes of its Column row, or of a key de-interleaved in
// registers: no SAX allocation, no breakpoint-region recomputation, no
// sqrt. The coarser iSAX prefix levels, which only Prefix
// reads, are built on its first use.
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
	// during a pass. Segment j's entries are indexed by the symbol itself,
	// full[j][sym], which is how a Column row holds it: a row's byte j is the
	// index into full[j], with no shift or mask. Entries past the alphabet
	// are never read.
	full [][256]float64
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
		tbl.qsym[j] = s.fillRow(&tbl.full[j], j, q)
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
func (s *Summarizer) fillRow(row *[256]float64, j int, q float64) (qsym uint8) {
	bp, width := s.bp, float64(s.SegmentWidth(j))
	sym := len(bp) // the top symbol: its region is [bp[len-1], +Inf)
	for ; sym > 0 && q < bp[sym-1]; sym-- {
		d := bp[sym-1] - q
		row[sym] = width * d * d
	}
	qsym = uint8(sym)
	for ; sym >= 0 && !(sym < len(bp) && q > bp[sym]); sym-- {
		row[sym] = 0
	}
	for ; sym >= 0; sym-- {
		d := q - bp[sym]
		row[sym] = width * d * d
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
			level[sym] = t.full[j][sym]
		}
	}
}

// Segments returns the segment count the table was built for.
func (t *MinDistTable) Segments() int { return t.segments }

// Key evaluates the squared lower bound for an interleaved invSAX key
// straight off its bit layout (keyBounds): nothing is allocated. A sorted
// summary array is held as a Column instead, whose rows skip the
// de-interleave (Filter).
func (t *MinDistTable) Key(k Key) float64 {
	keys, out := [1]Key{k}, [1]float64{}
	t.keyBounds(keys[:], out[:])
	return out[0]
}

// Range lower-bounds every row k with lo <= k <= hi (z-order, CompareRows)
// at once. The keys of such rows share the interleaved prefix lo's and hi's
// share — a sorted key range is one iSAX region (§4.1) — so segment j's
// symbol lies in the box of symbols that prefix leaves open, and the box's
// smallest entry is a bound on its term: 0 when the box holds the query's
// own symbol, else the entry at one of its ends, as entries only grow away
// from the query's symbol. The prefix ends at the first interleaved bit the
// rows differ in, bit top of segment d, which the per-segment XORs of the
// two rows locate (firstDiff): it fixes every bit above top in all
// segments, and top itself in the segments before d. Summed in segment
// order like Word, the result is <= Word(k) for every k in the range,
// because float64 rounding is monotone, and == Word(k) when lo == hi.
func (t *MinDistTable) Range(lo, hi SAX) float64 {
	top, d := firstDiff(lo, hi)
	return t.box(lo, top, d)
}

// KeyRange is Range over the rows of two keys: every key k with
// lo <= k <= hi (byte order) is bounded at once. The LSM asks it about run
// blocks and their tiles, which it knows by their keys. The first bit the
// keys differ in comes straight off their bytes (CommonPrefixBits), so only
// lo is de-interleaved.
func (t *MinDistTable) KeyRange(lo, hi *Key) float64 {
	var row [KeyBits]uint8
	w, b := t.segments, t.cardBits
	top, d := uint8(0), w
	if p := CommonPrefixBits(*lo, *hi, w*b); p < w*b {
		top, d = 1<<(b-1-p/w), p%w
	}
	return t.box(DeinterleaveInto(*lo, b, row[:w]), top, d)
}

// box is the bound Range describes for the rows between row and another
// row it first differs from in bit top of segment d (top 0: none).
func (t *MinDistTable) box(row SAX, top uint8, d int) float64 {
	open := uint8(0) // the bits the prefix leaves open in segment j
	if top != 0 {
		open = top - 1
	}
	acc := 0.0
	for j, sym := range row {
		if j == d {
			open = top<<1 - 1
		}
		first, last := sym&^open, sym|open
		if q := t.qsym[j]; first <= q && q <= last {
			continue
		}
		acc += min(t.full[j][first], t.full[j][last])
	}
	return acc
}

// rows fills out[i] with the squared lower bound of row i of col, a
// Column's Syms: the kernel behind Filter, one table load and one add per
// segment, summed in segment order. The two default segment counts are
// unrolled.
func (t *MinDistTable) rows(col []uint8, out []float64) {
	switch t.segments {
	case 8:
		f := (*[8][256]float64)(t.full)
		for i := range out {
			r := (*[8]uint8)(col[i*8:])
			acc := 0.0
			acc += f[0][r[0]]
			acc += f[1][r[1]]
			acc += f[2][r[2]]
			acc += f[3][r[3]]
			acc += f[4][r[4]]
			acc += f[5][r[5]]
			acc += f[6][r[6]]
			acc += f[7][r[7]]
			out[i] = acc
		}
	case 16:
		f := (*[16][256]float64)(t.full)
		for i := range out {
			r := (*[16]uint8)(col[i*16:])
			acc := 0.0
			acc += f[0][r[0]]
			acc += f[1][r[1]]
			acc += f[2][r[2]]
			acc += f[3][r[3]]
			acc += f[4][r[4]]
			acc += f[5][r[5]]
			acc += f[6][r[6]]
			acc += f[7][r[7]]
			acc += f[8][r[8]]
			acc += f[9][r[9]]
			acc += f[10][r[10]]
			acc += f[11][r[11]]
			acc += f[12][r[12]]
			acc += f[13][r[13]]
			acc += f[14][r[14]]
			acc += f[15][r[15]]
			out[i] = acc
		}
	default:
		w := t.segments
		for i := range out {
			out[i] = t.Word(col[i*w : (i+1)*w])
		}
	}
}

// keyBounds fills out[i] with the squared lower bound of keys[i]: the
// kernel behind Key, KeysInto and FilterKeys, for summaries held as keys —
// the LSM's decoded run blocks and memtable. Keys with whole-byte rows (8
// or 16 segments) are de-interleaved in registers by bit-matrix transpose,
// fused with the table loads and adds, which costs about half of
// de-interleaving them into a row in memory and bounding the row; other
// shapes are de-interleaved into a row on the stack and bounded by Word.
// The path for the table's shape is chosen once per call.
func (t *MinDistTable) keyBounds(keys []Key, out []float64) {
	out = out[:len(keys)]
	// A transposed block holds each symbol in the top cardBits bits of its
	// byte; shifting down and masking leaves the symbol itself, clearing
	// what a key with stray bits past the last row would leave below it.
	// (The & 7 tells the compiler the shift stays below 64, which spares
	// every block the out-of-range check of a variable shift.)
	shift, mask := uint(8-t.cardBits)&7, symMask(t.cardBits)
	switch t.segments {
	case 8:
		f := (*[8][256]float64)(t.full)
		for i := range keys {
			a := transpose8(binary.BigEndian.Uint64(keys[i][:8])) >> shift & mask
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
			a, b = transposeShuffled(a)>>shift&mask, transposeShuffled(b)>>shift&mask
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
		var row [KeyBits]uint8
		for i := range keys {
			out[i] = t.Word(DeinterleaveInto(keys[i], t.cardBits, row[:t.segments]))
		}
	}
}

// Word evaluates the squared lower bound for a full-cardinality SAX word —
// a Column row. Exactly equal to MinDistSqPAAToSAX on the query the table
// was built for.
func (t *MinDistTable) Word(sax SAX) float64 {
	acc := 0.0
	for j, sym := range sax {
		acc += t.full[j][sym]
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
