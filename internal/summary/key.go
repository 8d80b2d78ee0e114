package summary

import (
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/bits"
)

// Key is a sortable invSAX summarization: the bits of all SAX symbols
// interleaved so that every more-significant bit (across all segments)
// precedes every less-significant bit. Lexicographic byte order on Key is
// exactly z-order (Morton order) on the SAX space, which keeps similar
// series adjacent when sorted — the property that unlocks bottom-up bulk
// loading (§4.1, Figure 4).
//
// Bits are packed MSB-first, so bytes.Compare gives z-order directly.
// Configurations using fewer than 128 bits leave the trailing bits zero;
// comparisons remain correct because every key has the same layout.
type Key [KeySize]byte

// A key is exactly two 64-bit words; this does not compile otherwise.
const _ = uint(KeySize-16) + uint(16-KeySize)

// Compare returns -1, 0, or 1 like bytes.Compare, one 64-bit word at a
// time. It inlines, as CompareRecords does.
func (k Key) Compare(o Key) int {
	a, b := binary.BigEndian.Uint64(k[:8]), binary.BigEndian.Uint64(o[:8])
	if a == b {
		a, b = binary.BigEndian.Uint64(k[8:]), binary.BigEndian.Uint64(o[8:])
	}
	return sign(a, b)
}

// sign is the three-way comparison of a and b.
func sign(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Less reports whether k sorts before o.
func (k Key) Less(o Key) bool { return k.Compare(o) < 0 }

// Record is one series as the bulk load's pass emits it, its sort orders it
// and every sorted writer takes it: its invSAX key and its position in the
// raw dataset file.
type Record struct {
	Key Key
	Pos int64
}

// RecordSize is the size of an encoded record: the key, then the position
// little-endian, as a leaf run stores it.
const RecordSize = KeySize + 8

// RecordLess is CompareRecords(Record{ak, ap}, Record{bk, bp}) < 0.
func RecordLess(ak Key, ap int64, bk Key, bp int64) bool {
	return CompareRecords(Record{ak, ap}, Record{bk, bp}) < 0
}

// CompareRecords is the record order: key first, ties broken by the
// position's little-endian bytes (reversed, compared as an integer) —
// bytes.Compare on the encoded records. Positions are unique, so the order
// is total. It inlines.
func CompareRecords(x, y Record) int {
	a, b := binary.BigEndian.Uint64(x.Key[:8]), binary.BigEndian.Uint64(y.Key[:8])
	if a == b {
		if a, b = binary.BigEndian.Uint64(x.Key[8:]), binary.BigEndian.Uint64(y.Key[8:]); a == b {
			a, b = bits.ReverseBytes64(uint64(x.Pos)), bits.ReverseBytes64(uint64(y.Pos))
		}
	}
	return sign(a, b)
}

// Encode writes r into b, which holds RecordSize bytes.
func (r Record) Encode(b []byte) {
	copy(b, r.Key[:])
	binary.LittleEndian.PutUint64(b[KeySize:], uint64(r.Pos))
}

// DecodeRecord returns the record encoded at the start of b.
func DecodeRecord(b []byte) (r Record) {
	copy(r.Key[:], b)
	r.Pos = int64(binary.LittleEndian.Uint64(b[KeySize:]))
	return r
}

// RecordReader is a stream of records. Read fills p with the next records
// and returns how many, at least one, or 0 and io.EOF at the stream's end
// (0 and the error on a failure). Len is how many records the stream holds
// — exact, or for a share of a stream an estimate: the room a writer of it
// reserves.
type RecordReader interface {
	Read(p []Record) (int, error)
	Len() int
}

// SliceReader is the RecordReader of a slice's records.
type SliceReader []Record

// Read implements RecordReader.
func (s *SliceReader) Read(p []Record) (int, error) {
	if len(*s) == 0 {
		return 0, io.EOF
	}
	n := copy(p, *s)
	*s = (*s)[n:]
	return n, nil
}

// Len implements RecordReader: the records not read yet.
func (s *SliceReader) Len() int { return len(*s) }

// String returns the key as hex, for debugging.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hi64 returns the most significant 64 bits of the key. Useful for quick
// bucketing and tests.
func (k Key) Hi64() uint64 { return binary.BigEndian.Uint64(k[:8]) }

// An invSAX key is a bit matrix: row i holds bit i (from the symbol's most
// significant bit) of every segment in series order, rows packed back to
// back MSB-first. When the segment count is 8 or 16 a row is one or two
// whole bytes, so key <-> SAX word is a byte-aligned bit-matrix transpose:
// an 8-row x 8-segment block of the key, loaded as a big-endian uint64, is
// transposed in three mask/shift/xor rounds into one byte per segment.
// Every other shape goes through the bit-at-a-time reference loops below,
// which are also what the tests compare the transposes against.

// transpose8 transposes the 8x8 bit matrix held in x: byte r (from the most
// significant) is row r, bit c (from the byte's MSB) is column c. It is its
// own inverse.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}

// evenBytes packs bytes 0, 2, 4, 6 of x (counted from the most significant)
// into its high half, zeroing the low half; evenBytes(x<<8) packs the odd
// ones. spreadBytes is the inverse.
func evenBytes(x uint64) uint64 {
	x &= 0xFF00FF00FF00FF00
	x = (x | x<<8) & 0xFFFF0000FFFF0000
	return (x | x<<16) & 0xFFFFFFFF00000000
}

func spreadBytes(x uint64) uint64 {
	x &= 0xFFFFFFFF00000000
	x = (x | x>>16) & 0xFFFF0000FFFF0000
	return (x | x>>8) & 0xFF00FF00FF00FF00
}

// symMask has the low cardBits bits of every byte set: the bytes of a
// transposed block that hold valid symbols once shifted down.
func symMask(cardBits int) uint64 {
	return 0x0101010101010101 * (1<<uint(cardBits) - 1)
}

// byteRows reports whether keys of this shape have whole-byte rows, i.e.
// whether the transpose paths apply.
func byteRows(segments, cardBits int) bool {
	return (segments == 8 || segments == 16) && cardBits >= 1 && cardBits <= 8
}

// symWords de-interleaves a key with whole-byte rows: byte j of lo8 is the
// symbol of segment j and, for 16 segments, byte j of hi8 that of segment
// 8+j (bytes counted from the most significant).
func symWords(k *Key, segments, cardBits int) (lo8, hi8 uint64) {
	shift, mask := uint(8-cardBits), symMask(cardBits)
	a, b := binary.BigEndian.Uint64(k[:8]), binary.BigEndian.Uint64(k[8:])
	if segments == 8 {
		return transpose8(a) >> shift & mask, 0
	}
	lo8 = transpose8(evenBytes(a) | evenBytes(b)>>32)
	hi8 = transpose8(evenBytes(a<<8) | evenBytes(b<<8)>>32)
	return lo8 >> shift & mask, hi8 >> shift & mask
}

// splitRows16 splits a 16-segment key into its two 8x8 blocks — even key
// bytes (segments 0-7) and odd ones (segments 8-15) — without moving bytes
// one at a time: two masks and a shift leave each block's rows in slot
// order 0,4,1,5,2,6,3,7, which transposeShuffled undoes for free.
func splitRows16(k *Key) (lo8, hi8 uint64) {
	const even = 0xFF00FF00FF00FF00
	a, b := binary.BigEndian.Uint64(k[:8]), binary.BigEndian.Uint64(k[8:])
	return a&even | b&even>>8, a&^even<<8 | b&^even
}

// transposeShuffled transposes a block from splitRows16. With slot index
// bits (s2 s1 s0) and column bits (c2 c1 c0), slot s holds row (s0 s2 s1),
// so exchanging s0<->c2, s2<->c1 and s1<->c0 — three delta swaps, like
// transpose8 with other distances — leaves in slot (c1 c0 c2) the bits of
// column c in row order: the symbol of segment j, top-aligned like
// transpose8's, is byte (0,2,4,6,1,3,5,7)[j]. The key kernel reads the
// bytes in that order; this is what makes it cheaper than symWords.
func transposeShuffled(x uint64) uint64 {
	t := (x ^ x>>4) & 0x00F000F000F000F0
	x ^= t ^ t<<4
	t = (x ^ x>>30) & 0x00000000CCCCCCCC
	x ^= t ^ t<<30
	t = (x ^ x>>15) & 0x0000AAAA0000AAAA
	x ^= t ^ t<<15
	return x
}

// Interleave builds the sortable summarization from a SAX word
// (Algorithm 1, invertSum): for each bit position i from most to least
// significant, for each segment j in series order, emit bit i of sax[j].
func Interleave(sax SAX, cardBits int) Key {
	if !byteRows(len(sax), cardBits) {
		return interleaveRef(sax, cardBits)
	}
	var k Key
	shift, mask := uint(8-cardBits), symMask(cardBits)
	lo8 := transpose8(binary.BigEndian.Uint64(sax[:8]) & mask << shift)
	if len(sax) == 8 {
		binary.BigEndian.PutUint64(k[:8], lo8)
		return k
	}
	hi8 := transpose8(binary.BigEndian.Uint64(sax[8:]) & mask << shift)
	binary.BigEndian.PutUint64(k[:8], spreadBytes(lo8)|spreadBytes(hi8)>>8)
	binary.BigEndian.PutUint64(k[8:], spreadBytes(lo8<<32)|spreadBytes(hi8<<32)>>8)
	return k
}

// interleaveRef is the bit-at-a-time form of Interleave: the path of shapes
// without whole-byte rows, and the reference the transpose is tested
// against.
func interleaveRef(sax SAX, cardBits int) Key {
	var k Key
	out := 0 // bit cursor into k, MSB-first
	for i := cardBits - 1; i >= 0; i-- {
		for j := 0; j < len(sax); j++ {
			bit := (sax[j] >> uint(i)) & 1
			if bit != 0 {
				k[out>>3] |= 1 << uint(7-out&7)
			}
			out++
		}
	}
	return k
}

// Deinterleave inverts Interleave, recovering the SAX word from a key.
// Sortable summarizations contain the same information as the original
// (§4.1) — this is the "easy and efficient to switch back and forth"
// direction, used to preserve pruning power during queries.
func Deinterleave(k Key, segments, cardBits int) SAX {
	return DeinterleaveInto(k, cardBits, make(SAX, segments))
}

// DeinterleaveInto is Deinterleave into a caller-provided word of the
// desired segment count, for loops that decode many keys: reusing one
// scratch word makes per-key decoding allocation-free. dst is overwritten
// and returned.
func DeinterleaveInto(k Key, cardBits int, dst SAX) SAX {
	if !byteRows(len(dst), cardBits) {
		return deinterleaveRef(k, cardBits, dst)
	}
	lo8, hi8 := symWords(&k, len(dst), cardBits)
	binary.BigEndian.PutUint64(dst[:8], lo8)
	if len(dst) == 16 {
		binary.BigEndian.PutUint64(dst[8:], hi8)
	}
	return dst
}

// deinterleaveRef is the bit-at-a-time form of DeinterleaveInto (see
// interleaveRef).
func deinterleaveRef(k Key, cardBits int, dst SAX) SAX {
	for j := range dst {
		dst[j] = 0
	}
	in := 0
	for i := cardBits - 1; i >= 0; i-- {
		for j := 0; j < len(dst); j++ {
			bit := (k[in>>3] >> uint(7-in&7)) & 1
			if bit != 0 {
				dst[j] |= 1 << uint(i)
			}
			in++
		}
	}
	return dst
}

// CommonPrefixBits returns the number of leading interleaved bits shared by
// a and b, considering only the first totalBits bits (segments × cardBits).
// Two series agreeing on many leading z-order bits agree on the high bits
// of every segment — the locality property Coconut-Trie's prefix grouping
// exploits.
func CommonPrefixBits(a, b Key, totalBits int) int {
	n := KeyBits
	if x := a.Hi64() ^ b.Hi64(); x != 0 {
		n = bits.LeadingZeros64(x)
	} else if y := binary.BigEndian.Uint64(a[8:]) ^ binary.BigEndian.Uint64(b[8:]); y != 0 {
		n = 64 + bits.LeadingZeros64(y)
	}
	return min(n, totalBits)
}
