package summary

import (
	"math/bits"
	"sort"
)

// Column is a sorted summary array held as symbols instead of keys: row i
// is the SAX word of the i-th series in key order, Segments bytes, byte j
// being segment j's symbol. It costs what the keys cost at the default
// 16x8 shape (16 B a series), but the lower-bound kernel reads a symbol
// with one load, where a key must first be de-interleaved — so the
// de-interleave is paid once per record, when the column is filled, not
// once per record per query. Rows compare in z-order (CompareRows), the
// order of their keys.
type Column struct {
	// Syms holds the rows back to back: row i is Syms[i*Segments:][:Segments].
	Syms     []uint8
	segments int
	cardBits int
}

// NewColumn returns an empty column of this summarizer's shape with room
// for exactly n rows.
func (s *Summarizer) NewColumn(n int) Column {
	return Column{Syms: make([]uint8, 0, n*s.p.Segments), segments: s.p.Segments, cardBits: s.p.CardBits}
}

// ColumnOf returns the rows of keys as a column of this summarizer's shape.
func (s *Summarizer) ColumnOf(keys []Key) Column {
	c := s.NewColumn(len(keys))
	for i := range keys {
		c.AppendKey(keys[i])
	}
	return c
}

// AppendKey appends the row of key k.
func (c *Column) AppendKey(k Key) {
	n := len(c.Syms)
	c.Syms = append(c.Syms, make([]uint8, c.segments)...)
	DeinterleaveInto(k, c.cardBits, c.Syms[n:])
}

// Len returns the number of rows.
func (c Column) Len() int {
	if c.segments == 0 {
		return 0
	}
	return len(c.Syms) / c.segments
}

// Row returns row i; it aliases the column.
func (c Column) Row(i int) SAX {
	w := c.segments
	return c.Syms[i*w : (i+1)*w : (i+1)*w]
}

// Key re-interleaves row i into its key.
func (c Column) Key(i int) Key { return Interleave(c.Row(i), c.cardBits) }

// Search returns the first row at or above word in z-order, or Len() when
// there is none.
func (c Column) Search(word SAX) int {
	return sort.Search(c.Len(), func(i int) bool { return CompareRows(c.Row(i), word) >= 0 })
}

// firstDiff locates the first interleaved bit two rows differ in: bit top
// (a one-bit mask) of segment j. Interleaved bits run from every symbol's
// most significant bit down, segments in order within a bit, so it is the
// highest bit any segment's symbols differ in, in the first segment that
// differs there. top is 0 when the rows are equal.
func firstDiff(a, b SAX) (top uint8, j int) {
	var diff uint8
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	if diff == 0 {
		return 0, len(a)
	}
	top = 1 << (bits.Len8(diff) - 1)
	for (a[j]^b[j])&top == 0 {
		j++
	}
	return top, j
}

// CompareRows returns -1, 0 or 1 as the key of row a sorts before, with or
// after the key of row b: Key.Compare, without interleaving either.
func CompareRows(a, b SAX) int {
	top, j := firstDiff(a, b)
	switch {
	case top == 0:
		return 0
	case a[j]&top != 0:
		return 1
	}
	return -1
}
