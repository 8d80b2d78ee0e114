package series

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The raw file format used throughout the repository mirrors the one used by
// the iSAX/ADS/Coconut line of systems: a headerless, dense array of
// little-endian float64 values, seriesLen values per series. A series'
// "position" (as recorded inside index leaves) is its ordinal number in the
// file; its byte offset is position * seriesLen * 8.

// PointSize is the encoded size of one value in the raw file format.
const PointSize = 8

// EncodedSize returns the number of bytes one series of length n occupies.
func EncodedSize(n int) int { return n * PointSize }

// AppendEncode appends the binary encoding of s to dst and returns the
// extended slice.
func AppendEncode(dst []byte, s Series) []byte {
	for _, v := range s {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Encode writes the binary encoding of s into dst, which must be at least
// EncodedSize(len(s)) bytes.
func Encode(dst []byte, s Series) {
	if len(dst) < EncodedSize(len(s)) {
		panic("series: Encode destination too small")
	}
	for i, v := range s {
		binary.LittleEndian.PutUint64(dst[i*PointSize:], math.Float64bits(v))
	}
}

// Decode parses one series of length n from src. It returns an error when
// src is too short.
func Decode(src []byte, n int) (Series, error) {
	if len(src) < EncodedSize(n) {
		return nil, fmt.Errorf("series: decode: need %d bytes, have %d", EncodedSize(n), len(src))
	}
	s := make(Series, n)
	DecodeInto(src, s)
	return s, nil
}

// DecodeInto parses len(dst) values from src into dst. src must hold at
// least EncodedSize(len(dst)) bytes.
func DecodeInto(src []byte, dst Series) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*PointSize:]))
	}
}

// SquaredEDEarlyAbandonEncoded is SquaredEDEarlyAbandon(q, x, limit) for a
// series x given in the raw file format: enc holds exactly len(q) encoded
// values, loaded straight from the bytes as the sum needs them. Same blocks,
// same single accumulator, same order as DecodeInto followed by
// SquaredEDEarlyAbandon, so the flag is identical and a completed sum is
// bit-identical — and a distance that abandons after a few values no longer
// pays for decoding all of them. A length mismatch panics, as there.
func SquaredEDEarlyAbandonEncoded(q Series, enc []byte, limit float64) (float64, bool) {
	if len(enc) != EncodedSize(len(q)) {
		panic(fmt.Sprintf("series: SquaredEDEarlyAbandonEncoded length mismatch: %d values vs %d bytes", len(q), len(enc)))
	}
	acc := 0.0
	for ; len(q) >= 4; q, enc = q[4:], enc[4*PointSize:] {
		e := enc[:4*PointSize]
		d0 := q[0] - math.Float64frombits(binary.LittleEndian.Uint64(e[0:]))
		d1 := q[1] - math.Float64frombits(binary.LittleEndian.Uint64(e[8:]))
		d2 := q[2] - math.Float64frombits(binary.LittleEndian.Uint64(e[16:]))
		d3 := q[3] - math.Float64frombits(binary.LittleEndian.Uint64(e[24:]))
		acc += d0 * d0
		acc += d1 * d1
		acc += d2 * d2
		acc += d3 * d3
		if acc > limit {
			return acc, false
		}
	}
	for i, v := range q {
		d := v - math.Float64frombits(binary.LittleEndian.Uint64(enc[i*PointSize:]))
		acc += d * d
	}
	if acc > limit {
		return acc, false
	}
	return acc, true
}

// Writer streams series into an io.Writer using the raw file format.
// It is not safe for concurrent use.
type Writer struct {
	w         io.Writer
	seriesLen int
	buf       []byte
	count     int64
}

// NewWriter returns a Writer emitting series of length seriesLen to w.
func NewWriter(w io.Writer, seriesLen int) *Writer {
	return &Writer{w: w, seriesLen: seriesLen, buf: make([]byte, EncodedSize(seriesLen))}
}

// Write appends one series. The series must have the writer's length.
func (w *Writer) Write(s Series) error {
	if len(s) != w.seriesLen {
		return fmt.Errorf("series: writer configured for length %d, got %d", w.seriesLen, len(s))
	}
	Encode(w.buf, s)
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("series: write: %w", err)
	}
	w.count++
	return nil
}

// Count returns the number of series written so far.
func (w *Writer) Count() int64 { return w.count }

// Reader streams series out of an io.Reader in the raw file format.
// It is not safe for concurrent use.
type Reader struct {
	r         io.Reader
	seriesLen int
	buf       []byte
}

// NewReader returns a Reader decoding series of length seriesLen from r.
func NewReader(r io.Reader, seriesLen int) *Reader {
	return &Reader{r: r, seriesLen: seriesLen, buf: make([]byte, EncodedSize(seriesLen))}
}

// Next returns the next series, or io.EOF when the stream is exhausted at a
// series boundary. A truncated trailing series yields io.ErrUnexpectedEOF.
func (r *Reader) Next() (Series, error) {
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("series: read: %w", err)
	}
	s := make(Series, r.seriesLen)
	DecodeInto(r.buf, s)
	return s, nil
}

// NextInto decodes the next series into dst (which must have the reader's
// configured length), avoiding an allocation per series.
func (r *Reader) NextInto(dst Series) error {
	if len(dst) != r.seriesLen {
		return fmt.Errorf("series: reader configured for length %d, got %d", r.seriesLen, len(dst))
	}
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("series: read: %w", err)
	}
	DecodeInto(r.buf, dst)
	return nil
}
