package summary

import "unsafe"

// This file is the module's one use of unsafe (TestArch/unsafe-confined).

// littleEndian reports whether this target stores a float64 as the raw file
// format encodes one: its bits little-endian.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// pointView returns the encoded points rec holds as the float64s they
// encode, read in place — the values series.DecodeInto would produce — or
// nil where such a view cannot be taken: on a big-endian target, or when rec
// does not start on an 8-byte boundary (a misaligned float64 load is not
// portable, and checkptr, which -race enables, panics on the conversion).
// len(rec) must be a multiple of 8.
func pointView(rec []byte) []float64 {
	p := unsafe.SliceData(rec)
	if !littleEndian || uintptr(unsafe.Pointer(p))%8 != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(p)), len(rec)/8)
}
