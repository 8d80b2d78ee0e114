package manifest

import (
	"errors"
	"testing"
)

// FuzzDecode hammers the manifest decoder with arbitrary bytes: it must
// either produce a manifest that re-encodes to the exact same bytes, or
// fail with one of the typed errors — and never panic, hang, or allocate
// proportionally to a forged length field.
func FuzzDecode(f *testing.F) {
	for _, m := range samples() {
		data, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Seed a few structured mutations so the fuzzer starts near the
		// interesting surface: flipped payload byte, truncation, huge
		// length fields.
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-1] ^= 0xff
		f.Add(flipped)
		f.Add(data[:len(data)/2])
	}
	for _, enc := range refusedEncodings() {
		f.Add(enc) // typed ErrVersionMismatch, never a misread
	}
	f.Add([]byte{})
	f.Add([]byte("CCMF"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptManifest) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted input must round-trip bit for bit: Decode is only
		// allowed to accept encodings Encode could have produced.
		re, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest failed to re-encode: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("accepted manifest did not round-trip:\n in: %x\nout: %x", data, re)
		}
	})
}
