package manifest

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecode hammers the manifest decoder with arbitrary bytes: it must
// either produce a manifest that re-encodes to the exact same bytes, or
// fail with one of the typed errors — and never panic, hang, or allocate
// proportionally to a forged length field. Any other format version is a
// version mismatch. The seeds are every variant (a tree grown by inserts
// and a bulk-loaded one, a partitioned parent of LSM and of tree children),
// each of them at the refused versions 1–10, the version-10 writer's own
// encodings of a tree with its leaf directory, an LSM and a partitioned
// parent, and the stored tries this version refuses, whole and damaged.
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
	for _, enc := range append(refusedEncodings(), storedTries()...) {
		f.Add(enc) // typed ErrVersionMismatch, never a misread
	}
	for _, enc := range parentEncodings() {
		f.Add(enc)
	}
	for _, enc := range storedTries() {
		// A damaged stored trie is corrupt, not a tree.
		flipped := append([]byte(nil), enc...)
		flipped[len(flipped)-1] ^= 0xff
		f.Add(flipped)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("CCMF"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if len(data) >= headerSize && binary.LittleEndian.Uint32(data) == magic &&
			binary.LittleEndian.Uint32(data[4:]) != version && !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("format version %d: %v, want ErrVersionMismatch", binary.LittleEndian.Uint32(data[4:]), err)
		}
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
