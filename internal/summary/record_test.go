package summary

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzRecordOrder: Key.Compare is bytes.Compare on the keys, and
// CompareRecords is bytes.Compare on the encoded records — the key, then
// the position little-endian — so the typed order every sort and merge uses
// is the order of the bytes a leaf run stores.
func FuzzRecordOrder(f *testing.F) {
	f.Add(make([]byte, KeySize), make([]byte, KeySize), int64(0), int64(0))
	f.Add(make([]byte, KeySize), make([]byte, KeySize), int64(256), int64(1))
	f.Add([]byte{1}, []byte{0, 1}, int64(-1), int64(1<<62))
	f.Fuzz(func(t *testing.T, ka, kb []byte, pa, pb int64) {
		var a, b Key
		copy(a[:], ka)
		copy(b[:], kb)
		if len(kb) == 0 {
			b = a // equal keys: the position decides
		}
		if got, want := a.Compare(b), bytes.Compare(a[:], b[:]); got != want {
			t.Fatalf("Key.Compare(%s, %s) = %d, bytes.Compare %d", a, b, got, want)
		}
		enc := func(k Key, p int64) []byte {
			return binary.LittleEndian.AppendUint64(append([]byte(nil), k[:]...), uint64(p))
		}
		ra, rb := Record{a, pa}, Record{b, pb}
		want := bytes.Compare(enc(a, pa), enc(b, pb))
		if got := CompareRecords(ra, rb); got != want {
			t.Fatalf("CompareRecords(%s/%d, %s/%d) = %d, bytes.Compare %d", a, pa, b, pb, got, want)
		}
		if RecordLess(a, pa, b, pb) != (want < 0) {
			t.Fatalf("RecordLess(%s/%d, %s/%d) disagrees with %d", a, pa, b, pb, want)
		}
	})
}
