package manifest

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

func sampleTree() *Manifest {
	return &Manifest{
		Variant: VariantTree, SeriesLen: 256, Segments: 16, CardBits: 8,
		Materialized: true, LeafCap: 2000, RawName: "walk.bin", Count: 123456,
		Tree: &TreeLayout{RecordSize: 2072, KeyLen: 16, LeafCap: 2000,
			Fanout: 64, FillFactor: 0.9, NumLeaves: 69, NextPage: 69},
	}
}

func sampleTrie() *Manifest {
	return &Manifest{
		Variant: VariantTrie, SeriesLen: 64, Segments: 8, CardBits: 8,
		LeafCap: 50, RawName: "conf.bin", Count: 30,
		Trie: &TrieLayout{NumLeaves: 2},
	}
}

// legacyEncode is m as format version ver (1–4) wrote it: version 2 added
// the LSM WAL cursors, 3 the Checksums flag, 4 the Compressed flag, and a
// trie before version 5 stored a per-leaf {count, first page, pages}
// directory over a padded page file. Everything else is laid out as today.
func legacyEncode(m *Manifest, ver uint32) []byte {
	cur, err := m.Encode()
	if err != nil {
		panic(err)
	}
	var w writer
	w.str(string(m.Variant))
	w.u32(uint32(m.SeriesLen))
	w.u32(uint32(m.Segments))
	w.u32(uint32(m.CardBits))
	w.bool(m.Materialized)
	w.u32(uint32(m.LeafCap))
	w.str(m.RawName)
	w.u64(uint64(m.Count))
	// Today's payload: the fields above, the two flags, the variant layout.
	layout := cur[headerSize+len(w.buf)+2:]
	if ver >= 3 {
		w.bool(m.Checksums)
	}
	if ver >= 4 {
		w.bool(m.Compressed)
	}
	switch {
	case m.Variant == VariantTrie:
		w.u64(3) // pages
		w.u32(2) // leaves
		for _, l := range [][3]uint64{{10, 0, 1}, {20, 1, 2}} {
			w.u64(l[0])
			w.u64(l[1])
			w.u64(l[2])
		}
	case m.Variant == VariantLSM && ver < 2:
		w.bytes(layout[:len(layout)-16]) // no WAL cursors yet
	default:
		w.bytes(layout)
	}
	out := binary.LittleEndian.AppendUint32(nil, magic)
	out = binary.LittleEndian.AppendUint32(out, ver)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(w.buf)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(w.buf, castagnoli))
	return append(out, w.buf...)
}

func sampleLSM() *Manifest {
	var lo, hi summary.Key
	hi[0], hi[15] = 0xff, 0x7f
	return &Manifest{
		Variant: VariantLSM, SeriesLen: 128, Segments: 16, CardBits: 8,
		LeafCap: 2000, RawName: "data.bin", Count: 300, Checksums: true, Compressed: true,
		LSM: &LSMLayout{
			Fanout: 4, NextRun: 7, NextSeq: 9, Tier0Seq: 6,
			Cursors: []TierCursor{{Tier: 0, Groups: 1}, {Tier: 1, Groups: 0}},
			Runs: []RunInfo{
				{Name: "ix.run.000000", Tier: 1 << 30, TierSeq: 0, Seq: 0, Count: 200, MinKey: lo, MaxKey: hi},
				{Name: "ix.cmp.t0.000000", Tier: 1, TierSeq: 0, Seq: 1, Count: 80, MinKey: lo, MaxKey: hi},
				{Name: "ix.run.000005", Tier: 0, TierSeq: 4, Seq: 5, Count: 20, MinKey: lo, MaxKey: hi},
			},
		},
	}
}

func samplePartitioned() *Manifest {
	var split summary.Key
	split[0] = 0x80
	return &Manifest{
		Variant: VariantPartitioned, SeriesLen: 128, Segments: 16, CardBits: 8,
		RawName: "data.bin", Count: 300, Checksums: true,
		Part: &PartitionLayout{ChildVariant: VariantLSM, Partitions: 2,
			Boundaries: []summary.Key{split}, Children: []string{"ix.p000", "ix.p001"}},
	}
}

func samples() []*Manifest {
	return []*Manifest{sampleTree(), sampleTrie(), sampleLSM(), samplePartitioned()}
}

// refusedEncodings are well-formed manifests of layouts no reader exists
// for: every variant at format versions 1–4, and a version-5 LSM manifest
// whose runs are flat record arrays.
func refusedEncodings() [][]byte {
	var out [][]byte
	for _, m := range samples() {
		for ver := uint32(1); ver < minVersion; ver++ {
			out = append(out, legacyEncode(m, ver))
		}
	}
	flat := sampleLSM()
	flat.Compressed = false
	enc, err := flat.Encode()
	if err != nil {
		panic(err)
	}
	return append(out, enc)
}

// TestRoundTrip: every variant encodes and decodes back to itself.
func TestRoundTrip(t *testing.T) {
	for _, m := range samples() {
		data, err := m.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Variant, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Variant, err)
		}
		assertEqual(t, m, got)
	}
}

func assertEqual(t *testing.T, want, got *Manifest) {
	t.Helper()
	if want.Variant != got.Variant || want.SeriesLen != got.SeriesLen ||
		want.Segments != got.Segments || want.CardBits != got.CardBits ||
		want.Materialized != got.Materialized || want.LeafCap != got.LeafCap ||
		want.RawName != got.RawName || want.Count != got.Count {
		t.Fatalf("header mismatch: want %+v, got %+v", want, got)
	}
	switch want.Variant {
	case VariantTree:
		if *want.Tree != *got.Tree {
			t.Fatalf("tree layout mismatch: want %+v, got %+v", *want.Tree, *got.Tree)
		}
	case VariantTrie:
		if *want.Trie != *got.Trie {
			t.Fatalf("trie layout mismatch: want %+v, got %+v", *want.Trie, *got.Trie)
		}
	case VariantLSM:
		w, g := want.LSM, got.LSM
		if w.Fanout != g.Fanout || w.NextRun != g.NextRun || w.NextSeq != g.NextSeq ||
			w.Tier0Seq != g.Tier0Seq || len(w.Cursors) != len(g.Cursors) || len(w.Runs) != len(g.Runs) {
			t.Fatalf("lsm layout mismatch: want %+v, got %+v", w, g)
		}
		for i := range w.Runs {
			if w.Runs[i] != g.Runs[i] {
				t.Fatalf("run %d mismatch: want %+v, got %+v", i, w.Runs[i], g.Runs[i])
			}
		}
	case VariantPartitioned:
		if !reflect.DeepEqual(want.Part, got.Part) {
			t.Fatalf("partition layout mismatch: want %+v, got %+v", want.Part, got.Part)
		}
	}
}

// TestCorruptionDetection: the targeted corruption suite the issue asks
// for — truncation, a flipped checksum-protected byte, a flipped checksum
// byte, and a stale version must all decode to typed errors, never panic
// or a silent misread.
func TestCorruptionDetection(t *testing.T) {
	for _, m := range samples() {
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}

		// Truncation at every prefix length.
		for n := 0; n < len(data); n++ {
			if _, err := Decode(data[:n]); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("%s: truncation to %d bytes: got %v, want ErrCorruptManifest",
					m.Variant, n, err)
			}
		}

		// Every single-byte flip must be caught — header flips by the
		// structural checks, payload flips by the CRC.
		for i := range data {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x40
			_, err := Decode(mut)
			if err == nil {
				t.Fatalf("%s: byte %d flip decoded successfully", m.Variant, i)
			}
			if !errors.Is(err, ErrCorruptManifest) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("%s: byte %d flip: untyped error %v", m.Variant, i, err)
			}
		}

		// A stale (future) version is a version mismatch, not corruption.
		mut := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(mut[4:], version+1)
		if _, err := Decode(mut); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: future version: got %v, want ErrVersionMismatch", m.Variant, err)
		}
	}
}

// TestCommitAtomicity: a fault during the temp write must leave the
// previous manifest untouched and no temporary behind; only the rename
// publishes the new version.
func TestCommitAtomicity(t *testing.T) {
	fs := storage.NewMemFS()
	first := sampleTree()
	if err := Commit(fs, "ix", first); err != nil {
		t.Fatal(err)
	}
	second := sampleTree()
	second.Count = 999

	boom := errors.New("boom")
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		if op == storage.OpWrite && name == FileName("ix")+".tmp" {
			return boom
		}
		return nil
	})
	if err := Commit(fs, "ix", second); !errors.Is(err, boom) {
		t.Fatalf("commit under fault: got %v, want boom", err)
	}
	fs.SetFault(nil)
	if fs.Exists(FileName("ix") + ".tmp") {
		t.Fatal("failed commit left a temporary behind")
	}
	got, err := Load(fs, "ix")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != first.Count {
		t.Fatalf("failed commit clobbered the live manifest: count %d", got.Count)
	}

	// And a successful commit replaces it atomically.
	if err := Commit(fs, "ix", second); err != nil {
		t.Fatal(err)
	}
	got, err = Load(fs, "ix")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 999 {
		t.Fatalf("commit did not publish the new manifest: count %d", got.Count)
	}
}

// TestCheckParams: the loud config-mismatch detection.
func TestCheckParams(t *testing.T) {
	m := sampleTree()
	ok := summary.Params{SeriesLen: 256, Segments: 16, CardBits: 8}
	if err := m.CheckParams(ok, true, "walk.bin"); err != nil {
		t.Fatalf("matching params rejected: %v", err)
	}
	bad := []struct {
		p   summary.Params
		mat bool
		raw string
	}{
		{summary.Params{SeriesLen: 128, Segments: 16, CardBits: 8}, true, "walk.bin"},
		{summary.Params{SeriesLen: 256, Segments: 8, CardBits: 8}, true, "walk.bin"},
		{summary.Params{SeriesLen: 256, Segments: 16, CardBits: 4}, true, "walk.bin"},
		{ok, false, "walk.bin"},
		{ok, true, "other.bin"},
	}
	for i, b := range bad {
		if err := m.CheckParams(b.p, b.mat, b.raw); !errors.Is(err, ErrConfigMismatch) {
			t.Fatalf("case %d: got %v, want ErrConfigMismatch", i, err)
		}
	}
	if err := m.CheckVariant(VariantTree); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckVariant(VariantLSM); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("variant mismatch: got %v", err)
	}
}

// TestFormatFlagsRoundTrip: the format flags survive a round trip, and
// re-encoding an accepted manifest is bit-exact.
func TestFormatFlagsRoundTrip(t *testing.T) {
	m := sampleTree()
	m.Checksums = true
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != version {
		t.Fatalf("manifest encoded at version %d, want %d", v, version)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Checksums {
		t.Fatal("Checksums flag lost in round trip")
	}
	if got.Compressed {
		t.Fatal("Compressed flag set without being written")
	}
	re, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(data) {
		t.Fatal("re-encode is not bit-exact")
	}
	lsm, err := sampleLSM().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(lsm); err != nil || !got.Checksums || !got.Compressed {
		t.Fatalf("lsm manifest round trip: %+v, %v", got, err)
	}
}

// TestOldLayoutsRefused: format v5 is the only one read. A manifest of an
// earlier version, of any variant, or one whose LSM runs are not
// block-compressed, is a version mismatch (rebuild), not corruption.
func TestOldLayoutsRefused(t *testing.T) {
	for i, enc := range refusedEncodings() {
		if _, err := Decode(enc); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("refused encoding %d (format version %d): got %v, want ErrVersionMismatch",
				i, binary.LittleEndian.Uint32(enc[4:]), err)
		}
	}
}

// TestTrieLayout: the trie layout (the leaf count, the directory being
// derived from the sorted keys at open) round-trips and rejects impossible
// counts.
func TestTrieLayout(t *testing.T) {
	data, err := sampleTrie().Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trie.NumLeaves != 2 {
		t.Fatalf("NumLeaves = %d after round trip, want 2", got.Trie.NumLeaves)
	}
	for _, bad := range []struct {
		leaves int
		count  int64
	}{{0, 30}, {31, 30}, {1, 0}, {-1, 30}} {
		m := sampleTrie()
		m.Trie.NumLeaves, m.Count = bad.leaves, bad.count
		enc, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(enc); !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("%d leaves for %d records: got %v, want ErrCorruptManifest", bad.leaves, bad.count, err)
		}
	}
	empty := sampleTrie()
	empty.Trie.NumLeaves, empty.Count = 0, 0
	if enc, err := empty.Encode(); err != nil {
		t.Fatal(err)
	} else if _, err := Decode(enc); err != nil {
		t.Fatalf("empty trie manifest rejected: %v", err)
	}
}
