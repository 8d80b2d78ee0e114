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

// sampleTree is a tree grown by inserts: its run in generation 3, leaf 0
// split in two halves.
func sampleTree() *Manifest {
	return &Manifest{
		Variant: VariantTree, SeriesLen: 256, Segments: 16, CardBits: 8,
		Materialized: true, LeafCap: 100, RawName: "walk.bin", Count: 330,
		Tree: &TreeLayout{Gen: 3, Counts: []int{60, 70, 100, 100}},
	}
}

// sampleBulkTree is a tree as a bulk load leaves it: its run in generation
// 0, packed into full leaves and a partial last one, its series not stored.
func sampleBulkTree() *Manifest {
	return &Manifest{
		Variant: VariantTree, SeriesLen: 64, Segments: 8, CardBits: 8,
		LeafCap: 50, RawName: "conf.bin", Count: 130,
		Tree: &TreeLayout{Counts: []int{50, 50, 30}},
	}
}

// legacyEncode is m as format version ver (1–9) wrote it: version 2 added
// the LSM WAL cursors (the flushed position and two segment numbers, of
// which version 8 keeps the position), 3 a checksums flag and 4 a
// compressed-runs flag (both set by every version-5 writer that could be
// read, and gone since 6, whose LSM runs are no longer framed in checksum
// blocks), and a tree before version 7
// stored its B+-tree geometry, its
// directory living in a separate meta file, and in versions 7 and 8 a
// {page, count, stamp, separator} entry per leaf page. An LSM before
// version 10 kept compaction cursors beside its run list (legacyLSM).
// Everything else is laid out as today.
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
	// Today's payload: the fields above, then the variant layout.
	layout := cur[headerSize+len(w.buf):]
	if m.Variant == VariantLSM {
		layout = legacyLSM(m.LSM)
	}
	if ver >= 3 {
		w.bool(true)
	}
	if ver >= 4 {
		w.bool(m.Variant == VariantLSM)
	}
	switch {
	case m.Variant == VariantTree && ver < 7:
		for _, v := range []uint32{2072, 16, 100, 64} { // record size, key length, leaf capacity, fan-out
			w.u32(v)
		}
		w.u64(0x3FF0000000000000) // fill factor 1.0
		w.u32(uint32(len(m.Tree.Counts)))
		w.u64(uint64(len(m.Tree.Counts))) // next page
	case m.Variant == VariantTree:
		w.u32(uint32(len(m.Tree.Counts)))
		for i, c := range m.Tree.Counts {
			w.u32(uint32(i)) // page
			w.u32(uint32(c))
			w.u32(1) // stamp
			w.bytes(make([]byte, summary.KeySize))
		}
	case m.Variant == VariantLSM && ver < 2:
		w.bytes(layout[:len(layout)-8]) // no WAL cursors yet
	case m.Variant == VariantLSM:
		w.bytes(layout)
		w.u32(3) // first WAL segment
		w.u32(4) // next WAL segment
	default:
		w.bytes(layout)
	}
	return frame(ver, w.buf)
}

// frame is payload under the header of format version ver.
func frame(ver uint32, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, magic)
	out = binary.LittleEndian.AppendUint32(out, ver)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// storedTries are a Coconut-Trie's manifest as this format version wrote it
// while the trie was an index type of its own — the common fields, then its
// leaf count — and a partitioned parent of trie children.
func storedTries() [][]byte {
	var w writer
	w.str(string(retiredTrie))
	w.u32(64) // series length
	w.u32(8)  // segments
	w.u32(8)  // cardinality bits
	w.bool(false)
	w.u32(50) // leaf capacity
	w.str("conf.bin")
	w.u64(30) // records
	w.u32(2)  // leaves
	parent := samplePartitioned()
	parent.Part.ChildVariant = retiredTrie
	enc, err := parent.Encode()
	if err != nil {
		panic(err)
	}
	return [][]byte{frame(version, w.buf), enc}
}

// legacyLSM is l as versions 2–9 laid it out: the fanout, the next run
// number, the next seq, the tier-0 flush count and one {tier, groups}
// cursor per tier before the run list, and each run's ordinal within its
// tier after its tier.
func legacyLSM(l *LSMLayout) []byte {
	var w writer
	w.u32(4)                     // fanout
	w.u32(uint32(l.NextSeq))     // next run number
	w.u64(uint64(l.NextSeq))     // next seq
	w.u32(uint32(l.NextSeq - 1)) // tier-0 flushes
	w.u32(1)                     // one cursor: tier 0, one group done
	w.u32(0)
	w.u32(1)
	w.u32(uint32(len(l.Runs)))
	for i, r := range l.Runs {
		w.str(r.Name)
		w.u32(uint32(r.Tier))
		w.u32(uint32(i)) // ordinal within the tier
		w.u64(uint64(r.Seq))
		w.u64(uint64(r.Count))
		w.bytes(r.MinKey[:])
		w.bytes(r.MaxKey[:])
	}
	w.u64(uint64(l.Flushed))
	return w.buf
}

func sampleLSM() *Manifest {
	var lo, hi summary.Key
	hi[0], hi[15] = 0xff, 0x7f
	return &Manifest{
		Variant: VariantLSM, SeriesLen: 128, Segments: 16, CardBits: 8,
		LeafCap: 2000, RawName: "data.bin", Count: 300,
		LSM: &LSMLayout{
			NextSeq: 6,
			Runs: []RunInfo{
				{Name: "ix.run.000000", Tier: 1 << 30, Seq: 0, Count: 200, MinKey: lo, MaxKey: hi},
				{Name: "ix.cmp.t0.000001", Tier: 1, Seq: 1, Count: 80, MinKey: lo, MaxKey: hi},
				{Name: "ix.run.000005", Tier: 0, Seq: 5, Count: 20, MinKey: lo, MaxKey: hi},
			},
			Flushed: 320,
		},
	}
}

func samplePartitioned() *Manifest {
	var split summary.Key
	split[0] = 0x80
	return &Manifest{
		Variant: VariantPartitioned, SeriesLen: 128, Segments: 16, CardBits: 8,
		RawName: "data.bin", Count: 300,
		Part: &PartitionLayout{ChildVariant: VariantLSM, Partitions: 2,
			Boundaries: []summary.Key{split}, Children: []string{"ix.p000", "ix.p001"}},
	}
}

// samplePartitionedTrees is a parent of three materialized tree children.
func samplePartitionedTrees() *Manifest {
	var lo, hi summary.Key
	lo[0], hi[0] = 0x40, 0xc0
	return &Manifest{
		Variant: VariantPartitioned, SeriesLen: 64, Segments: 8, CardBits: 8,
		Materialized: true, LeafCap: 50, RawName: "conf.bin", Count: 900,
		Part: &PartitionLayout{ChildVariant: VariantTree, Partitions: 3,
			Boundaries: []summary.Key{lo, hi}, Children: []string{"px.p000", "px.p001", "px.p002"}},
	}
}

func samples() []*Manifest {
	return []*Manifest{sampleTree(), sampleBulkTree(), sampleLSM(), samplePartitioned(), samplePartitionedTrees()}
}

// refusedEncodings are well-formed manifests of layouts no reader exists
// for: every variant at format versions 1–9.
func refusedEncodings() [][]byte {
	var out [][]byte
	for _, m := range samples() {
		for ver := uint32(1); ver < version; ver++ {
			out = append(out, legacyEncode(m, ver))
		}
	}
	return out
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
		if !reflect.DeepEqual(want.Tree, got.Tree) {
			t.Fatalf("tree layout mismatch: want %+v, got %+v", *want.Tree, *got.Tree)
		}
	case VariantLSM:
		w, g := want.LSM, got.LSM
		if w.NextSeq != g.NextSeq || w.Flushed != g.Flushed || len(w.Runs) != len(g.Runs) {
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
	second.Count++ // one more record, in the first leaf
	second.Tree.Counts[0]++

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
	if got.Count != second.Count {
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

// TestReencodeBitExact: every variant is written at the current format
// version, and re-encoding an accepted manifest is bit-exact.
func TestReencodeBitExact(t *testing.T) {
	for _, m := range samples() {
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(data[4:]); v != version {
			t.Fatalf("%s: manifest encoded at version %d, want %d", m.Variant, v, version)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		re, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(data) {
			t.Fatalf("%s: re-encode is not bit-exact", m.Variant)
		}
	}
}

// TestOldLayoutsRefused: format v10 is the only one read. A manifest of an
// earlier version, of any variant, is a version mismatch (rebuild), not
// corruption — v7 included, whose LSM layout ended in two WAL segment
// cursors, v8, whose tree directory named stamped leaf pages, and v9, whose
// LSM layout kept compaction cursors beside its run list.
func TestOldLayoutsRefused(t *testing.T) {
	for i, enc := range refusedEncodings() {
		if _, err := Decode(enc); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("refused encoding %d (format version %d): got %v, want ErrVersionMismatch",
				i, binary.LittleEndian.Uint32(enc[4:]), err)
		}
	}
}

// TestStoredTrieRefused: a stored Coconut-Trie, and a partitioned index of
// trie children, decode to ErrVersionMismatch (rebuild as a tree), not to
// a corrupt manifest, at the format version they were written in.
func TestStoredTrieRefused(t *testing.T) {
	for i, name := range []string{"trie", "partitioned-trie-children"} {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(storedTries()[i]); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("got %v, want ErrVersionMismatch", err)
			}
		})
	}
}

// TestLSMFlushedPosition: the LSM's one cursor, the raw position below which
// every owned record is in a run, round-trips, and a position below the
// records the runs hold — which no writer produces — fails Decode with
// ErrCorruptManifest.
func TestLSMFlushedPosition(t *testing.T) {
	for _, tc := range []struct {
		flushed int64
		ok      bool
	}{{300, true}, {320, true}, {299, false}, {0, false}, {-1, false}} {
		m := sampleLSM()
		m.LSM.Flushed = tc.flushed
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if tc.ok && (err != nil || got.LSM.Flushed != tc.flushed) {
			t.Fatalf("flushed %d: decode %v (flushed %v)", tc.flushed, err, got)
		}
		if !tc.ok && !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("flushed %d below %d records: decode %v, want ErrCorruptManifest", tc.flushed, m.Count, err)
		}
	}
}

// TestLSMRunSeqs: a run's seq is its age and names its file, so the run
// list must be strictly increasing in seq and below NextSeq; a repeated,
// decreasing or not-yet-issued seq — which no writer produces — fails Decode
// with ErrCorruptManifest.
func TestLSMRunSeqs(t *testing.T) {
	for name, mutate := range map[string]func(l *LSMLayout){
		"repeated":   func(l *LSMLayout) { l.Runs[2].Seq = l.Runs[1].Seq },
		"decreasing": func(l *LSMLayout) { l.Runs[0].Seq, l.Runs[1].Seq = 1, 0 },
		"next-seq":   func(l *LSMLayout) { l.NextSeq = l.Runs[2].Seq },
	} {
		m := sampleLSM()
		mutate(m.LSM)
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("%s seq: decode %v, want ErrCorruptManifest", name, err)
		}
	}
}

// reseal re-frames payload as a current-version manifest with a valid CRC:
// what a writer that got a field wrong would commit.
func reseal(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, magic)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// TestTreeDirectoryChecksBehindCRC covers the checks the manifest's CRC
// does not make redundant: a tree's leaf layout whose CRC matches but which
// does not describe a well-formed run — a leaf count that overflows the size
// computation or disagrees with the directory length, a directory cut
// mid-entry or before its count, a negative generation, an empty or
// over-full leaf, counts that do not sum to the manifest's — fails Decode
// with ErrCorruptManifest, never a panic.
func TestTreeDirectoryChecksBehindCRC(t *testing.T) {
	enc, err := sampleTree().Encode()
	if err != nil {
		t.Fatal(err)
	}
	payload := enc[headerSize:]
	leaves := len(sampleTree().Tree.Counts)
	countOff := len(payload) - leaves*4 - 4
	if got := binary.LittleEndian.Uint32(payload[countOff:]); got != uint32(leaves) {
		t.Fatalf("leaf count at payload offset %d reads %d, want %d", countOff, got, leaves)
	}
	bytesCases := map[string]func(b []byte) []byte{
		"leaf-count-overflow": func(b []byte) []byte { b[countOff+3] |= 0x80; return b },
		"leaf-count-short": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countOff:], uint32(leaves-1))
			return b
		},
		"leaf-count-long": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countOff:], uint32(leaves+1))
			return b
		},
		"negative-generation":        func(b []byte) []byte { b[countOff-1] |= 0x80; return b },
		"directory-cut-mid-entry":    func(b []byte) []byte { return b[:len(b)-3] },
		"directory-cut-before-count": func(b []byte) []byte { return b[:countOff+2] },
	}
	fieldCases := map[string]func(l []int){
		"empty-leaf":        func(l []int) { l[0], l[1] = 0, l[1]+l[0] },
		"over-full-leaf":    func(l []int) { l[0], l[2] = 101, l[2]-41 },
		"counts-miss-total": func(l []int) { l[3]-- },
	}
	for name, mutate := range bytesCases {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(reseal(mutate(append([]byte(nil), payload...)))); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("decode: %v, want ErrCorruptManifest", err)
			}
		})
	}
	for name, mutate := range fieldCases {
		t.Run(name, func(t *testing.T) {
			m := sampleTree()
			mutate(m.Tree.Counts)
			data, err := m.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(data); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("decode: %v, want ErrCorruptManifest", err)
			}
		})
	}
	// The unmutated payload resealed is the sample itself.
	if _, err := Decode(reseal(append([]byte(nil), payload...))); err != nil {
		t.Fatalf("intact payload: %v", err)
	}
}
