package manifest

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// sampleTree is a tree grown by inserts: its run in generation 3.
func sampleTree() *Manifest {
	return &Manifest{
		Variant: VariantTree, SeriesLen: 256, Segments: 16, CardBits: 8,
		Materialized: true, RawName: "walk.bin", Count: 330,
		Tree: &TreeLayout{Gen: 3},
	}
}

// sampleBulkTree is a tree as a bulk load leaves it: its run in generation
// 0, its series not stored.
func sampleBulkTree() *Manifest {
	return &Manifest{
		Variant: VariantTree, SeriesLen: 64, Segments: 8, CardBits: 8,
		RawName: "conf.bin", Count: 130,
		Tree: &TreeLayout{},
	}
}

// legacyLeafCap is the leaf capacity versions 1–10 stored in every
// manifest, and which a tree's leaf directory was cut by.
const legacyLeafCap = 50

// legacyEncode is m as format version ver (1–10) wrote it: every version
// stored a leaf capacity after the materialized flag, and a tree a leaf
// directory, here m.Count records packed into leaves of legacyLeafCap.
// Version 2 added the LSM WAL cursors (the flushed position and two segment
// numbers, of which version 8 keeps the position), 3 a checksums flag and 4
// a compressed-runs flag (both set by every version-5 writer that could be
// read, and gone since 6, whose LSM runs are no longer framed in checksum
// blocks), and a tree before version 7 stored its B+-tree geometry, its
// directory living in a separate meta file, in versions 7 to 9 a {page,
// count, stamp, separator} entry per leaf page, and in version 10 its run's
// generation and its leaves' record counts. An LSM before version 10 kept
// compaction cursors beside its run list (legacyLSM). Everything else is
// laid out as today.
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
	w.u32(legacyLeafCap)
	w.str(m.RawName)
	w.u64(uint64(m.Count))
	// Today's payload: the fields above but the leaf capacity, then the
	// variant layout.
	layout := cur[headerSize+len(w.buf)-4:]
	if m.Variant == VariantLSM && ver < 10 {
		layout = legacyLSM(m.LSM)
	}
	if ver >= 3 && ver <= 5 {
		w.bool(true)
	}
	if ver >= 4 && ver <= 5 {
		w.bool(m.Variant == VariantLSM)
	}
	var counts []int
	for left := int(m.Count); left > 0; left -= legacyLeafCap {
		counts = append(counts, min(left, legacyLeafCap))
	}
	switch {
	case m.Variant == VariantTree && ver < 7:
		for _, v := range []uint32{2072, 16, legacyLeafCap, 64} { // record size, key length, leaf capacity, fan-out
			w.u32(v)
		}
		w.u64(0x3FF0000000000000) // fill factor 1.0
		w.u32(uint32(len(counts)))
		w.u64(uint64(len(counts))) // next page
	case m.Variant == VariantTree && ver < 10:
		w.u32(uint32(len(counts)))
		for i, c := range counts {
			w.u32(uint32(i)) // page
			w.u32(uint32(c))
			w.u32(1) // stamp
			w.bytes(make([]byte, summary.KeySize))
		}
	case m.Variant == VariantTree:
		w.u64(uint64(m.Tree.Gen))
		w.u32(uint32(len(counts)))
		for _, c := range counts {
			w.u32(uint32(c))
		}
	case m.Variant == VariantLSM && ver < 2:
		w.bytes(layout[:len(layout)-8]) // no WAL cursors yet
	case m.Variant == VariantLSM && ver < 10:
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

// storedTries are a Coconut-Trie's manifest as format version 10 wrote it
// while the trie was an index type of its own — the common fields, then its
// leaf count — and a partitioned parent of trie children.
func storedTries() [][]byte {
	var w writer
	w.str("trie")
	w.u32(64) // series length
	w.u32(8)  // segments
	w.u32(8)  // cardinality bits
	w.bool(false)
	w.u32(legacyLeafCap)
	w.str("conf.bin")
	w.u64(30) // records
	w.u32(2)  // leaves
	parent := samplePartitioned()
	parent.Part.ChildVariant = "trie"
	return [][]byte{frame(10, w.buf), legacyEncode(parent, 10)}
}

// parentEncodings are what the last version-10 writer's Encode produced for
// a tree grown by inserts (generation 3, leaves of 60, 70, 100 and 100
// records at capacity 100), an LSM and a partitioned parent of LSM
// children: stores written before the leaf directory went.
func parentEncodings() map[string][]byte {
	out := map[string][]byte{}
	for name, h := range map[string]string{
		"tree":        "43434d460a00000049000000b413e43c040000007472656500010000100000000800000001640000000800000077616c6b2e62696e4a010000000000000300000000000000040000003c000000460000006400000064000000",
		"lsm":         "43434d460a00000012010000feff8b75030000006c736d80000000100000000800000000d007000008000000646174612e62696e2c010000000000000600000000000000030000000d00000069782e72756e2e303030303030000000400000000000000000c80000000000000000000000000000000000000000000000ff00000000000000000000000000007f1000000069782e636d702e74302e303030303031010000000100000000000000500000000000000000000000000000000000000000000000ff00000000000000000000000000007f0d00000069782e72756e2e303030303035000000000500000000000000140000000000000000000000000000000000000000000000ff00000000000000000000000000007f4001000000000000",
		"partitioned": "43434d460a000000650000000a9fda140b000000706172746974696f6e6564800000001000000008000000000000000008000000646174612e62696e2c01000000000000030000006c736d02000000800000000000000000000000000000000700000069782e703030300700000069782e70303031",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			panic(err)
		}
		out[name] = b
	}
	return out
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
		RawName: "data.bin", Count: 300,
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
		Materialized: true, RawName: "conf.bin", Count: 900,
		Part: &PartitionLayout{ChildVariant: VariantTree, Partitions: 3,
			Boundaries: []summary.Key{lo, hi}, Children: []string{"px.p000", "px.p001", "px.p002"}},
	}
}

func samples() []*Manifest {
	return []*Manifest{sampleTree(), sampleBulkTree(), sampleLSM(), samplePartitioned(), samplePartitionedTrees()}
}

// refusedEncodings are well-formed manifests of layouts no reader exists
// for: every variant at format versions 1–10.
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
		want.Materialized != got.Materialized ||
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
	second.Count++ // one more record

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

// TestOldLayoutsRefused: format v11 is the only one read. A manifest of an
// earlier version, of any variant, is a version mismatch (rebuild), not
// corruption — v7 included, whose LSM layout ended in two WAL segment
// cursors, v8, whose tree directory named stamped leaf pages, v9, whose
// LSM layout kept compaction cursors beside its run list, and v10, which
// stored a leaf capacity and a tree's leaf directory.
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

// TestParentEncodingsRefused: the manifests the last version-10 writer
// committed — a tree with its leaf directory, an LSM and a partitioned
// parent — decode to ErrVersionMismatch (rebuild), and so does the same
// payload resealed at version 10 by this build's framing.
func TestParentEncodingsRefused(t *testing.T) {
	for name, enc := range parentEncodings() {
		t.Run(name, func(t *testing.T) {
			if v := binary.LittleEndian.Uint32(enc[4:]); v != 10 {
				t.Fatalf("parent encoding at version %d, want 10", v)
			}
			if _, err := Decode(enc); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("got %v, want ErrVersionMismatch", err)
			}
			if _, err := Decode(frame(10, enc[headerSize:])); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("resealed: got %v, want ErrVersionMismatch", err)
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
// does not make redundant: a tree layout whose CRC matches but which does
// not name a run — a negative generation, a generation cut mid-field or
// missing, or a version-10 leaf directory still following it — fails
// Decode with ErrCorruptManifest, never a panic.
func TestTreeDirectoryChecksBehindCRC(t *testing.T) {
	enc, err := sampleTree().Encode()
	if err != nil {
		t.Fatal(err)
	}
	payload := enc[headerSize:]
	genOff := len(payload) - 8
	if got := binary.LittleEndian.Uint64(payload[genOff:]); got != 3 {
		t.Fatalf("generation at payload offset %d reads %d, want 3", genOff, got)
	}
	cases := map[string]func(b []byte) []byte{
		"negative-generation": func(b []byte) []byte { b[len(b)-1] |= 0x80; return b },
		"generation-cut":      func(b []byte) []byte { return b[:len(b)-3] },
		"generation-missing":  func(b []byte) []byte { return b[:genOff] },
		"leaf-directory-trailer": func(b []byte) []byte { // one leaf of all 330 records
			return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(b, 1), 330)
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(reseal(mutate(append([]byte(nil), payload...)))); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("decode: %v, want ErrCorruptManifest", err)
			}
		})
	}
	// The unmutated payload resealed is the sample itself.
	if _, err := Decode(reseal(append([]byte(nil), payload...))); err != nil {
		t.Fatalf("intact payload: %v", err)
	}
}
