// Package manifest implements the durable index lifecycle's source of
// truth: a small, versioned, checksummed file that records everything
// needed to reopen a built Coconut index from storage without touching the
// raw dataset — the format version, the summarization parameters, and the
// per-variant on-device layout (B+-tree geometry for Coconut-Tree, the leaf
// count for Coconut-Trie, and the full run set plus scheduling cursors for
// Coconut-LSM).
//
// A manifest is committed atomically: the encoding is written to a sibling
// temporary file and renamed over the live manifest (storage.FS.Rename), so
// a crash during a commit leaves the previous manifest intact. The payload
// is guarded by a CRC32-C (Castagnoli) checksum; any truncation, bit flip,
// or short field decodes to ErrCorruptManifest, and a manifest of any other
// format version — or one describing a run layout no reader exists for —
// fails with ErrVersionMismatch: never a panic or a silent misread.
package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// Typed failure modes. Callers branch on these with errors.Is.
var (
	// ErrCorruptManifest reports a manifest that failed structural
	// validation: bad magic, truncated payload, checksum mismatch, or an
	// impossible field value.
	ErrCorruptManifest = errors.New("manifest: corrupt manifest")
	// ErrVersionMismatch reports a manifest whose format version this
	// build does not understand.
	ErrVersionMismatch = errors.New("manifest: unsupported format version")
	// ErrConfigMismatch reports a caller configuration that conflicts with
	// the stored manifest (different summarization, materialization, or
	// dataset file).
	ErrConfigMismatch = errors.New("manifest: configuration does not match stored index")
)

// Variant names the index layout a manifest describes.
type Variant string

// The three persistable index variants, plus the partitioned parent
// layout that composes N of them.
const (
	VariantTree        Variant = "tree"
	VariantTrie        Variant = "trie"
	VariantLSM         Variant = "lsm"
	VariantPartitioned Variant = "partitioned"
)

const (
	magic uint32 = 0x464D4343 // "CCMF" little-endian
	// version is the one format this build writes and reads. Earlier
	// versions describe layouts no reader exists for any more (padded trie
	// leaf pages, flat LSM runs, indexes without a WAL) and fail with
	// ErrVersionMismatch: rebuild the index.
	version    uint32 = 5
	minVersion uint32 = 5
	// headerSize is magic + version + payload length + CRC32-C.
	headerSize = 16
	// maxStringLen bounds decoded string fields (file names).
	maxStringLen = 1 << 12
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TreeLayout records the persisted geometry of a Coconut-Tree's B+-tree.
// The leaf directory itself lives in the B+-tree's own meta file; the
// manifest holds the shape and cross-checks it on reopen.
type TreeLayout struct {
	RecordSize int
	KeyLen     int
	LeafCap    int
	Fanout     int
	FillFactor float64
	NumLeaves  int
	NextPage   int64
}

// TrieLayout records what a reopen cross-checks a Coconut-Trie against.
// The leaf file is the sorted record run and the leaf directory is a pure
// function of its keys and LeafCap, so the directory's size is all that is
// stored.
type TrieLayout struct {
	NumLeaves int
}

// RunInfo describes one immutable LSM run: its file, its place in the
// deterministic compaction DAG (tier, tierSeq, seq), and integrity bounds
// (record count and key range) verified when the run file is reloaded.
type RunInfo struct {
	Name    string
	Tier    int
	TierSeq int
	Seq     int64
	Count   int64
	MinKey  summary.Key
	MaxKey  summary.Key
}

// BulkTier is the tier of an LSM's bulk-loaded runs (the initial one, and
// the ones a repair re-derives): effectively maximal, so ingest-time
// compactions never try to fold it.
const BulkTier = 1 << 30

// TierCursor records how many compaction groups of one input tier have
// completed — the formation cursor that keeps group naming deterministic
// across restarts.
type TierCursor struct {
	Tier   int
	Groups int
}

// LSMLayout records the full LSM state needed to reopen: the run set and
// the scheduling counters that make future flushes and compactions continue
// the same deterministic sequence.
type LSMLayout struct {
	Fanout   int
	NextRun  int
	NextSeq  int64
	Tier0Seq int
	Cursors  []TierCursor
	Runs     []RunInfo

	// WAL recovery state. WALFlushed is the durable flush cursor: every
	// appended entry with LSN < WALFlushed is covered by a flushed run, so
	// replay skips it.
	// Un-flushed entries live in WAL segments [WALFirstSeg, WALNextSeg).
	WALFlushed  int64
	WALFirstSeg int
	WALNextSeg  int
}

// PartitionLayout is the parent manifest of a partitioned index: N child
// indexes of one variant, split by invSAX key range. Boundaries holds the
// N-1 split keys (strictly increasing); child i owns keys in
// [Boundaries[i-1], Boundaries[i]), with the first and last ranges open
// below and above. Children names the per-partition child indexes, each
// with its own manifest committed by the PR 5 machinery BEFORE the parent
// is committed — so a parent manifest that exists always references fully
// durable children.
//
// The parent is immutable after the build: mutable state (LSM run sets,
// insert counts) lives in the child manifests, which stay authoritative,
// so the parent's Count is the count at build time only and reopen does
// not cross-check it against the children.
type PartitionLayout struct {
	ChildVariant Variant
	Partitions   int
	Boundaries   []summary.Key
	Children     []string
}

// Manifest is the versioned description of one persisted index.
type Manifest struct {
	// Variant selects which layout section is populated.
	Variant Variant
	// SeriesLen, Segments, CardBits fix the summarization scheme; a reopen
	// with different parameters would misinterpret every key.
	SeriesLen int
	Segments  int
	CardBits  int
	// Materialized records whether raw series live inside the index.
	Materialized bool
	// LeafCap is the records-per-leaf capacity the index was built with.
	LeafCap int
	// RawName is the dataset file the positions refer to.
	RawName string
	// Count is the number of series durably indexed (for LSM: the sum of
	// the run counts; memtable contents are re-created by WAL replay).
	Count int64
	// Checksums records whether the index's persistent artifacts carry
	// the checksummed physical layout (storage.ChecksumFile blocks for
	// pages/leaves/runs, a record-sums sidecar for the raw file). Like
	// Materialized it is a property of the stored bytes, not a knob:
	// reopen adopts it.
	Checksums bool
	// Compressed records that LSM run files use the block-compressed
	// physical layout (internal/runblock: front-coded keys, delta-varint
	// positions, a block directory read through the shared block cache) —
	// the only run layout there is: every LSM manifest sets it, and Decode
	// refuses one that does not (flat 24-byte record arrays) with
	// ErrVersionMismatch.
	Compressed bool

	Tree *TreeLayout
	Trie *TrieLayout
	LSM  *LSMLayout
	Part *PartitionLayout
}

// FileName returns the manifest file for an index name prefix.
func FileName(indexName string) string { return indexName + ".manifest" }

// Encode serializes m with the version header and CRC32-C trailer.
func (m *Manifest) Encode() ([]byte, error) {
	switch m.Variant {
	case VariantTree, VariantTrie, VariantLSM, VariantPartitioned:
	default:
		return nil, fmt.Errorf("manifest: unknown variant %q", m.Variant)
	}
	// The decoder caps string fields at maxStringLen; refuse to commit a
	// manifest it would later reject as truncated.
	if len(m.RawName) > maxStringLen {
		return nil, fmt.Errorf("manifest: raw dataset name is %d bytes, max %d", len(m.RawName), maxStringLen)
	}
	if m.LSM != nil {
		for _, r := range m.LSM.Runs {
			if len(r.Name) > maxStringLen {
				return nil, fmt.Errorf("manifest: run name is %d bytes, max %d", len(r.Name), maxStringLen)
			}
		}
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
	w.bool(m.Checksums)
	w.bool(m.Compressed)
	switch m.Variant {
	case VariantTree:
		if m.Tree == nil {
			return nil, errors.New("manifest: tree variant without tree layout")
		}
		t := m.Tree
		w.u32(uint32(t.RecordSize))
		w.u32(uint32(t.KeyLen))
		w.u32(uint32(t.LeafCap))
		w.u32(uint32(t.Fanout))
		w.f64(t.FillFactor)
		w.u32(uint32(t.NumLeaves))
		w.u64(uint64(t.NextPage))
	case VariantTrie:
		if m.Trie == nil {
			return nil, errors.New("manifest: trie variant without trie layout")
		}
		w.u32(uint32(m.Trie.NumLeaves))
	case VariantLSM:
		if m.LSM == nil {
			return nil, errors.New("manifest: lsm variant without lsm layout")
		}
		l := m.LSM
		w.u32(uint32(l.Fanout))
		w.u32(uint32(l.NextRun))
		w.u64(uint64(l.NextSeq))
		w.u32(uint32(l.Tier0Seq))
		cursors := append([]TierCursor(nil), l.Cursors...)
		sort.Slice(cursors, func(a, b int) bool { return cursors[a].Tier < cursors[b].Tier })
		w.u32(uint32(len(cursors)))
		for _, c := range cursors {
			w.u32(uint32(c.Tier))
			w.u32(uint32(c.Groups))
		}
		w.u32(uint32(len(l.Runs)))
		for _, r := range l.Runs {
			w.str(r.Name)
			w.u32(uint32(r.Tier))
			w.u32(uint32(r.TierSeq))
			w.u64(uint64(r.Seq))
			w.u64(uint64(r.Count))
			w.bytes(r.MinKey[:])
			w.bytes(r.MaxKey[:])
		}
		w.u64(uint64(l.WALFlushed))
		w.u32(uint32(l.WALFirstSeg))
		w.u32(uint32(l.WALNextSeg))
	case VariantPartitioned:
		if m.Part == nil {
			return nil, errors.New("manifest: partitioned variant without partition layout")
		}
		p := m.Part
		if len(p.Boundaries) != p.Partitions-1 || len(p.Children) != p.Partitions {
			return nil, fmt.Errorf("manifest: partition layout shape mismatch (%d partitions, %d boundaries, %d children)",
				p.Partitions, len(p.Boundaries), len(p.Children))
		}
		for _, c := range p.Children {
			if len(c) > maxStringLen {
				return nil, fmt.Errorf("manifest: child name is %d bytes, max %d", len(c), maxStringLen)
			}
		}
		w.str(string(p.ChildVariant))
		w.u32(uint32(p.Partitions))
		for _, b := range p.Boundaries {
			w.bytes(b[:])
		}
		for _, c := range p.Children {
			w.str(c)
		}
	}
	payload := w.buf
	out := make([]byte, 0, headerSize+len(payload))
	out = binary.LittleEndian.AppendUint32(out, magic)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...), nil
}

// Decode parses and validates an encoded manifest. Every failure mode maps
// to ErrCorruptManifest or ErrVersionMismatch; Decode never panics on
// adversarial input.
func Decode(data []byte) (*Manifest, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorruptManifest, len(data))
	}
	if binary.LittleEndian.Uint32(data) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptManifest)
	}
	v := binary.LittleEndian.Uint32(data[4:])
	if v < minVersion || v > version {
		return nil, fmt.Errorf("%w: format version %d, this build reads version %d (rebuild the index)", ErrVersionMismatch, v, version)
	}
	payloadLen := binary.LittleEndian.Uint32(data[8:])
	if int64(payloadLen) != int64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: payload length %d does not match file size", ErrCorruptManifest, payloadLen)
	}
	payload := data[headerSize:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[12:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorruptManifest, want, got)
	}
	r := reader{buf: payload}
	m := &Manifest{}
	m.Variant = Variant(r.str())
	m.SeriesLen = int(r.u32())
	m.Segments = int(r.u32())
	m.CardBits = int(r.u32())
	m.Materialized = r.bool()
	m.LeafCap = int(r.u32())
	m.RawName = r.str()
	m.Count = int64(r.u64())
	m.Checksums = r.bool()
	m.Compressed = r.bool()
	switch m.Variant {
	case VariantTree:
		t := &TreeLayout{}
		t.RecordSize = int(r.u32())
		t.KeyLen = int(r.u32())
		t.LeafCap = int(r.u32())
		t.Fanout = int(r.u32())
		t.FillFactor = r.f64()
		t.NumLeaves = int(r.u32())
		t.NextPage = int64(r.u64())
		m.Tree = t
	case VariantTrie:
		m.Trie = &TrieLayout{NumLeaves: int(r.u32())}
	case VariantLSM:
		l := &LSMLayout{}
		l.Fanout = int(r.u32())
		l.NextRun = int(r.u32())
		l.NextSeq = int64(r.u64())
		l.Tier0Seq = int(r.u32())
		nc := int(r.u32())
		if r.err == nil && nc > r.remaining()/8 {
			return nil, fmt.Errorf("%w: %d tier cursors exceed payload", ErrCorruptManifest, nc)
		}
		for i := 0; i < nc && r.err == nil; i++ {
			l.Cursors = append(l.Cursors, TierCursor{Tier: int(r.u32()), Groups: int(r.u32())})
		}
		nr := int(r.u32())
		// A run entry is at least name length + fixed fields + two keys.
		minRun := 4 + 4 + 4 + 8 + 8 + 2*summary.KeySize
		if r.err == nil && nr > r.remaining()/minRun {
			return nil, fmt.Errorf("%w: %d runs exceed payload", ErrCorruptManifest, nr)
		}
		for i := 0; i < nr && r.err == nil; i++ {
			ri := RunInfo{
				Name:    r.str(),
				Tier:    int(r.u32()),
				TierSeq: int(r.u32()),
				Seq:     int64(r.u64()),
				Count:   int64(r.u64()),
			}
			r.keyInto(&ri.MinKey)
			r.keyInto(&ri.MaxKey)
			l.Runs = append(l.Runs, ri)
		}
		l.WALFlushed = int64(r.u64())
		l.WALFirstSeg = int(r.u32())
		l.WALNextSeg = int(r.u32())
		m.LSM = l
	case VariantPartitioned:
		p := &PartitionLayout{}
		p.ChildVariant = Variant(r.str())
		p.Partitions = int(r.u32())
		// Boundaries and child names are sized by Partitions; bound the
		// claimed count by what the payload could possibly hold (a key per
		// boundary plus a length-prefixed name per child).
		if r.err == nil && (p.Partitions < 2 || p.Partitions-1 > r.remaining()/(summary.KeySize+4)) {
			return nil, fmt.Errorf("%w: impossible partition count %d", ErrCorruptManifest, p.Partitions)
		}
		for i := 0; i < p.Partitions-1 && r.err == nil; i++ {
			var k summary.Key
			r.keyInto(&k)
			p.Boundaries = append(p.Boundaries, k)
		}
		for i := 0; i < p.Partitions && r.err == nil; i++ {
			p.Children = append(p.Children, r.str())
		}
		m.Part = p
	default:
		if r.err == nil {
			return nil, fmt.Errorf("%w: unknown variant %q", ErrCorruptManifest, m.Variant)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptManifest, r.remaining())
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// validate rejects decoded values no writer could have produced.
func (m *Manifest) validate() error {
	switch {
	case m.SeriesLen <= 0 || m.Segments <= 0 || m.CardBits <= 0 || m.CardBits > 8:
		return fmt.Errorf("%w: impossible summarization parameters (%d/%d/%d)",
			ErrCorruptManifest, m.SeriesLen, m.Segments, m.CardBits)
	case m.Count < 0:
		return fmt.Errorf("%w: negative count", ErrCorruptManifest)
	case m.RawName == "":
		return fmt.Errorf("%w: empty raw dataset name", ErrCorruptManifest)
	}
	if m.Trie != nil {
		// Every leaf holds a record, and only an empty trie has no leaf.
		if n := int64(m.Trie.NumLeaves); n < 0 || n > m.Count || (n == 0) != (m.Count == 0) {
			return fmt.Errorf("%w: %d trie leaves for %d records", ErrCorruptManifest, n, m.Count)
		}
	}
	if m.LSM != nil {
		if !m.Compressed {
			return fmt.Errorf("%w: lsm manifest with flat (uncompressed) runs, this build reads block-compressed runs only (rebuild the index)",
				ErrVersionMismatch)
		}
		for i := 1; i < len(m.LSM.Cursors); i++ {
			if m.LSM.Cursors[i].Tier <= m.LSM.Cursors[i-1].Tier {
				return fmt.Errorf("%w: tier cursors out of order", ErrCorruptManifest)
			}
		}
		var total int64
		for _, ri := range m.LSM.Runs {
			if ri.Name == "" || ri.Count <= 0 || ri.Tier < 0 {
				return fmt.Errorf("%w: impossible run entry", ErrCorruptManifest)
			}
			total += ri.Count
		}
		if total != m.Count {
			return fmt.Errorf("%w: run counts sum to %d, manifest count is %d",
				ErrCorruptManifest, total, m.Count)
		}
		l := m.LSM
		if l.WALFlushed < 0 || l.WALFirstSeg < 0 || l.WALNextSeg < l.WALFirstSeg {
			return fmt.Errorf("%w: impossible WAL cursor (flushed=%d segments=[%d,%d))",
				ErrCorruptManifest, l.WALFlushed, l.WALFirstSeg, l.WALNextSeg)
		}
	}
	if m.Part != nil {
		p := m.Part
		switch p.ChildVariant {
		case VariantTree, VariantTrie, VariantLSM:
		default:
			return fmt.Errorf("%w: impossible child variant %q", ErrCorruptManifest, p.ChildVariant)
		}
		if p.Partitions < 2 || len(p.Boundaries) != p.Partitions-1 || len(p.Children) != p.Partitions {
			return fmt.Errorf("%w: partition layout shape mismatch (%d partitions, %d boundaries, %d children)",
				ErrCorruptManifest, p.Partitions, len(p.Boundaries), len(p.Children))
		}
		for i := 1; i < len(p.Boundaries); i++ {
			if p.Boundaries[i].Compare(p.Boundaries[i-1]) <= 0 {
				return fmt.Errorf("%w: partition boundaries out of order", ErrCorruptManifest)
			}
		}
		seen := make(map[string]bool, len(p.Children))
		for _, c := range p.Children {
			if c == "" || seen[c] {
				return fmt.Errorf("%w: empty or duplicate partition child name", ErrCorruptManifest)
			}
			seen[c] = true
		}
	}
	return nil
}

// Commit atomically writes m as the manifest for indexName on fs: the
// encoding goes to a temporary sibling first and is renamed over the live
// manifest in one step, so a crash mid-commit preserves the previous
// manifest.
func Commit(fs storage.FS, indexName string, m *Manifest) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(fs, FileName(indexName), data)
}

// Load reads and decodes the manifest for indexName from fs.
func Load(fs storage.FS, indexName string) (*Manifest, error) {
	data, err := storage.ReadFileAll(fs, FileName(indexName))
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// CheckParams fails with ErrConfigMismatch unless the caller's
// summarization parameters, materialization, and dataset file match the
// stored manifest — the loud config-mismatch detection every Open path
// runs before touching index files.
func (m *Manifest) CheckParams(p summary.Params, materialized bool, rawName string) error {
	if p.SeriesLen != m.SeriesLen || p.Segments != m.Segments || p.CardBits != m.CardBits {
		return fmt.Errorf("%w: summarization %d/%d/%d (series/segments/cardbits), stored index uses %d/%d/%d",
			ErrConfigMismatch, p.SeriesLen, p.Segments, p.CardBits, m.SeriesLen, m.Segments, m.CardBits)
	}
	if materialized != m.Materialized {
		return fmt.Errorf("%w: materialized=%v, stored index has materialized=%v",
			ErrConfigMismatch, materialized, m.Materialized)
	}
	if rawName != m.RawName {
		return fmt.Errorf("%w: dataset file %q, stored index was built over %q",
			ErrConfigMismatch, rawName, m.RawName)
	}
	return nil
}

// CheckVariant fails with ErrConfigMismatch unless the manifest describes
// the expected index variant.
func (m *Manifest) CheckVariant(want Variant) error {
	if m.Variant != want {
		return fmt.Errorf("%w: stored index is a %s index, not %s", ErrConfigMismatch, m.Variant, want)
	}
	return nil
}

// writer accumulates the payload encoding.
type writer struct{ buf []byte }

func (w *writer) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *writer) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes the payload with sticky bounds-checked errors.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorruptManifest, what, r.off)
	}
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 4 {
		r.fail("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.remaining() < 1 {
		r.fail("bool")
		return false
	}
	v := r.buf[r.off]
	r.off++
	if v > 1 {
		if r.err == nil {
			r.err = fmt.Errorf("%w: bool byte %d", ErrCorruptManifest, v)
		}
		return false
	}
	return v == 1
}

func (r *reader) str() string {
	// Compare as uint32: on 32-bit platforms a forged length >= 2^31
	// would convert to a negative int and slip past int comparisons.
	n32 := r.u32()
	if r.err != nil {
		return ""
	}
	if n32 > maxStringLen || int(n32) > r.remaining() {
		r.fail("string")
		return ""
	}
	n := int(n32)
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) keyInto(k *summary.Key) {
	if r.err != nil {
		return
	}
	if r.remaining() < summary.KeySize {
		r.fail("key")
		return
	}
	copy(k[:], r.buf[r.off:])
	r.off += summary.KeySize
}
