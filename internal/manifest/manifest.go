// Package manifest implements the durable index lifecycle's source of
// truth: one small, versioned, checksummed file per index, <name>.manifest,
// that records everything needed to reopen it from storage without touching
// the raw dataset — the format version, the summarization parameters, the
// key-range boundaries of its partitions (none when it has one), and one
// layout per partition: the leaf run's generation and record count for a
// Coconut-Tree, the run list (its whole compaction schedule) for a
// Coconut-LSM. An unpartitioned index is the same manifest with one layout.
//
// A manifest is committed atomically: the encoding is written to a sibling
// temporary file and renamed over the live manifest (storage.FS.Rename), so
// a crash during a commit leaves the previous manifest intact. The one
// committer is internal/partition, which commits every partition's state in
// one rename. The payload is guarded by a CRC32-C (Castagnoli) checksum; any
// truncation, bit flip, or short field decodes to ErrCorruptManifest, and a
// manifest of any other format version fails with ErrVersionMismatch: never
// a panic or a silent misread.
package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

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
	// build does not read: its files are laid out in a way no reader here
	// understands, so the index must be rebuilt.
	ErrVersionMismatch = errors.New("manifest: unsupported format version")
	// ErrConfigMismatch reports a caller configuration that conflicts with
	// the stored manifest (different summarization, materialization, or
	// dataset file).
	ErrConfigMismatch = errors.New("manifest: configuration does not match stored index")
)

// Variant names the kind of an index's partitions.
type Variant string

// The two persistable index variants.
const (
	VariantTree Variant = "tree"
	VariantLSM  Variant = "lsm"
)

// variants are the variants by the one-byte code an encoding stores.
var variants = [...]Variant{VariantTree, VariantLSM}

const (
	magic uint32 = 0x464D4343 // "CCMF" little-endian
	// version is the one format this build writes and reads. Earlier
	// versions describe layouts no reader exists for any more (padded trie
	// leaf pages, flat LSM runs, LSM runs framed in checksum blocks, tree
	// directories in a separate B+-tree meta file, LSM write-ahead logs, tree
	// leaves on stamped B+-tree pages, LSM compaction cursors beside the run
	// list, a leaf capacity and a tree leaf directory of record counts,
	// Coconut-Trie layouts, and a manifest per partition beside a parent
	// naming them) and fail with ErrVersionMismatch: rebuild the index.
	version uint32 = 12
	// headerSize is magic + version + payload length + CRC32-C.
	headerSize = 16
	// maxStringLen bounds decoded string fields (file names).
	maxStringLen = 1 << 12
	// minLayout is the fewest payload bytes a partition's layout takes: a
	// tree's count and generation.
	minLayout = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RunInfo describes one immutable LSM run: its file, its place in the
// compaction schedule (tier, and seq: its age), and integrity bounds
// (record count and key range) verified when the run file is reloaded.
type RunInfo struct {
	Name   string
	Tier   int
	Seq    int64
	Count  int64
	MinKey summary.Key
	MaxKey summary.Key
}

// BulkTier is the tier of an LSM's bulk-loaded run: effectively maximal, so
// ingest-time compactions never try to fold it.
const BulkTier = 1 << 30

// Layout is one partition's durable state. Count is the number of series it
// durably indexes. A Coconut-Tree stores its leaf run's generation Gen (a
// build writes generation 0, and each insert batch merges into the next);
// the run holds Count records, and its leaves are its checksum blocks, so
// nothing else about it is stored. A Coconut-LSM stores its run list, oldest
// first — the whole compaction schedule: the next group is the oldest runs
// of the lowest full tier, and a run's tier and seq name its file — whose
// counts sum to Count, NextSeq, the seq of the next flush run, and Flushed,
// a raw-file position: every record below it that the partition owns is in
// a run, and Open re-summarizes the owned records from it up to the raw
// file's acknowledged end into the memtable.
type Layout struct {
	Count int64
	Gen   int64

	NextSeq int64
	Runs    []RunInfo
	Flushed int64
}

// Manifest is the versioned description of one persisted index.
type Manifest struct {
	// Variant is the kind of every partition.
	Variant Variant
	// SeriesLen, Segments, CardBits fix the summarization scheme; a reopen
	// with different parameters would misinterpret every key.
	SeriesLen int
	Segments  int
	CardBits  int
	// Materialized records whether raw series live inside the index.
	Materialized bool
	// RawName is the dataset file the positions refer to.
	RawName string
	// Boundaries holds the len(Children)-1 strictly increasing split keys:
	// partition i owns keys in [Boundaries[i-1], Boundaries[i]), with the
	// first and last ranges open below and above.
	Boundaries []summary.Key
	// Children holds one layout per partition, in key order.
	Children []Layout
}

// FileName returns the manifest file for an index name prefix.
func FileName(indexName string) string { return indexName + ".manifest" }

// ChildName returns the name prefix of the files of partition i of the n
// partitions of index name: the index name itself when n is 1.
func ChildName(name string, i, n int) string {
	if n == 1 {
		return name
	}
	return fmt.Sprintf("%s.p%03d", name, i)
}

// Count is the number of series the index durably indexes: the sum of its
// partitions' counts.
func (m *Manifest) Count() int64 {
	var n int64
	for _, l := range m.Children {
		n += l.Count
	}
	return n
}

// Encode serializes m with the version header and CRC32-C trailer.
func (m *Manifest) Encode() ([]byte, error) {
	code := slices.Index(variants[:], m.Variant)
	if code < 0 {
		return nil, fmt.Errorf("manifest: unknown variant %q", m.Variant)
	}
	if len(m.Children) == 0 || len(m.Boundaries) != len(m.Children)-1 {
		return nil, fmt.Errorf("manifest: %d partitions with %d boundaries", len(m.Children), len(m.Boundaries))
	}
	// The decoder caps string fields at maxStringLen; refuse to commit a
	// manifest it would later reject as truncated.
	if len(m.RawName) > maxStringLen {
		return nil, fmt.Errorf("manifest: raw dataset name is %d bytes, max %d", len(m.RawName), maxStringLen)
	}
	var w writer
	w.u8(byte(code))
	w.u32(uint32(m.SeriesLen))
	w.u32(uint32(m.Segments))
	w.u32(uint32(m.CardBits))
	w.bool(m.Materialized)
	w.str(m.RawName)
	w.u32(uint32(len(m.Children)))
	for _, b := range m.Boundaries {
		w.bytes(b[:])
	}
	for _, l := range m.Children {
		w.u64(uint64(l.Count))
		if m.Variant == VariantTree {
			w.u64(uint64(l.Gen))
			continue
		}
		w.u64(uint64(l.NextSeq))
		w.u32(uint32(len(l.Runs)))
		for _, r := range l.Runs {
			if len(r.Name) > maxStringLen {
				return nil, fmt.Errorf("manifest: run name is %d bytes, max %d", len(r.Name), maxStringLen)
			}
			w.str(r.Name)
			w.u32(uint32(r.Tier))
			w.u64(uint64(r.Seq))
			w.u64(uint64(r.Count))
			w.bytes(r.MinKey[:])
			w.bytes(r.MaxKey[:])
		}
		w.u64(uint64(l.Flushed))
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
	if v != version {
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
	m.Variant = variants[r.code(len(variants), "variant")]
	m.SeriesLen = int(r.u32())
	m.Segments = int(r.u32())
	m.CardBits = int(r.u32())
	m.Materialized = r.bool()
	m.RawName = r.str()
	n := int64(r.u32())
	// A partition takes a boundary key (but the first) and a layout: bound
	// the claimed count by what the payload could possibly hold.
	if r.err == nil && (n < 1 || (n-1)*summary.KeySize+n*minLayout > int64(r.remaining())) {
		return nil, fmt.Errorf("%w: impossible partition count %d", ErrCorruptManifest, n)
	}
	for i := int64(1); i < n && r.err == nil; i++ {
		var k summary.Key
		r.keyInto(&k)
		m.Boundaries = append(m.Boundaries, k)
	}
	for i := int64(0); i < n && r.err == nil; i++ {
		l := Layout{Count: int64(r.u64())}
		if m.Variant == VariantTree {
			l.Gen = int64(r.u64())
			m.Children = append(m.Children, l)
			continue
		}
		l.NextSeq = int64(r.u64())
		nr := int(r.u32())
		// A run entry is at least name length + fixed fields + two keys.
		minRun := 4 + 4 + 8 + 8 + 2*summary.KeySize
		if r.err == nil && nr > r.remaining()/minRun {
			return nil, fmt.Errorf("%w: %d runs exceed payload", ErrCorruptManifest, nr)
		}
		for j := 0; j < nr && r.err == nil; j++ {
			ri := RunInfo{Name: r.str(), Tier: int(r.u32()), Seq: int64(r.u64()), Count: int64(r.u64())}
			r.keyInto(&ri.MinKey)
			r.keyInto(&ri.MaxKey)
			l.Runs = append(l.Runs, ri)
		}
		l.Flushed = int64(r.u64())
		m.Children = append(m.Children, l)
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
	case m.RawName == "":
		return fmt.Errorf("%w: empty raw dataset name", ErrCorruptManifest)
	}
	for i := 1; i < len(m.Boundaries); i++ {
		if m.Boundaries[i].Compare(m.Boundaries[i-1]) <= 0 {
			return fmt.Errorf("%w: partition boundaries out of order", ErrCorruptManifest)
		}
	}
	for _, l := range m.Children {
		if err := l.validate(m.Variant); err != nil {
			return err
		}
	}
	return nil
}

// validate rejects a partition layout no writer of variant v could have
// produced.
func (l *Layout) validate(v Variant) error {
	if l.Count < 0 {
		return fmt.Errorf("%w: negative count", ErrCorruptManifest)
	}
	if v == VariantTree {
		if l.Gen < 0 {
			return fmt.Errorf("%w: leaf run generation %d", ErrCorruptManifest, l.Gen)
		}
		return nil
	}
	var total int64
	last := int64(-1)
	for _, ri := range l.Runs {
		if ri.Name == "" || ri.Count <= 0 || ri.Tier < 0 {
			return fmt.Errorf("%w: impossible run entry", ErrCorruptManifest)
		}
		// Names derive from seqs: a repeated seq, or one the next flush
		// would take, is two runs for one file.
		if ri.Seq <= last || ri.Seq >= l.NextSeq {
			return fmt.Errorf("%w: run seq %d out of age order (previous %d, next %d)",
				ErrCorruptManifest, ri.Seq, last, l.NextSeq)
		}
		last = ri.Seq
		total += ri.Count
	}
	if total != l.Count {
		return fmt.Errorf("%w: run counts sum to %d, layout count is %d",
			ErrCorruptManifest, total, l.Count)
	}
	if l.Flushed < l.Count {
		return fmt.Errorf("%w: flushed position %d below the %d records in runs",
			ErrCorruptManifest, l.Flushed, l.Count)
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
func (w *writer) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) u8(v byte)      { w.buf = append(w.buf, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
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

// code reads one byte that must be below n: a flag or a variant's code.
func (r *reader) code(n int, what string) int {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail(what)
		return 0
	}
	v := int(r.buf[r.off])
	r.off++
	if v >= n {
		r.err = fmt.Errorf("%w: %s byte %d", ErrCorruptManifest, what, v)
		return 0
	}
	return v
}

func (r *reader) bool() bool { return r.code(2, "bool") == 1 }

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
