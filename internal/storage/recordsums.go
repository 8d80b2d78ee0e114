package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

const (
	recordSumsMagic   uint32 = 0x53524343 // "CCRS": Coconut Raw-record Sums
	recordSumsVersion uint32 = 1

	// RecordSumsHeaderSize is the fixed header of a record-sums sidecar:
	// magic, version, record size, reserved (4 bytes each, little-endian).
	RecordSumsHeaderSize = 16
)

// RecordSumsName returns the sidecar file name guarding rawName.
func RecordSumsName(rawName string) string { return rawName + ".crc" }

// RecordSums is the integrity sidecar for a raw series file: one CRC32-C
// per fixed-size encoded record, kept in memory for verification on every
// raw read and persisted to rawName+".crc" at the owner's durability
// points. The raw file itself keeps its exact legacy byte layout — it is
// the user-visible dataset and the rebuild source for every index, and may
// be shared by several indexes (all of which compute identical sidecars).
//
// Crash tolerance mirrors the WAL's: the raw bytes are fsynced before the
// sidecar that describes them, and the sidecar before the manifest commit
// that references new records, so after a crash it may trail the durable
// raw tail but never run past it. Reconcile backfills the missing entries
// by re-reading the (already fsynced) raw bytes, making open idempotent; a
// sidecar covering records the raw file no longer holds is corruption.
//
// Verification and appends may race (queries during ingest); an internal
// RWMutex makes the handle safe for that. Only the handle that writes the
// raw file should call Flush — partitioned indexes share one parent-owned
// sidecar with their children read-only.
type RecordSums struct {
	fs      FS
	name    string
	recSize int

	mu    sync.RWMutex
	sums  []uint32
	dirty int64 // first entry not yet persisted (== len(sums) when clean)
}

// BuildRecordSums computes the sidecar for rawName from scratch — one
// sequential pass over the raw file — persists and fsyncs it, and returns
// the loaded handle. Trailing raw bytes short of a full record (a torn
// append tail) are ignored, matching how every index interprets the file.
// Builds write the same file through NewRecordSums and Fill; this separate
// pass is the reference they are tested against.
func BuildRecordSums(fs FS, rawName string, recSize int) (*RecordSums, error) {
	if recSize <= 0 {
		return nil, fmt.Errorf("storage: record sums for %q: invalid record size %d", rawName, recSize)
	}
	raw, err := fs.Open(rawName)
	if err != nil {
		return nil, fmt.Errorf("storage: record sums for %q: %w", rawName, err)
	}
	defer raw.Close()
	size, err := raw.Size()
	if err != nil {
		return nil, fmt.Errorf("storage: record sums for %q: size: %w", rawName, err)
	}
	r := &RecordSums{fs: fs, name: RecordSumsName(rawName), recSize: recSize}
	if err := r.appendFromRaw(raw, size/int64(recSize)); err != nil {
		return nil, err
	}
	if err := r.Flush(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewRecordSums returns the sidecar of a fresh build over raw (open on
// rawName): one entry per whole record, each still to be computed by Fill —
// the build's summarization pass checksums the very bytes it derives keys
// from, so the raw file is read once. Nothing is persisted until Flush,
// which then writes the same file BuildRecordSums would have.
func NewRecordSums(fs FS, rawName string, recSize int, raw File) (*RecordSums, error) {
	if recSize <= 0 {
		return nil, fmt.Errorf("storage: record sums for %q: invalid record size %d", rawName, recSize)
	}
	size, err := raw.Size()
	if err != nil {
		return nil, fmt.Errorf("storage: record sums for %q: size: %w", rawName, err)
	}
	return &RecordSums{fs: fs, name: RecordSumsName(rawName), recSize: recSize, sums: make([]uint32, size/int64(recSize))}, nil
}

// Fill records the checksums of the whole records encoded back to back in
// enc, the first at position base, into entries NewRecordSums allocated. It
// takes no lock: concurrent callers must cover disjoint ranges and finish
// before anything else touches the handle.
func (r *RecordSums) Fill(base int64, enc []byte) {
	for i := 0; i+r.recSize <= len(enc); i += r.recSize {
		r.sums[base] = crc32.Checksum(enc[i:i+r.recSize], crcTable)
		base++
	}
}

// OpenRecordSums loads an existing sidecar for rawName. Every index build
// writes one, so a missing sidecar is a lost file: it returns
// ErrCorruptData (and ErrNotExist), as does a mangled header. A trailing
// partial entry — the torn tail of a crashed flush — is dropped, and
// Reconcile restores it from the raw bytes.
func OpenRecordSums(fs FS, rawName string, recSize int) (*RecordSums, error) {
	if recSize <= 0 {
		return nil, fmt.Errorf("storage: record sums for %q: invalid record size %d", rawName, recSize)
	}
	name := RecordSumsName(rawName)
	data, err := ReadFileAll(fs, name)
	if errors.Is(err, ErrNotExist) {
		return nil, fmt.Errorf("storage: record sums %q: %w: %w", name, err, ErrCorruptData)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: record sums %q: %w", name, err)
	}
	if len(data) < RecordSumsHeaderSize {
		return nil, fmt.Errorf("storage: record sums %q: %d bytes is too short for a header: %w", name, len(data), ErrCorruptData)
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != recordSumsMagic {
		return nil, fmt.Errorf("storage: record sums %q: bad magic %#x: %w", name, m, ErrCorruptData)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != recordSumsVersion {
		return nil, fmt.Errorf("storage: record sums %q: unsupported version %d: %w", name, v, ErrCorruptData)
	}
	if rs := binary.LittleEndian.Uint32(data[8:12]); rs != uint32(recSize) {
		return nil, fmt.Errorf("storage: record sums %q: record size %d does not match expected %d: %w", name, rs, recSize, ErrCorruptData)
	}
	body := data[RecordSumsHeaderSize:]
	n := len(body) / 4 // drop a torn trailing partial entry
	r := &RecordSums{fs: fs, name: name, recSize: recSize, sums: make([]uint32, n), dirty: int64(n)}
	for i := 0; i < n; i++ {
		r.sums[i] = binary.LittleEndian.Uint32(body[i*4 : i*4+4])
	}
	return r, nil
}

// LoadRecordSums returns the sidecar of rawName as an index open needs it:
// the persisted one, reconciled against raw (open on rawName) — the raw
// file may have grown past the sidecar's last flush when a crash fell
// between a raw append and the sidecar flush, and the missing entries are
// backfilled from the fsynced raw bytes. A missing sidecar, or a raw file
// shorter than the sidecar's coverage, fails with ErrCorruptData. Nothing
// is written here: a reconciled sidecar is not flushed, and a refused one
// is left as it is.
func LoadRecordSums(fs FS, rawName string, recSize int, raw File) (*RecordSums, error) {
	sums, err := OpenRecordSums(fs, rawName, recSize)
	if err != nil {
		return nil, err
	}
	size, err := raw.Size()
	if err != nil {
		return nil, fmt.Errorf("storage: record sums for %q: size: %w", rawName, err)
	}
	if err := sums.Reconcile(raw, size/int64(recSize)); err != nil {
		return nil, err
	}
	return sums, nil
}

// Records returns how many records the sidecar currently covers.
func (r *RecordSums) Records() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return int64(len(r.sums))
}

// Verify checks the encoded record bytes read back for position pos
// against the recorded checksum. A position past the covered range or a
// CRC mismatch returns ErrCorruptData.
func (r *RecordSums) Verify(pos int64, enc []byte) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if pos < 0 || pos >= int64(len(r.sums)) {
		return fmt.Errorf("storage: record sums %q: position %d outside covered range [0,%d): %w", r.name, pos, len(r.sums), ErrCorruptData)
	}
	if crc32.Checksum(enc, crcTable) != r.sums[pos] {
		return fmt.Errorf("storage: record sums %q: record %d crc mismatch (raw file or sidecar rot): %w", r.name, pos, ErrCorruptData)
	}
	return nil
}

// Set records the checksum of the encoded record just written at pos.
// Appends must be in order (pos == Records()); rewriting an existing
// position updates it in place.
func (r *RecordSums) Set(pos int64, enc []byte) {
	sum := crc32.Checksum(enc, crcTable)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case pos == int64(len(r.sums)):
		r.sums = append(r.sums, sum)
	case pos >= 0 && pos < int64(len(r.sums)):
		r.sums[pos] = sum
	default:
		// Out-of-order append: records are only ever written densely, so
		// this is a programming error worth failing loudly on.
		panic(fmt.Sprintf("storage: record sums %q: non-contiguous Set(%d) with %d records", r.name, pos, len(r.sums)))
	}
	if pos < r.dirty {
		r.dirty = pos
	}
}

// Reconcile aligns the sidecar with the recovered raw state, which holds
// records whole records: entries missing up to records are recomputed from
// the raw bytes (sound, because the raw file is fsynced before any record
// is acknowledged, and before the sidecar that describes it). A raw file
// holding fewer records than the sidecar covers lost bytes that were
// durable — no crash leaves that state — so it fails with ErrCorruptData
// and the sidecar is left as it was. Call Flush afterwards to persist the
// result.
func (r *RecordSums) Reconcile(raw File, records int64) error {
	if have := r.Records(); records < have {
		return fmt.Errorf("storage: record sums %q: sidecar covers %d records but raw file holds only %d: %w", r.name, have, records, ErrCorruptData)
	}
	return r.appendFromRaw(raw, records)
}

// appendFromRaw extends the in-memory sums up to records entries by
// reading the raw file sequentially from the current boundary.
func (r *RecordSums) appendFromRaw(raw File, records int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := int64(len(r.sums))
	if records <= have {
		return nil
	}
	off := have * int64(r.recSize)
	sr := NewSequentialReader(raw, off, (records-have)*int64(r.recSize), 1<<20)
	buf := make([]byte, r.recSize)
	for pos := have; pos < records; pos++ {
		if _, err := io.ReadFull(sr, buf); err != nil {
			return fmt.Errorf("storage: record sums %q: read raw record %d: %w", r.name, pos, readFailure(err))
		}
		r.sums = append(r.sums, crc32.Checksum(buf, crcTable))
	}
	return nil
}

// Flush persists the header and all unpersisted entries, truncates any
// stale bytes past the logical end, and fsyncs the sidecar.
func (r *RecordSums) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var f File
	var err error
	if r.fs.Exists(r.name) {
		f, err = r.fs.Open(r.name)
	} else {
		f, err = r.fs.Create(r.name)
		r.dirty = 0
	}
	if err != nil {
		return fmt.Errorf("storage: record sums %q: %w", r.name, err)
	}
	defer f.Close()
	if r.dirty == 0 {
		var hdr [RecordSumsHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], recordSumsMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], recordSumsVersion)
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(r.recSize))
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("storage: record sums %q: write header: %w", r.name, err)
		}
	}
	if r.dirty < int64(len(r.sums)) {
		enc := make([]byte, 4*(int64(len(r.sums))-r.dirty))
		for i, s := range r.sums[r.dirty:] {
			binary.LittleEndian.PutUint32(enc[i*4:], s)
		}
		if _, err := f.WriteAt(enc, RecordSumsHeaderSize+4*r.dirty); err != nil {
			return fmt.Errorf("storage: record sums %q: write entries: %w", r.name, err)
		}
	}
	end := RecordSumsHeaderSize + 4*int64(len(r.sums))
	if size, err := f.Size(); err == nil && size > end {
		if err := f.Truncate(end); err != nil {
			return fmt.Errorf("storage: record sums %q: truncate: %w", r.name, err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: record sums %q: sync: %w", r.name, err)
	}
	r.dirty = int64(len(r.sums))
	return nil
}

// VerifyRecordSums checks rawName against its sidecar record by record,
// returning the number of records verified and the first mismatch as
// ErrCorruptData. A raw file LONGER than the sidecar's coverage is not a
// mismatch: appends land in the raw file before the sidecar flushes, so a
// crash legitimately leaves an unverifiable tail (reconciled at the next
// open); only the covered prefix is checked. A raw file SHORTER than the
// coverage lost committed data and is corruption — rot and truncation
// never lengthen a file.
func VerifyRecordSums(fs FS, rawName string, recSize int) (int64, error) {
	r, err := OpenRecordSums(fs, rawName, recSize)
	if err != nil {
		return 0, err
	}
	raw, err := fs.Open(rawName)
	if err != nil {
		return 0, fmt.Errorf("storage: record sums for %q: %w", rawName, err)
	}
	defer raw.Close()
	size, err := raw.Size()
	if err != nil {
		return 0, err
	}
	records := size / int64(recSize)
	if records < r.Records() {
		return 0, fmt.Errorf("storage: record sums %q: sidecar covers %d records but raw file holds only %d: %w", r.name, r.Records(), records, ErrCorruptData)
	}
	records = r.Records()
	sr := NewSequentialReader(raw, 0, records*int64(recSize), 1<<20)
	buf := make([]byte, recSize)
	for pos := int64(0); pos < records; pos++ {
		if _, err := io.ReadFull(sr, buf); err != nil {
			return pos, fmt.Errorf("storage: record sums %q: read raw record %d: %w", r.name, pos, readFailure(err))
		}
		if err := r.Verify(pos, buf); err != nil {
			return pos, err
		}
	}
	return records, nil
}
