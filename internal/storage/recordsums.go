package storage

import (
	"context"
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

// RecordSums is the raw dataset's log: the integrity sidecar of a raw series
// file — one CRC32-C per fixed-size encoded record, kept in memory to verify
// every raw read and persisted to rawName+".crc" — and the one append and
// commit point of every index over the file. The raw file keeps its exact
// legacy byte layout: it is the user-visible dataset and the rebuild source
// for every index, and every index key is a pure function of a record's
// bytes, so the raw file itself is the log the indexes are derived from.
//
// The sidecar's persisted length is the acknowledged end of the dataset.
// Append writes raw bytes at the frontier — the sidecar's record count, not
// the raw file's size — and Commit fsyncs the raw file before it writes and
// fsyncs the entries that describe them. So a persisted entry always
// describes durable bytes, raw bytes past the persisted entries were never
// acknowledged (nothing reads them, and the next Append overwrites them), and
// a raw file shorter than its sidecar lost durable data: corruption.
//
// Verification, appends and commits may race (queries during ingest, writers
// sharing a commit); the handle is safe for concurrent use. Partitioned
// indexes share the parent's handle with their children.
type RecordSums struct {
	fs      FS
	rawName string
	name    string
	recSize int

	mu   sync.RWMutex
	sums []uint32

	// amu serializes appends; raw is the append handle the first one opens.
	amu sync.Mutex
	raw File

	// The group commit, under cmu: durable is the number of persisted
	// entries, committing marks a round in flight, and err is the sticky
	// failure of one. side is the sidecar handle the rounds write through.
	cmu        sync.Mutex
	cond       *sync.Cond
	durable    int64
	committing bool
	closed     bool
	err        error
	side       File
}

func newRecordSums(fs FS, rawName string, recSize int, sums []uint32, durable int64) *RecordSums {
	r := &RecordSums{fs: fs, rawName: rawName, name: RecordSumsName(rawName), recSize: recSize, sums: sums, durable: durable}
	r.cond = sync.NewCond(&r.cmu)
	return r
}

// BuildRecordSums computes the sidecar for rawName from scratch — one
// sequential pass over the raw file — persists and fsyncs it, and returns
// the loaded handle. Trailing raw bytes short of a full record are ignored,
// matching how every index interprets the file. Builds write the same file
// through NewRecordSums and Fill; this separate pass is the reference they
// are tested against.
func BuildRecordSums(fs FS, rawName string, recSize int) (*RecordSums, error) {
	raw, err := fs.Open(rawName)
	if err != nil {
		return nil, fmt.Errorf("storage: record sums for %q: %w", rawName, err)
	}
	defer raw.Close()
	r, err := NewRecordSums(fs, rawName, recSize, raw)
	if err != nil {
		return nil, err
	}
	sr := NewSequentialReader(raw, 0, r.Records()*int64(recSize), 1<<20)
	buf := make([]byte, recSize)
	for pos := range r.sums {
		if _, err := io.ReadFull(sr, buf); err != nil {
			return nil, fmt.Errorf("storage: record sums %q: read raw record %d: %w", r.name, pos, readFailure(err))
		}
		r.Fill(int64(pos), buf)
	}
	if err := r.Flush(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewRecordSums returns the sidecar of a fresh build over raw (open on
// rawName): one entry per whole record, each still to be computed by Fill —
// the build's summarization pass checksums the very bytes it derives keys
// from, so the raw file is read once in file order. Nothing is persisted
// until Flush.
func NewRecordSums(fs FS, rawName string, recSize int, raw File) (*RecordSums, error) {
	if recSize <= 0 {
		return nil, fmt.Errorf("storage: record sums for %q: invalid record size %d", rawName, recSize)
	}
	size, err := raw.Size()
	if err != nil {
		return nil, fmt.Errorf("storage: record sums for %q: size: %w", rawName, err)
	}
	return newRecordSums(fs, rawName, recSize, make([]uint32, size/int64(recSize)), 0), nil
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

// Flush persists a fresh build's sidecar — the header and every entry —
// and fsyncs it, replacing any stale file of the name atomically
// (WriteFileAtomic): a build cut short here leaves the previous sidecar
// whole. The raw bytes it describes are the build's input, already on
// stable storage; appends commit with Commit.
func (r *RecordSums) Flush() error {
	r.mu.RLock()
	enc := make([]byte, RecordSumsHeaderSize, RecordSumsHeaderSize+4*len(r.sums))
	binary.LittleEndian.PutUint32(enc[0:4], recordSumsMagic)
	binary.LittleEndian.PutUint32(enc[4:8], recordSumsVersion)
	binary.LittleEndian.PutUint32(enc[8:12], uint32(r.recSize))
	enc = appendSums(enc, r.sums)
	n := int64(len(r.sums))
	r.mu.RUnlock()
	if err := WriteFileAtomic(r.fs, r.name, enc); err != nil {
		return fmt.Errorf("storage: record sums %q: %w", r.name, err)
	}
	r.cmu.Lock()
	r.durable = n
	r.cmu.Unlock()
	return nil
}

func appendSums(dst []byte, sums []uint32) []byte {
	for _, s := range sums {
		dst = binary.LittleEndian.AppendUint32(dst, s)
	}
	return dst
}

// OpenRecordSums loads an existing sidecar for rawName. Every index build
// writes one, so a missing sidecar is a lost file: it returns
// ErrCorruptData (and ErrNotExist), as does a mangled header. A trailing
// partial entry — the torn tail of a crashed commit — was never
// acknowledged and is dropped.
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
	sums := make([]uint32, len(body)/4)
	for i := range sums {
		sums[i] = binary.LittleEndian.Uint32(body[i*4:])
	}
	return newRecordSums(fs, rawName, recSize, sums, int64(len(sums))), nil
}

// LoadRecordSums opens the log of rawName as an index open needs it: the
// persisted sidecar is the dataset, and raw (open on rawName) must hold every
// record it covers — a shorter raw file fails with ErrCorruptData, as does a
// missing sidecar. Nothing is written.
func LoadRecordSums(fs FS, rawName string, recSize int, raw File) (*RecordSums, error) {
	r, err := OpenRecordSums(fs, rawName, recSize)
	if err != nil {
		return nil, err
	}
	size, err := raw.Size()
	if err != nil {
		return nil, fmt.Errorf("storage: record sums for %q: size: %w", rawName, err)
	}
	if err := r.covers(size); err != nil {
		return nil, err
	}
	return r, nil
}

// covers fails with ErrCorruptData unless a raw file of size bytes holds
// every record the sidecar describes.
func (r *RecordSums) covers(size int64) error {
	if records, have := size/int64(r.recSize), r.Records(); records < have {
		return fmt.Errorf("storage: record sums %q: sidecar covers %d records but raw file holds only %d: %w", r.name, have, records, ErrCorruptData)
	}
	return nil
}

// Records returns the log's frontier: how many records the sidecar covers,
// acknowledged or appended since.
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

// Append writes enc — whole encoded records, back to back — at the log's
// frontier and returns the position of the first. The records are readable
// and verifiable at once, and acknowledged by a Commit covering them.
func (r *RecordSums) Append(enc []byte) (int64, error) {
	r.amu.Lock()
	defer r.amu.Unlock()
	r.cmu.Lock()
	err := r.err
	if r.closed {
		err = errLogClosed
	}
	r.cmu.Unlock()
	if err != nil {
		return 0, err
	}
	raw, err := r.rawLocked()
	if err != nil {
		return 0, err
	}
	pos := r.Records()
	if _, err := raw.WriteAt(enc, pos*int64(r.recSize)); err != nil {
		return 0, err
	}
	sums := make([]uint32, 0, len(enc)/r.recSize)
	for i := 0; i+r.recSize <= len(enc); i += r.recSize {
		sums = append(sums, crc32.Checksum(enc[i:i+r.recSize], crcTable))
	}
	r.mu.Lock()
	r.sums = append(r.sums, sums...)
	r.mu.Unlock()
	return pos, nil
}

var errLogClosed = errors.New("storage: raw log is closed")

// rawLocked returns the append handle, opening it on first use. Callers
// hold amu.
func (r *RecordSums) rawLocked() (File, error) {
	if r.raw == nil {
		f, err := r.fs.Open(r.rawName)
		if err != nil {
			return nil, err
		}
		r.raw = f
	}
	return r.raw, nil
}

// Commit acknowledges every record below end (at most Records()): it
// returns once a commit round covering end has fsynced the raw file and
// then the sidecar entries. Rounds run one at a time, each covering every
// record appended before it began, so concurrent callers share them. A
// caller whose ctx ends first returns ctx.Err(), and the round it waited on
// still completes: its records still become durable. A failed fsync
// poisons the log — every later Commit and Append returns its error.
func (r *RecordSums) Commit(ctx context.Context, end int64) error {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if r.err == nil && r.durable < end {
		stop := context.AfterFunc(ctx, func() {
			r.cmu.Lock()
			r.cond.Broadcast()
			r.cmu.Unlock()
		})
		defer stop()
	}
	for r.err == nil && r.durable < end {
		if r.closed {
			return errLogClosed
		}
		if !r.committing {
			r.committing = true
			go r.commit(r.durable)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		r.cond.Wait()
	}
	return r.err
}

// commit is one round: every entry from the durable end on is written and
// fsynced after the raw bytes they describe.
func (r *RecordSums) commit(from int64) {
	r.mu.RLock()
	enc := appendSums(nil, r.sums[from:])
	r.mu.RUnlock()
	r.amu.Lock()
	raw, err := r.rawLocked()
	r.amu.Unlock()
	if err == nil {
		err = raw.Sync()
	}
	if err == nil && r.side == nil {
		r.side, err = r.fs.Open(r.name)
	}
	if err == nil {
		_, err = r.side.WriteAt(enc, RecordSumsHeaderSize+4*from)
	}
	if err == nil {
		err = r.side.Sync()
	}
	r.cmu.Lock()
	defer r.cmu.Unlock()
	r.committing = false
	if err != nil {
		r.err = fmt.Errorf("storage: record sums %q: commit: %w", r.name, err)
	} else {
		r.durable = from + int64(len(enc)/4)
	}
	r.cond.Broadcast()
}

// Close waits out a commit round in flight and releases the log's file
// handles; later Appends and Commits fail. Only the log's owner closes it.
func (r *RecordSums) Close() error {
	r.cmu.Lock()
	for r.committing {
		r.cond.Wait()
	}
	r.closed = true
	r.cmu.Unlock()
	r.amu.Lock()
	defer r.amu.Unlock()
	var first error
	for _, f := range []File{r.raw, r.side} {
		if f != nil {
			if err := f.Close(); first == nil {
				first = err
			}
		}
	}
	r.raw, r.side = nil, nil
	return first
}

// VerifyRecordSums checks rawName against its sidecar record by record,
// returning the number of records verified and the first mismatch as
// ErrCorruptData. A raw file LONGER than the sidecar's coverage is not a
// mismatch: bytes past the sidecar's end were never acknowledged. A raw file
// SHORTER than the coverage lost committed data and is corruption — rot and
// truncation never lengthen a file.
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
	if err := r.covers(size); err != nil {
		return 0, err
	}
	records := r.Records()
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
