// Write-ahead log for the LSM write path.
//
// Insert/InsertRecords encode (key, position) records into the active WAL
// segment and return only after the segment — and the raw bytes the
// positions reference — are fsynced. Concurrent appenders amortize one
// fsync via GROUP COMMIT: each appender logs its record under the handle
// lock, releases it, and waits; a committer goroutine syncs the raw file
// and then the segment once for the whole batch and releases every waiter
// it covered. Syncing the raw file first is load-bearing: a WAL record is
// only ever durable after the raw series bytes its positions point at.
//
// Segments are recycled off the durable flush cursor: a flush covers
// every logged entry with a run, advances the cursor, rotates to a fresh
// segment, and deletes the covered ones once the manifest commit lands.
// lsm.Open replays the segments named by the manifest into the memtable,
// skipping entries below the cursor, stopping a segment at the first torn
// record (CRC mismatch) or at the first entry whose raw bytes never
// reached stable storage — per-segment positions are monotone, so either
// condition un-acknowledges exactly a suffix.
package lsm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

const (
	walMagic   uint32 = 0x4C574343 // "CCWL" little-endian
	walVersion uint32 = 1
	// walHeaderSize is magic + version + start LSN.
	walHeaderSize = 16
	// walRecHeaderSize is payload length + CRC32-C.
	walRecHeaderSize = 8
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walSegName names WAL segment seg of the index name.
func walSegName(name string, seg int) string {
	return fmt.Sprintf("%s.wal.%06d", name, seg)
}

// wal owns the active segment file and the group-commit machinery. The
// LSN counters that recovery needs (flush cursor, segment range) live on
// the Index under ix.mu, where every manifest snapshot reads them, while
// the wal tracks the durable watermark its waiters block on.
type wal struct {
	fs   storage.FS
	name string
	// raw is the handle whose un-synced appends the positions in this log
	// reference; it is synced before every segment sync.
	raw storage.File

	mu   sync.Mutex
	cond *sync.Cond
	f    storage.File // active segment
	seg  int
	size int64 // next sequential write offset in the active segment
	// appended is the LSN after the last logged entry; durable is the LSN
	// up to which entries survive a power loss (group-committed into the
	// segment, or covered by a flushed run).
	appended int64
	durable  int64
	// syncing counts syncs in flight against the active segment file;
	// rotation waits them out before closing the file.
	syncing int
	// flushOwns is set while a logged chunk that filled the memtable awaits
	// the flush its appender runs next: that flush fsyncs the raw file and
	// the segment itself and releases every waiter (markFlushed), so the
	// committer stands by instead of racing it with a second fsync pair for
	// the same LSN. releaseFlush hands the duty back if the flush fails.
	flushOwns bool
	err       error // sticky: a torn segment write poisons the log
	quit      bool

	// window optionally stretches each group commit to admit more waiters.
	window time.Duration
	wg     sync.WaitGroup
}

// createWALSegment creates the segment file and writes its header. The
// header is not synced: a segment missing or torn at replay time simply
// contains no acknowledged entries.
func createWALSegment(fs storage.FS, name string, seg int, startLSN int64) (storage.File, int64, error) {
	f, err := fs.Create(walSegName(name, seg))
	if err != nil {
		return nil, 0, err
	}
	hdr := make([]byte, 0, walHeaderSize)
	hdr = binary.LittleEndian.AppendUint32(hdr, walMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, walVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(startLSN))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, walHeaderSize, nil
}

// newWAL adopts an already-created segment file (everything in it is
// known durable — Open syncs the re-logged recovery record before
// handing the file over) and starts the committer.
func newWAL(fs storage.FS, name string, raw, f storage.File, seg int, size, appended int64, window time.Duration) *wal {
	w := &wal{
		fs: fs, name: name, raw: raw,
		f: f, seg: seg, size: size,
		appended: appended, durable: appended,
		window: window,
	}
	w.cond = sync.NewCond(&w.mu)
	w.wg.Add(1)
	go w.committer()
	return w
}

// encodeWALRecord frames one record: length, CRC32-C, then a count-
// prefixed array of (key, position) entries.
func encodeWALRecord(entries []core.InsertRec) []byte {
	payload := make([]byte, 0, 4+len(entries)*recordSize)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(entries)))
	for _, e := range entries {
		payload = append(payload, e.Key[:]...)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(e.Pos))
	}
	rec := make([]byte, 0, walRecHeaderSize+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, walCRC))
	return append(rec, payload...)
}

// log appends one record to the active segment and wakes the committer —
// unless flushNext says the record filled the memtable and the caller
// flushes next, which makes that flush the owner of the record's fsyncs
// (see flushOwns). Callers hold ix.mu (which is what orders LSN
// assignment); the returned end LSN is what waitDurable blocks on after
// ix.mu is released.
func (w *wal) log(entries []core.InsertRec, flushNext bool) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.quit {
		return 0, errors.New("lsm: wal is closed")
	}
	rec := encodeWALRecord(entries)
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		// The segment tail may now be torn; nothing after it could be
		// replayed, so the whole log is poisoned.
		w.err = err
		w.cond.Broadcast()
		return 0, err
	}
	w.size += int64(len(rec))
	w.appended += int64(len(entries))
	w.flushOwns = flushNext
	w.cond.Broadcast()
	return w.appended, nil
}

// waitDurable blocks until every entry with LSN <= lsn is durable — group
// commit released the batch, or a flush covered it with a run. A done
// context wakes the waiter (via an AfterFunc broadcast) and it returns
// ctx.Err(). The abandoned wait has no effect on the group commit — the
// committer still fsyncs the batch, so the caller's entries become durable
// anyway; the caller merely stops being told about it.
func (w *wal) waitDurable(ctx context.Context, lsn int64) error {
	if done := ctx.Done(); done != nil {
		stop := context.AfterFunc(ctx, func() {
			w.mu.Lock()
			w.cond.Broadcast()
			w.mu.Unlock()
		})
		defer stop()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < lsn && w.err == nil && !w.quit && ctx.Err() == nil {
		w.cond.Wait()
	}
	if w.durable >= lsn {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.err != nil {
		return w.err
	}
	return errors.New("lsm: wal closed before append became durable")
}

// committer is the group-commit goroutine: whenever logged entries are
// waiting, it syncs the raw file and then the active segment ONCE and
// releases every waiter at or below the covered LSN. Appenders that
// arrive while a sync is in flight pile up and ride the next one — the
// batching that amortizes fsync across concurrent appenders.
func (w *wal) committer() {
	defer w.wg.Done()
	w.mu.Lock()
	for {
		for !w.quit && w.err == nil && (w.durable >= w.appended || w.flushOwns) {
			w.cond.Wait()
		}
		if w.quit {
			w.mu.Unlock()
			return
		}
		if w.err != nil {
			w.cond.Wait()
			continue
		}
		// Rotation waits for syncing to clear and log/flush hold ix.mu, so
		// the file cannot change under a marked sync.
		w.syncing++
		f, raw := w.f, w.raw
		w.mu.Unlock()
		if w.window > 0 {
			time.Sleep(w.window)
		}
		w.mu.Lock()
		target := w.appended
		w.mu.Unlock()
		err := raw.Sync()
		if err == nil {
			err = f.Sync()
		}
		w.mu.Lock()
		w.syncing--
		if err != nil {
			if w.err == nil {
				w.err = err
			}
		} else if target > w.durable {
			w.durable = target
		}
		w.cond.Broadcast()
	}
}

// syncActive fsyncs the active segment if it holds any records. Flush
// calls it before advancing the durable flush cursor, which establishes
// the invariant recovery and recycling lean on: every non-active segment
// is fully durable. Without it, markFlushed would release group-commit
// waiters on the strength of a run whose covering manifest is not yet
// committed, while the segment that actually names their entries was
// never fsynced — a power loss in that window would lose acknowledged
// writes. It also means rotation to segment N+1 implies segment N is
// durable, so a replayer can treat a missing segment as empty rather
// than as a hole. Called with ix.mu held.
func (w *wal) syncActive() error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.size == walHeaderSize {
		w.mu.Unlock()
		return nil
	}
	w.syncing++
	f := w.f
	target := w.appended
	w.mu.Unlock()
	// The raw bytes these records reference were synced by the caller
	// (flush syncs the raw file before writing the run), so only the
	// segment itself needs to reach stable storage.
	err := f.Sync()
	w.mu.Lock()
	w.syncing--
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else if target > w.durable {
		w.durable = target
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// markFlushed advances the durable watermark after a flush: every logged
// entry at LSN < lsn is now covered by a durable run, so group-commit
// waiters at or below it are released without an extra segment sync.
// Called with ix.mu held.
func (w *wal) markFlushed(lsn int64) {
	w.mu.Lock()
	if lsn > w.durable {
		w.durable = lsn
	}
	w.flushOwns = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// releaseFlush hands durability back to the committer when a flush fails
// before markFlushed: the entries the flush was to cover are still only in
// the log, and their waiters must not hang behind it.
func (w *wal) releaseFlush() {
	w.mu.Lock()
	w.flushOwns = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// rotate closes the active segment and starts a fresh one whose first
// entry will be startLSN. Called with ix.mu held, after markFlushed has
// released every waiter — so the only thing to wait out is a sync already
// in flight against the old file.
func (w *wal) rotate(seg int, startLSN int64) error {
	w.mu.Lock()
	for w.syncing > 0 {
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	f, size, err := createWALSegment(w.fs, w.name, seg, startLSN)
	if err != nil {
		w.err = err
		w.cond.Broadcast()
		w.mu.Unlock()
		return err
	}
	old := w.f
	w.f, w.seg, w.size = f, seg, size
	w.mu.Unlock()
	return old.Close()
}

// activeEmpty reports whether the active segment holds no records (a
// flush with nothing logged since the last rotation skips rotating).
func (w *wal) activeEmpty() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size == walHeaderSize
}

// close stops the committer and closes the active segment. Flush-on-close
// has already released every waiter; any waiter left by an earlier error
// is woken by the quit broadcast.
func (w *wal) close() error {
	w.mu.Lock()
	if w.quit {
		w.mu.Unlock()
		return nil
	}
	w.quit = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walReplay scans segments from firstSeg in order and applies every
// recoverable entry with LSN >= flushed. It reads past nextSeg as long as
// segment files exist: a crash inside a flush's commit window can leave
// acknowledged entries in a freshly-rotated segment the durable manifest
// does not reference yet (segment numbers are monotone and Open removes
// stale higher-numbered files, so an existing one is always the next
// generation). rawRecs is the number of records the recovered raw file
// holds; an entry whose position lies beyond it references raw bytes that
// never reached stable storage, so it — and, positions being monotone
// within a segment, everything after it — was never acknowledged. A
// missing segment (created but never synced), a torn header, or a torn
// record likewise ends that segment's acknowledged prefix.
//
// Replay is strict about the difference between a crash artifact and
// bit-rot. A crash truncates: it can only shorten what a frame claims to
// contain (torn header, frame extent past EOF, entry positions past the
// recovered raw file). Those end the acknowledged prefix silently. But a
// FULLY-PRESENT frame whose CRC does not match — or a complete header
// with a wrong magic, or an impossible length field — cannot be produced
// by losing a write suffix: the bytes exist and were never valid, so the
// medium corrupted them after the fact. That is typed
// storage.ErrCorruptData and fails replay loudly, because silently
// dropping the frame would also drop every acknowledged entry after it.
// Returns the LSN after the last recovered entry.
func walReplay(fs storage.FS, name string, firstSeg, nextSeg int, flushed, rawRecs int64, apply func(core.InsertRec)) (int64, error) {
	last := flushed
	for seg := firstSeg; seg < nextSeg || fs.Exists(walSegName(name, seg)); seg++ {
		data, err := storage.ReadFileAll(fs, walSegName(name, seg))
		if err != nil {
			if errors.Is(err, storage.ErrNotExist) {
				continue
			}
			return 0, err
		}
		lsn, err := walScanSegment(data, seg, flushed, rawRecs, apply)
		if err != nil {
			return 0, err
		}
		if lsn > last {
			last = lsn
		}
	}
	return last, nil
}

// walScanSegment applies one segment's recoverable entries (see walReplay
// for the torn-vs-rot contract) and returns the LSN after the last one.
func walScanSegment(data []byte, seg int, flushed, rawRecs int64, apply func(core.InsertRec)) (int64, error) {
	if len(data) < walHeaderSize {
		// Torn header: the segment was created but its first write
		// never completed; nothing in it was acknowledged.
		return flushed, nil
	}
	if binary.LittleEndian.Uint32(data) != walMagic ||
		binary.LittleEndian.Uint32(data[4:]) != walVersion {
		return 0, fmt.Errorf("lsm: wal segment %d: bad header: %w", seg, storage.ErrCorruptData)
	}
	lsn := int64(binary.LittleEndian.Uint64(data[8:]))
	off := int64(walHeaderSize)
records:
	for off+walRecHeaderSize <= int64(len(data)) {
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if plen < 4 {
			// The length field is present in full, and no writer ever
			// logs a frame shorter than its count word — rot.
			return 0, fmt.Errorf("lsm: wal segment %d: impossible frame length %d: %w",
				seg, plen, storage.ErrCorruptData)
		}
		if off+walRecHeaderSize+plen > int64(len(data)) {
			// Frame extent past EOF: a torn write; the frame was never
			// acknowledged.
			break
		}
		payload := data[off+walRecHeaderSize : off+walRecHeaderSize+plen]
		if crc32.Checksum(payload, walCRC) != sum {
			return 0, fmt.Errorf("lsm: wal segment %d: frame CRC mismatch at offset %d: %w",
				seg, off, storage.ErrCorruptData)
		}
		count := int64(binary.LittleEndian.Uint32(payload))
		if count*recordSize != plen-4 {
			return 0, fmt.Errorf("lsm: wal segment %d: frame claims %d records in %d payload bytes: %w",
				seg, count, plen-4, storage.ErrCorruptData)
		}
		for i := int64(0); i < count; i++ {
			rec := payload[4+i*recordSize:]
			if lsn < flushed {
				lsn++
				continue
			}
			pos := int64(binary.LittleEndian.Uint64(rec[summary.KeySize:]))
			if pos < 0 || pos >= rawRecs {
				break records
			}
			var e core.InsertRec
			copy(e.Key[:], rec[:summary.KeySize])
			e.Pos = pos
			apply(e)
			lsn++
		}
		off += walRecHeaderSize + plen
	}
	if lsn < flushed {
		lsn = flushed
	}
	return lsn, nil
}

// WALSegmentName names WAL segment seg of the index name (exported for
// the scrub walk).
func WALSegmentName(name string, seg int) string { return walSegName(name, seg) }

// VerifyWALSegment checks one WAL segment's frame structure and CRCs:
// every fully-present frame must validate. Torn tails and missing files
// are crash artifacts, not corruption, and pass. Returns the number of
// acknowledged entries scanned.
func VerifyWALSegment(fs storage.FS, name string, seg int) (int64, error) {
	data, err := storage.ReadFileAll(fs, walSegName(name, seg))
	if err != nil {
		if errors.Is(err, storage.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	var n int64
	if _, err := walScanSegment(data, seg, 0, int64(^uint64(0)>>1), func(core.InsertRec) { n++ }); err != nil {
		return n, err
	}
	return n, nil
}
