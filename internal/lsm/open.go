package lsm

import (
	"errors"
	"fmt"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
)

// Open reopens a persisted Coconut-LSM index from its manifest: every
// run's block directory is reloaded and its file verified by one
// sequential pass — the raw dataset is opened for query-time fetches but
// never read — and the scheduling counters (run naming, seq, tierSeq,
// compaction-group cursors) are restored so subsequent flushes and
// compactions continue the exact deterministic sequence a never-closed
// index would have produced.
//
// Configuration mismatches (summarization parameters, dataset file, tier
// fanout) fail loudly with manifest.ErrConfigMismatch; a run file whose
// size, record count, key range, or sort order disagrees with the manifest
// fails with manifest.ErrCorruptManifest.
func Open(opt Options) (*Index, error) {
	if opt.FS == nil || opt.Name == "" || opt.S == nil {
		return nil, errors.New("lsm: open needs FS, Name, and summarizer")
	}
	m, err := manifest.Load(opt.FS, opt.Name)
	if err != nil {
		return nil, fmt.Errorf("lsm: loading manifest for %q: %w", opt.Name, err)
	}
	if err := m.CheckVariant(manifest.VariantLSM); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if m.LSM == nil {
		return nil, fmt.Errorf("lsm: %w: lsm manifest without lsm layout", manifest.ErrCorruptManifest)
	}
	if opt.RawName == "" {
		opt.RawName = m.RawName
	}
	if err := m.CheckParams(opt.S.Params(), false, opt.RawName); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	// The tier fanout shapes the deterministic compaction DAG; the stored
	// value is authoritative. Adopt it when the caller left it unset, and
	// fail loudly on an explicit conflict.
	if opt.Fanout == 0 {
		opt.Fanout = m.LSM.Fanout
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Fanout != m.LSM.Fanout {
		return nil, fmt.Errorf("lsm: %w: fanout %d, stored index was built with %d",
			manifest.ErrConfigMismatch, opt.Fanout, m.LSM.Fanout)
	}
	// The checksummed-block layer is a property of the stored bytes, not of
	// this process's configuration; adopt the manifest's flag.
	opt.Checksums = m.Checksums

	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := newIndex(opt, raw)
	if err := ix.reopen(m); err != nil {
		ix.abandon()
		return nil, err
	}
	ix.startPool()
	// A crash between a manifest commit and the next can leave compaction
	// groups ready but unmerged; nudge the pool so the reopened index
	// converges to the same fixpoint (reopen folded them inline otherwise).
	ix.kick()
	return ix, nil
}

// reopen restores the run set, the scheduling cursors and the log from m.
func (ix *Index) reopen(m *manifest.Manifest) error {
	opt := ix.opt
	lastSeq := int64(-1)
	var quarantinedCount int64
	for i, ri := range m.LSM.Runs {
		if ri.Seq < lastSeq {
			return fmt.Errorf("lsm: %w: runs out of age order", manifest.ErrCorruptManifest)
		}
		lastSeq = ri.Seq
		r, err := loadRun(opt.FS, ri, opt.Checksums, opt.Cache)
		if err != nil {
			if opt.AllowDegraded && (errors.Is(err, storage.ErrCorruptData) ||
				errors.Is(err, manifest.ErrCorruptManifest) || errors.Is(err, storage.ErrNotExist)) {
				// Quarantine: the run's records stay accounted for in every
				// manifest this handle commits, queries answer over the
				// healthy remainder, and RebuildQuarantined can re-derive
				// the lost records from the raw dataset.
				ix.quarantined = append(ix.quarantined, ri)
				quarantinedCount += ri.Count
				continue
			}
			return fmt.Errorf("lsm: reloading run %d (%s): %w", i, ri.Name, err)
		}
		ix.runs = append(ix.runs, r)
		ix.count += r.count
	}
	if ix.count+quarantinedCount != m.Count {
		return fmt.Errorf("lsm: %w: runs hold %d records, manifest says %d",
			manifest.ErrCorruptManifest, ix.count+quarantinedCount, m.Count)
	}
	var err error
	if ix.rawSums, ix.ownSums, err = core.AttachRawSums(opt.FS, opt.RawName, opt.S, opt.Checksums, opt.RawSums, ix.rawFile); err != nil {
		return err
	}
	ix.nextRun = m.LSM.NextRun
	ix.nextSeq = m.LSM.NextSeq
	ix.tier0Seq = m.LSM.Tier0Seq
	for _, c := range m.LSM.Cursors {
		// Committed groups are also the claim floor: everything below the
		// durable cursor is done, everything above re-forms and re-merges.
		ix.groupsClaimed[c.Tier] = c.Groups
		ix.committedGroups[c.Tier] = c.Groups
	}
	if err := ix.recoverWAL(m); err != nil {
		return err
	}
	if opt.BackgroundCompaction {
		return nil
	}
	// Groups a crash left ready but unmerged fold inline, as they would have.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.compactPendingLocked()
}

// recoverWAL replays the un-flushed WAL segments named by the manifest
// into the memtable and establishes a fresh log generation.
//
// Replay is idempotent against the durable flush cursor: entries at LSN
// below it are already covered by a run and are skipped. The recovered
// entries are then RE-LOGGED — written as one synced record into a brand
// new segment, which a manifest commit makes the only live segment before
// the old ones are deleted. Re-logging (rather than adopting the old
// segments) is what keeps recovery idempotent across repeated crashes:
// an entry dropped by this replay because its raw bytes never reached
// stable storage can never be resurrected by a later replay after the
// raw file has grown past its position again.
func (ix *Index) recoverWAL(m *manifest.Manifest) error {
	opt := ix.opt
	ix.walFlushed = m.LSM.WALFlushed
	ix.walFirstSeg = m.LSM.WALFirstSeg
	ix.walNextSeg = m.LSM.WALNextSeg
	ix.walAppended = m.LSM.WALFlushed

	rawSize, err := ix.rawFile.Size()
	if err != nil {
		return err
	}
	rawRecs := rawSize / int64(series.EncodedSize(opt.S.Params().SeriesLen))
	var replayed []core.InsertRec
	var reclaimed []string
	last, err := walReplay(opt.FS, opt.Name, ix.walFirstSeg, ix.walNextSeg,
		ix.walFlushed, rawRecs, func(e core.InsertRec) { replayed = append(replayed, e) })
	if err != nil {
		if !opt.AllowDegraded || !errors.Is(err, storage.ErrCorruptData) {
			return err
		}
		// A rotted WAL segment under AllowDegraded: the log can no longer
		// say which tail entries were acknowledged, but the raw dataset —
		// verified record by record against its CRC sidecar — still holds
		// every acknowledged byte (raw writes precede their log record, and
		// flushes fsync raw before advancing the cursor). Rebuild the
		// memtable as "every raw record no healthy run covers": a superset
		// of the acknowledged tail (re-indexing an unacknowledged record is
		// harmless), and it also re-derives the records of any runs
		// quarantined above, whose quarantine is lifted here — their files
		// are deleted once the commit below stops referencing them.
		lost, err := ix.uncoveredLocked()
		if err != nil {
			return err
		}
		replayed = replayed[:0]
		for _, e := range lost {
			replayed = append(replayed, core.InsertRec{Key: e.key, Pos: e.pos})
		}
		for _, ri := range ix.quarantined {
			reclaimed = append(reclaimed, ri.Name)
		}
		ix.quarantined = nil
		last = ix.walFlushed + int64(len(replayed))
	}
	for _, e := range replayed {
		ix.mem = append(ix.mem, memEntry{key: e.Key, pos: e.Pos})
	}
	ix.count += int64(len(replayed))
	ix.walAppended = last

	// A crash inside a flush's commit window can leave durable segments the
	// manifest does not reference (replay probed them above); the new
	// generation starts past every file that exists.
	oldFirst := ix.walFirstSeg
	next := ix.walNextSeg
	for opt.FS.Exists(walSegName(opt.Name, next)) {
		next++
	}

	f, size, err := createWALSegment(opt.FS, opt.Name, next, ix.walFlushed)
	if err != nil {
		return err
	}
	if len(replayed) > 0 {
		rec := encodeWALRecord(replayed)
		if _, err := f.WriteAt(rec, size); err != nil {
			f.Close()
			return err
		}
		size += int64(len(rec))
		// The replayed entries were durable in the old generation; they must
		// be durable in the new one before the old segments go away.
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	ix.wal = newWAL(opt.FS, opt.Name, ix.rawFile, f, next, size,
		ix.walAppended, opt.WALGroupWindow)
	ix.walFirstSeg, ix.walNextSeg = next, next+1
	ix.mu.Lock()
	err = ix.commitManifestLocked()
	ix.mu.Unlock()
	if err != nil {
		return err
	}
	for _, name := range reclaimed {
		if err := opt.FS.Remove(name); err != nil && !errors.Is(err, storage.ErrNotExist) {
			return err
		}
	}
	return ix.removeWALSegments(oldFirst, next)
}

// removeWALSegments deletes the old-generation segments [first, next),
// plus any stragglers a crash left below first (a flush that committed
// its manifest but lost power before recycling the covered segments).
func (ix *Index) removeWALSegments(first, next int) error {
	for s := first; s < next; s++ {
		if err := ix.opt.FS.Remove(walSegName(ix.opt.Name, s)); err != nil &&
			!errors.Is(err, storage.ErrNotExist) {
			return err
		}
	}
	for s := first - 1; s >= 0 && ix.opt.FS.Exists(walSegName(ix.opt.Name, s)); s-- {
		if err := ix.opt.FS.Remove(walSegName(ix.opt.Name, s)); err != nil &&
			!errors.Is(err, storage.ErrNotExist) {
			return err
		}
	}
	return nil
}

// errCorruptRun types a damaged run file as BOTH kinds of corruption: the
// manifest's promises about the file are broken (the historical type
// callers match on) and the stored bytes themselves are bad (the typed
// on-disk corruption error the integrity layer introduces).
var errCorruptRun = fmt.Errorf("%w: %w", manifest.ErrCorruptManifest, storage.ErrCorruptData)

// loadRun reopens one immutable run: the footer and block directory come
// into memory (a few bytes per block); the key data stays on disk, decoded
// block by block through the shared cache. A full streaming Verify decodes
// every block once — checking per-block CRCs, in-block and cross-block
// refined order (key, then encoded position), and the directory's promises
// — in O(one block) memory, and the manifest's count and key range are
// cross-checked against the footer. Any disagreement surfaces as
// errCorruptRun; with checksums on the read also goes through the verifying
// block layer.
func loadRun(fs storage.FS, ri manifest.RunInfo, checksums bool, cache *blockcache.Cache) (*run, error) {
	inner, err := fs.Open(ri.Name)
	if err != nil {
		return nil, err
	}
	f := storage.File(inner)
	if checksums {
		if f, err = storage.OpenChecksumFile(inner); err != nil {
			inner.Close()
			if errors.Is(err, storage.ErrCorruptData) {
				return nil, fmt.Errorf("%w: %w", manifest.ErrCorruptManifest, err)
			}
			return nil, err
		}
	}
	rb, err := runblock.OpenReader(f, cache)
	if err != nil {
		f.Close()
		if errors.Is(err, storage.ErrCorruptData) {
			return nil, fmt.Errorf("%w: %w", manifest.ErrCorruptManifest, err)
		}
		return nil, err
	}
	fail := func(err error) (*run, error) {
		rb.Close()
		return nil, err
	}
	if rb.Count() != ri.Count {
		return fail(fmt.Errorf("%w: run file holds %d records, manifest says %d",
			errCorruptRun, rb.Count(), ri.Count))
	}
	if rb.Count() == 0 {
		return fail(fmt.Errorf("%w: empty run", errCorruptRun))
	}
	if rb.MinKey() != ri.MinKey || rb.MaxKey() != ri.MaxKey {
		return fail(fmt.Errorf("%w: run key range does not match manifest", errCorruptRun))
	}
	if err := rb.Verify(); err != nil {
		if errors.Is(err, storage.ErrCorruptData) {
			return fail(fmt.Errorf("%w: %w", manifest.ErrCorruptManifest, err))
		}
		return fail(err)
	}
	return &run{name: ri.Name, tier: ri.Tier, count: ri.Count, seq: ri.Seq, tierSeq: ri.TierSeq, rb: rb}, nil
}
