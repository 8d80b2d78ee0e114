package lsm

import (
	"errors"
	"fmt"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

// Open reopens a persisted Coconut-LSM index from its manifest: every
// run's block directory is reloaded and its file verified by one
// sequential pass, the appends no run holds yet are re-summarized from the
// raw log (none after a clean Close, so the raw dataset is then opened for
// query-time fetches but never read). The run list is the whole compaction
// schedule, so subsequent flushes and compactions continue the exact
// deterministic sequence a never-closed index would have produced.
//
// Configuration mismatches (summarization parameters, dataset file) fail
// loudly with manifest.ErrConfigMismatch; a run file whose size, record
// count, key range, or sort order disagrees with the manifest fails with
// manifest.ErrCorruptManifest.
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
	if err := m.CheckParams(opt.S.Params(), false, opt.RawName); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}

	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := newIndex(opt, raw)
	if err := ix.reopen(m); err != nil {
		ix.abandon()
		return nil, err
	}
	return ix, nil
}

// reopen restores the run set and the memtable from m and the raw log.
func (ix *Index) reopen(m *manifest.Manifest) error {
	opt := ix.opt
	for i, ri := range m.LSM.Runs {
		r, err := loadRun(opt.FS, ri, opt.Cache)
		if err != nil {
			return fmt.Errorf("lsm: reloading run %d (%s): %w", i, ri.Name, err)
		}
		ix.runs = append(ix.runs, r)
		ix.count += r.count
	}
	if ix.count != m.Count {
		return fmt.Errorf("lsm: %w: runs hold %d records, manifest says %d",
			manifest.ErrCorruptManifest, ix.count, m.Count)
	}
	ix.nextSeq = m.LSM.NextSeq
	if err := ix.recoverTail(m.LSM.Flushed); err != nil {
		return err
	}
	// Groups a crash left ready but unmerged fold inline, as they would have.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.compactPendingLocked()
}

// recoverTail re-summarizes into the memtable, from the raw log read through
// the verifying sidecar, the records this index owns (Options.Owns) between
// the manifest's flushed position and the log's acknowledged end — the
// appends no run holds yet. It writes nothing: a clean image, whose memtable
// was flushed at Close, reads nothing either.
func (ix *Index) recoverTail(flushed int64) (err error) {
	end := ix.rawSums.Records()
	if flushed > end {
		return fmt.Errorf("lsm: %w: flushed position %d past the raw file's %d acknowledged records",
			manifest.ErrCorruptManifest, flushed, end)
	}
	ix.flushed = flushed
	st := ix.rawStore()
	buf := make([]byte, st.RecSize)
	raw := storage.PinViews(st.File)
	defer raw.Release(&err)
	for pos := flushed; pos < end; pos++ {
		enc, err := st.Fetch(raw, pos, buf)
		if err != nil {
			return fmt.Errorf("lsm: recovering raw record %d of [%d, %d): %w", pos, flushed, end, err)
		}
		key := ix.opt.S.KeyOfEncoded(enc)
		if ix.opt.Owns == nil || ix.opt.Owns(key) {
			ix.mem = append(ix.mem, summary.Record{Key: key, Pos: pos})
		}
	}
	// One sort makes the recovered tail the memtable's one piece.
	ix.addMemPieceLocked(0)
	ix.count += int64(len(ix.mem))
	return nil
}

// errCorruptRun types a damaged run file as BOTH kinds of corruption: the
// manifest's promises about the file are broken (the historical type
// callers match on) and the stored bytes themselves are bad (the typed
// on-disk corruption error the integrity layer introduces).
var errCorruptRun = fmt.Errorf("%w: %w", manifest.ErrCorruptManifest, storage.ErrCorruptData)

// VerifyRun checks the run file ri names exactly as Open does — every
// block's CRC and order, and the file against ri's count and key range —
// and returns its block count.
func VerifyRun(fs storage.FS, ri manifest.RunInfo) (int64, error) {
	r, err := loadRun(fs, ri, nil)
	if err != nil {
		return 0, err
	}
	return int64(r.rb.NumBlocks()), r.rb.Close()
}

// loadRun reopens one immutable run: the footer and block directory come
// into memory (a few bytes per block); the key data stays on disk, decoded
// block by block through the shared cache. A full streaming Verify decodes
// every block once — checking per-block CRCs, in-block and cross-block
// refined order (key, then encoded position), and the directory's promises
// — in O(one block) memory, and the manifest's count and key range are
// cross-checked against the footer. Any disagreement surfaces as
// errCorruptRun. The footer, directory and block CRCs together cover every
// byte of the file, so this pass is the run's whole integrity check.
func loadRun(fs storage.FS, ri manifest.RunInfo, cache *blockcache.Cache) (*run, error) {
	f, err := fs.Open(ri.Name)
	if err != nil {
		return nil, err
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
	return &run{name: ri.Name, tier: ri.Tier, count: ri.Count, seq: ri.Seq, rb: rb}, nil
}
