package coconut

// Scrub is the offline integrity pass: it walks every persistent artifact
// an index's manifest references — the manifest itself, the leaf run of a
// tree, LSM run files, the raw dataset via its CRC sidecar, and
// (for partitioned indexes) each child's artifacts — and verifies each
// against its one integrity layer (block CRCs, the run codec's CRCs, record
// CRCs) and against what its manifest promises (a leaf run against its
// count and key order, through the loader Open runs; an LSM
// run against its count and key range), reporting a per-file finding for
// each. Repair rebuilds a damaged
// index from the verified raw dataset: every index artifact is a pure
// function of the records it covers, and window invariance makes the
// rebuilt index answer byte-identically.

import (
	"errors"
	"fmt"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/partition"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// ScrubFinding is one artifact's verification outcome.
type ScrubFinding struct {
	// File is the artifact's name on the storage device.
	File string
	// Units is how much was verified: checksum blocks for a leaf run, run
	// blocks for LSM runs, records for the raw dataset, 0 for the manifest
	// (verified whole).
	Units int64
	// Err is nil for a healthy artifact, otherwise the typed failure —
	// errors.Is(Err, ErrCorruptData) identifies detected corruption.
	Err error
}

// ScrubReport is the result of a Scrub pass: one finding per artifact.
type ScrubReport struct {
	// Findings holds one entry per artifact, in walk order.
	Findings []ScrubFinding
}

// Clean reports whether every artifact verified.
func (r *ScrubReport) Clean() bool {
	for _, f := range r.Findings {
		if f.Err != nil {
			return false
		}
	}
	return true
}

// Corrupt returns the findings that failed verification.
func (r *ScrubReport) Corrupt() []ScrubFinding {
	var out []ScrubFinding
	for _, f := range r.Findings {
		if f.Err != nil {
			out = append(out, f)
		}
	}
	return out
}

func (r *ScrubReport) add(file string, units int64, err error) {
	r.Findings = append(r.Findings, ScrubFinding{File: file, Units: units, Err: err})
}

// Scrub verifies every block of every persistent artifact of the index
// name on fs and returns a per-file report. It never modifies anything;
// corruption is reported in the findings, not returned as an error. An
// index stored in a format this build does not read is not corruption:
// Scrub refuses it with ErrVersionMismatch.
func Scrub(fs Storage, name string) (*ScrubReport, error) {
	if fs == nil {
		return nil, errors.New("coconut: nil Storage")
	}
	rep := &ScrubReport{}
	if err := scrubIndex(fs, name, rep, true); err != nil {
		return nil, err
	}
	return rep, nil
}

// scrubIndex walks one manifest's artifacts. root marks the top-level
// index: the raw dataset is shared by every partition, so it is verified
// once, from the root. The only error is a stored format this build does
// not read.
func scrubIndex(fs Storage, name string, rep *ScrubReport, root bool) error {
	m, err := manifest.Load(fs, name)
	if errors.Is(err, ErrVersionMismatch) {
		return err
	}
	rep.add(manifest.FileName(name), 0, err)
	if err != nil {
		return nil
	}
	switch m.Variant {
	case manifest.VariantPartitioned:
		for _, child := range m.Part.Children {
			if err := scrubIndex(fs, child, rep, false); err != nil {
				return err
			}
		}
	case manifest.VariantTree:
		rep.add(core.VerifyLeafRun(fs, name, m))
	case manifest.VariantLSM:
		for _, ri := range m.LSM.Runs {
			n, err := lsm.VerifyRun(fs, ri)
			rep.add(ri.Name, n, err)
		}
	}
	if root && m.RawName != "" {
		recSize := series.EncodedSize(m.SeriesLen)
		n, err := storage.VerifyRecordSums(fs, m.RawName, recSize)
		rep.add(m.RawName, n, err)
	}
	return nil
}

// Repair rebuilds the index cfg names from its raw dataset when Scrub finds
// anything damaged — for every variant, single or partitioned — and returns
// the post-repair report:
//
//  1. Scrub; a clean index is left alone.
//  2. Refuse when the root manifest is unreadable (it names the raw file and
//     the build parameters) or the raw dataset is damaged: the raw file is
//     the log every index derives from, its un-flushed LSM records included,
//     and nothing can re-derive it.
//  3. Rebuild as the Build functions do, with the stored parameters adopting
//     anything cfg leaves unset and a partitioned index keeping its
//     partition boundaries; a cfg summarization, materialization or dataset
//     file that conflicts with the stored one fails with ErrConfigMismatch
//     first, as Open does. The raw file's complete records are re-summed
//     into a fresh sidecar and bulk-loaded. The record multiset is
//     unchanged, so answers are byte-identical to the undamaged index's,
//     though the run layout may differ. The records include any complete
//     ones past the sidecar's committed end, for an LSM as for a tree:
//     appends whose commit never completed (un-synced tree inserts, LSM
//     inserts whose caller got an error) are indexed by the rebuild, though
//     no Open reads them and no Scrub verified them.
//  4. Re-scrub, and remove every file the first report named that the
//     second does not (runs the rebuild no longer references, say); the raw
//     dataset is never removed. Files named only by a manifest that was
//     unreadable — the runs of a rotted child manifest — were never listed
//     and stay behind.
//
// Repair is offline, like Scrub: no handle may be open on the index. A
// Repair cut short by a crash or an I/O error leaves the raw dataset intact,
// so running it again completes the repair — though the files the cut
// Repair had yet to remove stay behind.
func Repair(cfg Config) (*ScrubReport, error) {
	pre, err := Scrub(cfg.Storage, cfg.Name)
	if err != nil || pre.Clean() {
		return pre, err
	}
	m, err := manifest.Load(cfg.Storage, cfg.Name)
	if err != nil {
		return pre, fmt.Errorf("coconut: repair: manifest unreadable: %w", err)
	}
	for _, f := range pre.Corrupt() {
		if f.File == m.RawName {
			return pre, fmt.Errorf("coconut: repair: raw dataset %q is damaged, cannot rebuild from it: %w", m.RawName, f.Err)
		}
	}
	parts := 1
	var bounds []summary.Key
	if m.Part != nil {
		parts, bounds = m.Part.Partitions, m.Part.Boundaries
	}
	rcfg := cfg
	kind, err := rcfg.mergeStored()
	if err != nil {
		return pre, fmt.Errorf("coconut: repair: %w", err)
	}
	if rcfg.Partitions != 0 && rcfg.Partitions != parts {
		return pre, fmt.Errorf("coconut: repair: %w: Partitions=%d, stored index has %d partitions",
			ErrConfigMismatch, rcfg.Partitions, parts)
	}
	opt, err := rcfg.toCore()
	if err != nil {
		return pre, fmt.Errorf("coconut: repair: %w", err)
	}
	if err := m.CheckParams(opt.S.Params(), opt.Materialized, opt.RawName); err != nil {
		return pre, fmt.Errorf("coconut: repair: %w", err)
	}
	v, err := rcfg.variant(kind, opt)
	if err != nil {
		return pre, fmt.Errorf("coconut: repair: %w", err)
	}
	ix, err := partition.Build(v, parts, bounds)
	if err != nil {
		return pre, fmt.Errorf("coconut: repair: rebuilding %s: %w", kind, err)
	}
	if err := ix.Close(); err != nil {
		return pre, fmt.Errorf("coconut: repair: %w", err)
	}
	post, err := Scrub(cfg.Storage, cfg.Name)
	if err != nil {
		return nil, err
	}
	named := make(map[string]bool, len(post.Findings))
	for _, f := range post.Findings {
		named[f.File] = true
	}
	for _, f := range pre.Findings {
		if named[f.File] || f.File == m.RawName {
			continue
		}
		if err := cfg.Storage.Remove(f.File); err != nil && !errors.Is(err, storage.ErrNotExist) {
			return post, fmt.Errorf("coconut: repair: removing %q: %w", f.File, err)
		}
	}
	return post, nil
}
