package coconut

// Scrub is the offline integrity pass: it walks every persistent artifact
// an index's manifest references — the manifest itself, B+-tree page
// files, trie leaf files, LSM run files, the raw dataset via its CRC
// sidecar, and (for partitioned indexes) each child's artifacts — and
// verifies each against its one integrity layer (block CRCs, the run
// codec's CRCs, record CRCs) and a tree's pages against the leaf directory
// in its manifest, reporting a per-file finding for each. Repair then fixes
// what is fixable in place: LSM runs are re-derived from the verified raw
// dataset (a run's contents are a pure function of the records it covers),
// and tree/trie page damage is repaired by rebuilding the index from the raw
// dataset — window invariance makes both repairs answer-preserving.

import (
	"context"
	"errors"
	"fmt"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
)

// ScrubFinding is one artifact's verification outcome.
type ScrubFinding struct {
	// File is the artifact's name on the storage device.
	File string
	// Units is how much was verified: checksum blocks for block-format
	// artifacts (a tree's leaf file: its pages, each checked against its
	// directory entry too), run blocks for LSM runs, records for the raw
	// dataset, 0 for the manifest (verified whole).
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
		n, err := core.VerifyTree(fs, name, m)
		rep.add(name+".bt.leaves", n, err)
	case manifest.VariantTrie:
		scrubBlockFile(fs, name+".leaves", rep)
	case manifest.VariantLSM:
		for _, ri := range m.LSM.Runs {
			scrubRun(fs, ri.Name, rep)
		}
	}
	if root && m.RawName != "" {
		recSize := series.EncodedSize(m.SeriesLen)
		n, err := storage.VerifyRecordSums(fs, m.RawName, recSize)
		rep.add(m.RawName, n, err)
	}
	return nil
}

// scrubBlockFile verifies one checksummed-block artifact end to end.
func scrubBlockFile(fs Storage, name string, rep *ScrubReport) {
	f, err := fs.Open(name)
	if err != nil {
		rep.add(name, 0, err)
		return
	}
	defer f.Close()
	n, err := storage.VerifyChecksumBlocks(f)
	rep.add(name, n, err)
}

// scrubRun verifies one LSM run end to end with the run codec's own
// checks: the footer and directory CRCs, then a streaming decode of every
// block against its CRC.
func scrubRun(fs Storage, name string, rep *ScrubReport) {
	f, err := fs.Open(name)
	if err != nil {
		rep.add(name, 0, err)
		return
	}
	r, err := runblock.OpenReader(f, nil)
	if err != nil {
		f.Close()
		rep.add(name, 0, err)
		return
	}
	blocks := int64(r.NumBlocks())
	verr := r.Verify()
	if err := r.Close(); verr == nil {
		verr = err
	}
	rep.add(name, blocks, verr)
}

// Repair fixes what Scrub found, in place, for the index cfg names. What
// is fixable depends on the variant:
//
//   - LSM: quarantined runs are re-derived from the raw dataset (every
//     indexed record's key is a pure function of its raw bytes), the
//     repaired manifest is committed, and the corrupt files are deleted.
//   - Tree and Trie: a damaged page or leaf file is repaired by
//     rebuilding the index from the raw dataset — answers are identical
//     because the index is a pure function of the record multiset.
//   - The raw dataset itself — the log every index derives from, its
//     un-flushed LSM tail included — is source data: rot there is
//     unrepairable from within the index and is returned as an error.
//
// Repair re-scrubs afterwards and returns the post-repair report.
func Repair(cfg Config) (*ScrubReport, error) {
	pre, err := Scrub(cfg.Storage, cfg.Name)
	if err != nil {
		return nil, err
	}
	if pre.Clean() {
		return pre, nil
	}
	m, err := manifest.Load(cfg.Storage, cfg.Name)
	if err != nil {
		return pre, fmt.Errorf("coconut: repair: manifest unreadable: %w", err)
	}
	// The raw dataset is the repair source; if it is damaged, nothing
	// derived from it can be trusted to rebuild.
	if m.RawName != "" {
		if _, err := storage.VerifyRecordSums(cfg.Storage, m.RawName, series.EncodedSize(m.SeriesLen)); err != nil {
			return pre, fmt.Errorf("coconut: repair: raw dataset %q is damaged, cannot rebuild from it: %w", m.RawName, err)
		}
	}
	variant := m.Variant
	if variant == manifest.VariantPartitioned {
		variant = m.Part.ChildVariant
	}
	// A rebuild needs the full build configuration; adopt anything the
	// caller left unset from the manifest, exactly as Open does.
	rcfg := cfg
	rcfg.AllowDegraded = true
	if _, err := rcfg.mergeStored(variant); err != nil {
		return pre, fmt.Errorf("coconut: repair: %w", err)
	}
	switch variant {
	case manifest.VariantLSM:
		ix, err := OpenLSMIndex(rcfg)
		if err != nil {
			return pre, fmt.Errorf("coconut: repair: degraded open: %w", err)
		}
		rerr := ix.Repair()
		if cerr := ix.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return pre, fmt.Errorf("coconut: repair: %w", rerr)
		}
	case manifest.VariantTree, manifest.VariantTrie:
		ix, err := rcfg.index(context.Background(), variant, false)
		if err != nil {
			return pre, fmt.Errorf("coconut: repair: rebuilding %s: %w", variant, err)
		}
		if err := ix.Close(); err != nil {
			return pre, fmt.Errorf("coconut: repair: %w", err)
		}
	default:
		return pre, fmt.Errorf("coconut: repair: unsupported variant %v", variant)
	}
	return Scrub(cfg.Storage, cfg.Name)
}
