package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// TreeIndex is Coconut-Tree (Algorithm 3): the sorted leaf run (see
// leafrun.go), bulk-loaded bottom-up as one dense run whose leaves are its
// checksum blocks, each a disk page of whole records — full by construction,
// as a UB-tree bulk load packs its leaf pages. Approximate search lands on the
// query key's position in the sorted summary array, exact search is
// CoconutTreeSIMS (Algorithm 5) — both read candidate records, from the raw
// file or, materialized, from the run itself, never whole leaves — and an
// insert batch merges into the next generation of the run, so no leaf ever
// splits.
//
// A TreeIndex is a partition child's state (internal/partition): any number
// of query steps may run at once on one handle, and mutations
// (InsertRecords, Sync, Close) serialize against them through a handle-level
// RWMutex; a query's window fetches, which outlive ApproxWindowCands, are
// serialized against inserts by the partition layer's handle lock.
// Per-query scratch is allocated per call.
type TreeIndex struct {
	opt     Options
	rawFile storage.File
	// rawSums is the partition layer's raw log: it verifies raw reads, and
	// Sync commits it before the manifest may reference inserted positions.
	rawSums *storage.RecordSums
	// qmu is the handle lock: queries hold it shared, mutations exclusively.
	qmu sync.RWMutex
	// closed makes Close idempotent: a second Close (or one racing a
	// cancelled query's teardown) is a no-op instead of a double file close.
	closed bool
	// file is generation gen of the run. The manifest names generation
	// committed, the only other one on the device.
	file           storage.File
	gen, committed int64
	// sims is the in-memory sorted summary array: row i is the run's
	// record i.
	sims simsArray
}

// BuildTree runs the Coconut-Tree pipeline over opt.Records: the sorted
// stream written straight into the leaf run, capturing the sorted summary
// array on the way. A failed build leaves none of its files behind.
func BuildTree(opt Options) (*TreeIndex, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Records == nil {
		return nil, errors.New("core: build without a record stream")
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := &TreeIndex{opt: opt, rawFile: raw, rawSums: opt.RawSums}
	if err := ix.build(); err != nil {
		ix.closeFiles()
		removeFiles(opt.FS, runName(opt.Name, 0))
		return nil, err
	}
	return ix, nil
}

// OpenTree reopens a previously built Coconut-Tree at its last Sync, from its
// manifest, which names the run's generation, and its leaf run. The options
// must name the same FS, Name, RawName, summarizer configuration and
// materialization as the build — mismatches fail loudly with
// manifest.ErrConfigMismatch. The raw dataset file is opened for
// query-time fetches but never read here.
func OpenTree(opt Options) (*TreeIndex, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	m, err := LoadManifest(opt.FS, opt.Name)
	if err != nil {
		return nil, err
	}
	if err := m.CheckVariant(manifest.VariantTree); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := m.CheckParams(opt.S.Params(), opt.Materialized, opt.RawName); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := &TreeIndex{opt: opt, rawFile: raw, rawSums: opt.RawSums}
	if err := ix.load(m); err != nil {
		ix.closeFiles()
		return nil, err
	}
	return ix, nil
}

// InsertRecords inserts pre-summarized records whose raw bytes the
// partition layer already appended to the raw log (the update path of
// Figure 10a): the batch, sorted in place, and the current run merge into
// the next generation of the run (a materialized tree reads each inserted
// series back from the raw log). The inserts become durable at the next
// Sync.
func (ix *TreeIndex) InsertRecords(recs []summary.Record) error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	if len(recs) == 0 {
		return nil
	}
	slices.SortFunc(recs, summary.CompareRecords)
	return ix.mergeNext(recs)
}
