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
// leafrun.go) bulk-loaded bottom-up into leaves packed to the fill factor,
// as a UB-tree loads its leaf pages, under a flat leaf directory that lives
// in the manifest. Approximate search lands on the query key's position in
// the sorted summary array, exact search is CoconutTreeSIMS (Algorithm 5) —
// both read candidate records, from the raw file or, materialized, from the
// run itself, never whole leaves — and inserts split full leaves at the
// median (§3.2).
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
	// starts is the leaf directory: leaf i holds records
	// [starts[i], starts[i+1]) of the run. It shapes the counters (Shape,
	// ApproxWindow.Leaves), the manifest's layout and the splits of inserts,
	// and no read.
	starts []int
}

// BuildTree runs the Coconut-Tree pipeline over opt.Records: the sorted
// stream written straight into the leaf run, capturing the sorted summary
// array on the way, cut into leaves of the fill factor's size. A failed
// build leaves none of its files behind.
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
// manifest, which holds the leaf directory, and its leaf run. The options
// must name the same FS, Name, RawName, summarizer configuration,
// materialization and leaf capacity as the build — mismatches fail loudly
// with manifest.ErrConfigMismatch. The raw dataset file is opened for
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
	// The leaf capacity shapes the leaf directory; the stored value is the
	// only one that can interpret it. (The public API and the CLI adopt the
	// stored value for unset fields before reaching here.)
	if opt.LeafCap != m.LeafCap {
		return nil, fmt.Errorf("core: %w: leaf capacity %d, stored index was built with %d",
			manifest.ErrConfigMismatch, opt.LeafCap, m.LeafCap)
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

// packedStarts is the bulk load's leaf directory: a run of n records cut
// into leaves of fill records, the last one holding the rest.
func packedStarts(n, fill int) []int {
	starts := make([]int, 0, n/fill+2)
	for s := 0; s < n; s += fill {
		starts = append(starts, s)
	}
	return append(starts, n)
}

// InsertRecords inserts pre-summarized records whose raw bytes the
// partition layer already appended to the raw log (the update path of
// Figure 10a): the batch, sorted in place, and the current run merge into
// the next generation of the run (a materialized tree reads each inserted
// series back from the raw log), and the leaf directory grows as top-down inserts
// with median splits grow it (splitStarts). The inserts become durable at the
// next Sync.
func (ix *TreeIndex) InsertRecords(recs []summary.Record) error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	if len(recs) == 0 {
		return nil
	}
	slices.SortFunc(recs, summary.CompareRecords)
	if err := ix.mergeNext(recs); err != nil {
		return err
	}
	lbs := make([]int, len(recs))
	for i, rec := range recs {
		lbs[i] = ix.sims.col.Search(ix.opt.S.SAXFromKey(rec.Key))
	}
	ix.starts = splitStarts(ix.starts, lbs, ix.opt.LeafCap)
	return nil
}

// splitStarts is the tree's update policy on its leaf directory: records
// inserted one at a time in key order, each into the leaf its key routes to,
// a full leaf split at the median first (§3.2, "Median-Based Splitting") so
// both halves are at least half full. lbs holds each record's lower bound in
// the run after the batch, which is also its lower bound when its turn
// comes, since the records after it have keys at or above its own. A key
// routes to the first leaf whose successor's first key is at or above it —
// the leaf holding the record before its lower bound — so only lower bounds
// and counts decide where a record lands, never the keys themselves.
func splitStarts(starts, lbs []int, leafCap int) []int {
	counts := make([]int, 0, len(starts)+len(lbs)/max(leafCap/2, 1))
	for i := 1; i < len(starts); i++ {
		counts = append(counts, starts[i]-starts[i-1])
	}
	if len(counts) == 0 && len(lbs) > 0 {
		counts = append(counts, 0) // the first record opens leaf 0
	}
	li, start := 0, 0 // the leaf routed to last, and its first ordinal
	for _, lb := range lbs {
		for li+1 < len(counts) && lb > start+counts[li] {
			start += counts[li]
			li++
		}
		if counts[li] >= leafCap {
			mid := counts[li] / 2
			counts = slices.Insert(counts, li+1, counts[li]-mid)
			counts[li] = mid
			if lb > start+mid {
				start += mid
				li++
			}
		}
		counts[li]++
	}
	return startsOf(counts)
}
