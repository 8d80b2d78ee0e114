package core

import (
	"fmt"
	"io"

	"github.com/coconut-db/coconut/internal/bptree"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/trie"
)

// This file is the durable-lifecycle glue for the core index variants:
// every Build ends by committing a versioned, checksummed manifest
// (internal/manifest) describing the on-device layout, and the Open paths
// reconstruct a queryable handle from the manifest plus the index files
// alone — the raw dataset is opened for query-time fetches but never
// re-read to rebuild the index.

// LoadManifest reads the manifest of a persisted index. It is exposed so
// the public API and the CLI can adopt stored parameters (summarization,
// leaf capacity, dataset file) before constructing open options.
func LoadManifest(fs storage.FS, name string) (*manifest.Manifest, error) {
	m, err := manifest.Load(fs, name)
	if err != nil {
		return nil, fmt.Errorf("core: loading manifest for %q: %w", name, err)
	}
	return m, nil
}

// checkOpenConfig runs the loud config-mismatch detection shared by the
// Open paths: the caller's summarization scheme, materialization, and
// dataset file must match the stored manifest exactly.
func checkOpenConfig(opt *Options, m *manifest.Manifest, want manifest.Variant) error {
	if err := m.CheckVariant(want); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := m.CheckParams(opt.S.Params(), opt.Materialized, opt.RawName); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// The leaf capacity shapes the tree's on-device page geometry and the
	// leaf directory a trie derives from its sorted run; the stored value
	// is the only one that can interpret either, so a conflicting caller
	// value is as fatal as a summarization mismatch. (The public
	// API and the CLI adopt the stored value for unset fields before
	// reaching here.)
	if opt.LeafCap != m.LeafCap {
		return fmt.Errorf("core: %w: leaf capacity %d, stored index was built with %d",
			manifest.ErrConfigMismatch, opt.LeafCap, m.LeafCap)
	}
	return nil
}

// treeManifest assembles the manifest for a TreeIndex from the live
// B+-tree geometry.
func treeManifest(opt Options, g bptree.Geometry) *manifest.Manifest {
	p := opt.S.Params()
	return &manifest.Manifest{
		Variant:      manifest.VariantTree,
		SeriesLen:    p.SeriesLen,
		Segments:     p.Segments,
		CardBits:     p.CardBits,
		Materialized: opt.Materialized,
		LeafCap:      g.LeafCap,
		RawName:      opt.RawName,
		Count:        g.Count,
		Checksums:    opt.Checksums,
		Tree: &manifest.TreeLayout{
			RecordSize: g.RecordSize,
			KeyLen:     g.KeyLen,
			LeafCap:    g.LeafCap,
			Fanout:     g.Fanout,
			FillFactor: opt.FillFactor,
			NumLeaves:  g.NumLeaves,
			NextPage:   g.NextPage,
		},
	}
}

// writeManifest commits the tree's manifest (called with the meta already
// saved, so manifest and B+-tree meta describe the same state).
func (ix *TreeIndex) writeManifest() error {
	return manifest.Commit(ix.opt.FS, ix.opt.Name, treeManifest(ix.opt, ix.bt.Geometry()))
}

// checkTreeGeometry cross-checks the reopened B+-tree against the
// manifest. A disagreement in the build-time shape (record size, key
// length, leaf capacity, fan-out) means the directory holds files from
// different builds and is unusable. The mutable fields (leaf count, page
// cursor, record count) may legitimately be NEWER in the meta than in the
// manifest: Sync commits the meta first, so a crash between the two
// atomic commits leaves that exact state. checkTreeGeometry reports it as
// stale=true and OpenTree heals by recommitting the manifest from the
// live tree — both commits are individually atomic, so every reachable
// crash state reopens.
func checkTreeGeometry(opt Options, m *manifest.Manifest, g bptree.Geometry) (stale bool, err error) {
	t := m.Tree
	if t == nil {
		return false, fmt.Errorf("core: %w: tree manifest without tree layout", manifest.ErrCorruptManifest)
	}
	if g.RecordSize != t.RecordSize || g.KeyLen != t.KeyLen || g.LeafCap != t.LeafCap ||
		g.Fanout != t.Fanout {
		return false, fmt.Errorf("core: %w: B+-tree meta does not match manifest (mixed build)",
			manifest.ErrCorruptManifest)
	}
	if g.RecordSize != opt.recordSize() {
		return false, fmt.Errorf("core: %w: stored record size %d, configuration implies %d",
			manifest.ErrCorruptManifest, g.RecordSize, opt.recordSize())
	}
	// Inserts only grow the tree, so a meta that is BEHIND the manifest
	// cannot come from the commit ordering above — reject it.
	if g.Count < m.Count || g.NumLeaves < t.NumLeaves || g.NextPage < t.NextPage {
		return false, fmt.Errorf("core: %w: B+-tree meta is older than the manifest",
			manifest.ErrCorruptManifest)
	}
	stale = g.NumLeaves != t.NumLeaves || g.NextPage != t.NextPage || g.Count != m.Count
	return stale, nil
}

// writeManifest commits the trie's manifest. The leaf directory is a pure
// function of (sorted keys, LeafCap), so only its size is stored.
func (ix *TrieIndex) writeManifest() error {
	p := ix.opt.S.Params()
	m := &manifest.Manifest{
		Variant:      manifest.VariantTrie,
		SeriesLen:    p.SeriesLen,
		Segments:     p.Segments,
		CardBits:     p.CardBits,
		Materialized: ix.opt.Materialized,
		LeafCap:      ix.opt.LeafCap,
		RawName:      ix.opt.RawName,
		Count:        ix.count,
		Checksums:    ix.opt.Checksums,
		Trie:         &manifest.TrieLayout{NumLeaves: len(ix.leaves)},
	}
	return manifest.Commit(ix.opt.FS, ix.opt.Name, m)
}

// OpenTrie reopens a previously built Coconut-Trie from its manifest and
// leaf file. The sorted summary array is reloaded by one sequential read of
// the manifest's record count, and the in-memory trie structure — a pure
// function of the sorted keys and the leaf capacity — is rebuilt and
// cross-checked against the manifest's leaf count. The raw dataset file is
// opened for query-time fetches but never read here.
func OpenTrie(opt Options) (*TrieIndex, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	m, err := LoadManifest(opt.FS, opt.Name)
	if err != nil {
		return nil, err
	}
	if err := checkOpenConfig(&opt, m, manifest.VariantTrie); err != nil {
		return nil, err
	}
	if m.Trie == nil {
		return nil, fmt.Errorf("core: %w: trie manifest without trie layout", manifest.ErrCorruptManifest)
	}
	// The checksummed-block layout is a property of the stored bytes;
	// adopt the manifest's flag (see OpenTree).
	opt.Checksums = m.Checksums
	tr, err := trie.New(opt.S, opt.LeafCap)
	if err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := &TrieIndex{opt: opt, tr: tr, rawFile: raw, count: m.Count}
	if err := ix.load(m.Trie.NumLeaves); err != nil {
		ix.closeAll()
		return nil, err
	}
	return ix, nil
}

// load reopens the leaf file and rebuilds the in-memory state of an index
// of ix.count records in wantLeaves leaves.
func (ix *TrieIndex) load(wantLeaves int) error {
	var err error
	if ix.leafFile, err = openLeafFile(&ix.opt); err != nil {
		return err
	}
	if ix.rawSums, ix.ownSums, err = AttachRawSums(ix.opt.FS, ix.opt.RawName, ix.opt.S, ix.opt.Checksums, ix.opt.RawSums, ix.rawFile); err != nil {
		return err
	}
	// Keys live in the leaf records; the raw file is not touched.
	recSize := ix.opt.recordSize()
	size, err := ix.leafFile.Size()
	if err != nil {
		return err
	}
	want := ix.count * int64(recSize)
	if size > want {
		return fmt.Errorf("core: %w: leaf file holds %d bytes, manifest's %d records take %d",
			manifest.ErrCorruptManifest, size, ix.count, want)
	}
	sr := storage.NewSequentialReader(ix.leafFile, 0, want, 0)
	rec := make([]byte, recSize)
	ix.keys = make([]summary.Key, ix.count)
	ix.positions = make([]int64, ix.count)
	for i := range ix.keys {
		if _, err := io.ReadFull(sr, rec); err != nil {
			return fmt.Errorf("core: read trie leaves: %w", truncatedLeaves(err))
		}
		ix.keys[i], ix.positions[i], _ = decodeRecord(rec, false)
		if i > 0 && ix.keys[i].Less(ix.keys[i-1]) {
			return fmt.Errorf("core: %w: leaf records out of key order", manifest.ErrCorruptManifest)
		}
	}
	// The structure is deterministic, so a different leaf count means the
	// manifest and the leaf file are from different builds.
	ix.buildStructure()
	if len(ix.leaves) != wantLeaves {
		return fmt.Errorf("core: %w: rebuilt trie has %d leaves, manifest says %d",
			manifest.ErrCorruptManifest, len(ix.leaves), wantLeaves)
	}
	return nil
}
