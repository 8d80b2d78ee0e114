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

// writeManifest commits the tree's manifest, the one home of its leaf
// directory: called after bt.Sync, so the entries describe durable pages.
func (ix *TreeIndex) writeManifest() error {
	p := ix.opt.S.Params()
	dir := ix.bt.Leaves()
	leaves := make([]manifest.TreeLeaf, len(dir))
	for i, l := range dir {
		leaves[i] = manifest.TreeLeaf{Page: l.Page, Count: l.Count, Stamp: l.Stamp, Sep: summary.Key(l.Sep)}
	}
	return manifest.Commit(ix.opt.FS, ix.opt.Name, &manifest.Manifest{
		Variant:      manifest.VariantTree,
		SeriesLen:    p.SeriesLen,
		Segments:     p.Segments,
		CardBits:     p.CardBits,
		Materialized: ix.opt.Materialized,
		LeafCap:      ix.opt.LeafCap,
		RawName:      ix.opt.RawName,
		Count:        ix.bt.Count(),
		Tree:         &manifest.TreeLayout{Leaves: leaves},
	})
}

// treeLeaves returns the leaf file configuration and the leaf directory of
// the tree index name that manifest m describes.
func treeLeaves(fs storage.FS, name string, m *manifest.Manifest) (bptree.Config, []bptree.Leaf) {
	dir := make([]bptree.Leaf, len(m.Tree.Leaves))
	for i := range dir {
		l := &m.Tree.Leaves[i]
		dir[i] = bptree.Leaf{Page: l.Page, Count: l.Count, Stamp: l.Stamp, Sep: l.Sep[:]}
	}
	return bptree.Config{FS: fs, Name: name + ".bt", RecordSize: recordSize(m.SeriesLen, m.Materialized),
		KeyLen: summary.KeySize, LeafCap: m.LeafCap}, dir
}

// VerifyTree checks the leaf file of the tree index name against the
// directory in its manifest m (bptree.Verify) and returns the pages checked.
func VerifyTree(fs storage.FS, name string, m *manifest.Manifest) (int64, error) {
	return bptree.Verify(treeLeaves(fs, name, m))
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
	tr, err := trie.New(opt.S, opt.LeafCap)
	if err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := &TrieIndex{opt: opt, tr: tr, rawFile: raw, rawSums: opt.RawSums, count: m.Count}
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
	ix.sims = newSimsArray(ix.opt.S, int(ix.count))
	var prev summary.Key
	for i := int64(0); i < ix.count; i++ {
		if _, err := io.ReadFull(sr, rec); err != nil {
			return fmt.Errorf("core: read trie leaves: %w", truncatedLeaves(err))
		}
		key, _, _ := decodeRecord(rec, false)
		if i > 0 && key.Less(prev) {
			return fmt.Errorf("core: %w: leaf records out of key order", manifest.ErrCorruptManifest)
		}
		prev = key
		ix.sims.add(rec)
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
