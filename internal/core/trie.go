package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/trie"
	"github.com/coconut-db/coconut/internal/window"
)

// TrieIndex is Coconut-Trie (Algorithm 2): an iSAX-style prefix trie built
// bottom-up from sorted invSAX keys, with contiguous leaves.
//
// The construction realizes insertBottomUp + CompactSubtree as a recursive
// partition of the sorted key range along interleaved bit positions: a
// range that fits in a leaf becomes a (maximal, prefix-aligned) leaf —
// exactly the groups compaction would produce — and larger ranges split on
// the next interleaved bit, which extends one segment's prefix by one bit.
//
// A TrieIndex is a partition child (internal/partition), immutable after
// BuildTrie and therefore safe for any number of concurrent query steps on
// one handle: all query state (scratch series, leaf buffers) is allocated
// per call, and the verification scan shards across Options.QueryWorkers.
// Close is the one mutation; the handle lock makes it wait for in-flight
// steps.
type TrieIndex struct {
	opt Options
	// qmu is the handle lock: queries hold it shared, Close exclusively.
	qmu sync.RWMutex
	// closed makes Close idempotent (see TreeIndex.closed).
	closed bool
	tr     *trie.Trie
	leaves []*trie.Node // leaf nodes in sorted (z-)order
	// leafFile is the sorted (key, position[, raw]) record run, flat and
	// unpadded: leaf i is records [leafStart[i], leafStart[i]+Count) of it.
	leafFile storage.File
	rawFile  storage.File
	count    int64
	// rawSums, the partition layer's raw log, verifies raw-dataset reads (a
	// trie takes no inserts).
	rawSums *storage.RecordSums
	// sims is the in-memory sorted summary array (SIMS state).
	sims simsArray
	// leafStart[i] is the index into sims of leaf i's first record.
	leafStart []int
}

// bitAt returns interleaved bit i of row's key: bit i/w (from the symbol's
// most significant) of segment i mod w.
func bitAt(row summary.SAX, i, cardBits int) int {
	w := len(row)
	return int(row[i%w]>>uint(cardBits-1-i/w)) & 1
}

// prefixAt converts the first L interleaved bits of row's key into a node's
// per-segment (Syms, Bits) prefixes (summary.RowPrefix).
func prefixAt(s *summary.Summarizer, row summary.SAX, L int) (summary.SAX, []uint8) {
	p := s.Params()
	buf := make([]uint8, 2*p.Segments) // one allocation per node for both slices
	syms, bits := summary.SAX(buf[:p.Segments:p.Segments]), buf[p.Segments:]
	summary.RowPrefix(row, L, p.CardBits, syms, bits)
	return syms, bits
}

// leafFileName names the trie's one index file.
func leafFileName(name string) string { return name + ".leaves" }

// leafBlockSize is the checksum-block payload of a leaf file: a whole
// number of records, about 4 KiB, so no record straddles two blocks and a
// leaf read verifies little beyond the leaf.
func leafBlockSize(recordSize int) int {
	return max(1, 4096/recordSize) * recordSize
}

// RemoveTrie deletes every file of the Coconut-Trie name, manifest
// included (see RemoveTree).
func RemoveTrie(fs storage.FS, name string) {
	removeFiles(fs, leafFileName(name), manifest.FileName(name))
}

// BuildTrie runs the Coconut-Trie pipeline over opt.Records: external sort
// straight into the leaf file -> bottom-up trie construction over the keys
// captured on the way. The sorted run IS the contiguous leaf write-out —
// the one large sequential write that replaces the state of the art's
// scattered allocations. A failed build leaves none of its files behind.
func BuildTrie(opt Options) (*TrieIndex, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	tr, err := trie.New(opt.S, opt.LeafCap)
	if err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}
	ix := &TrieIndex{opt: opt, tr: tr, rawFile: raw, rawSums: opt.RawSums}
	if err := ix.build(); err != nil {
		ix.closeAll()
		removeFiles(opt.FS, leafFileName(opt.Name))
		return nil, err
	}
	return ix, nil
}

func (ix *TrieIndex) build() error {
	opt := &ix.opt
	wrap := func(f storage.File) (storage.File, error) {
		return storage.CreateChecksumFile(f, leafBlockSize(opt.recordSize()))
	}
	var err error
	if ix.sims, err = sortRecords(opt, leafFileName(opt.Name), wrap); err != nil {
		return fmt.Errorf("core: sorting summarizations: %w", err)
	}
	ix.count = int64(ix.sims.col.Len())
	if ix.leafFile, err = openLeafFile(opt); err != nil {
		return err
	}
	// The manifest committed below references the leaf file; it must be on
	// stable storage first.
	if err := ix.leafFile.Sync(); err != nil {
		return err
	}
	// insertBottomUp + CompactSubtree: group by the first w bits (the iSAX
	// root fan-out), then recursively partition.
	ix.buildStructure()
	// The manifest commit is the durability point: from here on the index
	// can be reopened with OpenTrie without touching the raw dataset.
	return ix.writeManifest()
}

// openLeafFile opens the leaf file of opt's index in its stored physical
// layout. A corrupt structure in this manifest-referenced artifact is typed
// as both the stored-bytes failure and the broken manifest promise,
// matching the LSM run convention.
func openLeafFile(opt *Options) (storage.File, error) {
	inner, err := opt.FS.Open(leafFileName(opt.Name))
	if err != nil {
		return nil, err
	}
	lf, err := storage.OpenChecksumFile(inner)
	if err != nil {
		inner.Close()
		if errors.Is(err, storage.ErrCorruptData) {
			err = fmt.Errorf("%w: %w", manifest.ErrCorruptManifest, err)
		}
		return nil, fmt.Errorf("core: open trie leaf file: %w", err)
	}
	return lf, nil
}

// buildStructure (re)builds the in-memory trie over the sorted summary
// array: top-level groups share their full first-bit-per-segment prefix
// (the iSAX root fan-out), and each group partitions recursively along
// interleaved bits. It is a pure function of (keys, LeafCap,
// summarization), which is what lets OpenTrie reconstruct the exact
// build-time structure from the persisted leaves and cross-check it against
// the manifest.
func (ix *TrieIndex) buildStructure() {
	p := ix.opt.S.Params()
	col := ix.sims.col
	lo := 0
	for lo < col.Len() {
		hi := lo
		root := col.Row(lo)
		for hi < col.Len() && summary.RowPrefixBits(root, col.Row(hi), p.CardBits) >= p.Segments {
			hi++
		}
		n := ix.buildNode(lo, hi, p.Segments, p.Segments*p.CardBits)
		ix.tr.Root[ix.tr.RootKey(root)] = n
		lo = hi
	}
}

func (ix *TrieIndex) closeAll() {
	if ix.leafFile != nil {
		ix.leafFile.Close()
	}
	ix.rawFile.Close()
}

// buildNode recursively builds the subtree for rows [lo, hi), whose keys
// share at least `depth` interleaved prefix bits.
func (ix *TrieIndex) buildNode(lo, hi, depth, totalBits int) *trie.Node {
	s, col := ix.opt.S, ix.sims.col
	cardBits := s.Params().CardBits
	if hi-lo <= ix.opt.LeafCap || depth >= totalBits {
		// Maximal leaf: tighten the prefix to the members' true common
		// prefix (what CompactSubtree ends up with).
		common := max(summary.RowPrefixBits(col.Row(lo), col.Row(hi-1), cardBits), depth)
		syms, bits := prefixAt(s, col.Row(lo), common)
		leaf := &trie.Node{Syms: syms, Bits: bits, Leaf: true, Count: int64(hi - lo)}
		ix.leafStart = append(ix.leafStart, lo)
		ix.leaves = append(ix.leaves, leaf)
		return leaf
	}
	// Advance to the first bit position that actually divides the range
	// (path compression — chains of single-child nodes merge away).
	d := depth
	for d < totalBits {
		mid := lo + sort.Search(hi-lo, func(i int) bool { return bitAt(col.Row(lo+i), d, cardBits) == 1 })
		if mid > lo && mid < hi {
			syms, bits := prefixAt(s, col.Row(lo), depth)
			n := &trie.Node{Syms: syms, Bits: bits, Count: int64(hi - lo)}
			n.Children = []*trie.Node{
				ix.buildNode(lo, mid, d+1, totalBits),
				ix.buildNode(mid, hi, d+1, totalBits),
			}
			return n
		}
		d++
	}
	// All remaining bits identical: one oversized leaf.
	return ix.buildNode(lo, hi, totalBits, totalBits)
}

// readLeafRecords loads the records of leaf li — exactly its extent of the
// sorted run — as one buffer of Count records of recordSize bytes.
func (ix *TrieIndex) readLeafRecords(li int) ([]byte, error) {
	recSize := int64(ix.opt.recordSize())
	buf := make([]byte, ix.leaves[li].Count*recSize)
	if n, err := ix.leafFile.ReadAt(buf, int64(ix.leafStart[li])*recSize); n != len(buf) {
		return nil, fmt.Errorf("core: read trie leaf: %w", truncatedLeaves(err))
	}
	return buf, nil
}

// truncatedLeaves types a short read of the leaf file: an extent the
// manifest promises but the file does not hold is corruption (truncation),
// not an I/O condition.
func truncatedLeaves(err error) error {
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated leaf file: %w", manifest.ErrCorruptManifest, storage.ErrCorruptData)
	}
	return err
}

// Count returns the number of indexed series.
func (ix *TrieIndex) Count() int64 { return ix.count }

// Shape returns the number of trie leaves and their mean occupancy.
func (ix *TrieIndex) Shape() Shape {
	sh := Shape{Leaves: len(ix.leaves)}
	if len(ix.leaves) > 0 {
		sh.LeafFill = float64(ix.count) / float64(int64(len(ix.leaves))*int64(ix.opt.LeafCap))
	}
	return sh
}

// Sync is a no-op: the trie is immutable and was durable when built.
func (ix *TrieIndex) Sync() error { return nil }

// SizeBytes returns the on-device index footprint.
func (ix *TrieIndex) SizeBytes() int64 {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	size, err := ix.leafFile.Size()
	if err != nil {
		return 0
	}
	return size
}

// Close releases file handles, waiting for in-flight queries. It is
// idempotent and safe to call concurrently with cancelled queries: shards
// abandoned by a cancelled fan-out may still touch the files afterwards,
// and their reads fail into slots the query never looks at.
func (ix *TrieIndex) Close() error {
	ix.qmu.Lock()
	defer ix.qmu.Unlock()
	if ix.closed {
		return nil
	}
	ix.closed = true
	err1 := ix.leafFile.Close()
	err2 := ix.rawFile.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// ApproxWindowCands is the trie's contribution to an approximate search:
// the ApproxWindow*(radius+1) records surrounding the query key's insertion
// position in the sorted summary array (see TreeIndex.ApproxWindowCands for
// the window, the locking contract and cancellation). An empty index
// contributes nothing.
func (ix *TrieIndex) ApproxWindowCands(_ context.Context, q series.Series, radius int) (ApproxWindow, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	if ix.count == 0 {
		return ApproxWindow{}, nil
	}
	return ix.approxWindow(q, radius)
}

// approxWindow collects the trie's window contribution: the trailing and
// leading half-windows around the query key's insertion position in the
// sorted summary array. Leaves counts the leaves the window ordinals span.
func (ix *TrieIndex) approxWindow(q series.Series, radius int) (ApproxWindow, error) {
	aw, lo, hi, err := windowCands(&ix.opt, &ix.sims, q, radius)
	if err == nil && lo < hi {
		aw.Leaves = int64(leafOfOrd(ix.leafStart, hi-1) - leafOfOrd(ix.leafStart, lo) + 1)
	}
	if aw.Fetch = ix.leafFetch(); aw.Fetch == nil {
		aw.Raw, aw.Sums = ix.rawFile, ix.rawSums
	}
	return aw, err
}

// leafFetch returns the per-query window candidate fetcher of a
// materialized index (see TreeIndex.leafFetch): cached leaf reads.
func (ix *TrieIndex) leafFetch() window.FetchFunc {
	if !ix.opt.Materialized {
		return nil
	}
	cache := make(map[int][]byte)
	recSize := ix.opt.recordSize()
	return func(c window.Cand, _ []byte) ([]byte, error) {
		li := leafOfOrd(ix.leafStart, c.Ord)
		recs, ok := cache[li]
		if !ok {
			var err error
			recs, err = ix.readLeafRecords(li)
			if err != nil {
				return nil, err
			}
			cache[li] = recs
		}
		_, _, raw := decodeRecord(recs[(c.Ord-ix.leafStart[li])*recSize:][:recSize], true)
		return raw, nil
	}
}

// ExactVerify is the SIMS verification phase over the trie against an
// externally computed seed and a shared cross-partition bound (see
// TreeIndex.ExactVerify): a skip-sequential candidate scan sharded across
// Options.QueryWorkers, over leaves when materialized, else over the raw
// file in position order, adjacent candidates sharing one read. Returned
// Result is SQUARED, counters cover this index's verification work only.
func (ix *TrieIndex) ExactVerify(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	res := Result{Pos: seedPos, Dist: seedSq}
	if ix.count == 0 {
		return res, nil
	}
	return simsVerify(ctx, &ix.opt, q, &ix.sims, res, bound, ix.rawFile, ix.rawSums, ix.simsOverLeaves)
}

// simsOverLeaves shards the materialized verification scan over contiguous
// runs of trie leaves; see TreeIndex.simsOverLeaves for the candidate list
// and the determinism contract.
func (ix *TrieIndex) simsOverLeaves(ctx context.Context, q series.Series, cands []summary.Cand, res Result, bound *shard.BSF) (Result, error) {
	pos, dist, vr, vl, err := shard.ScanReduce(ctx, ix.opt.QueryWorkers, len(ix.leaves), res.Pos, res.Dist, func(r shard.Range, local *shard.Outcome, cancelled func() bool) error {
		recSize := ix.opt.recordSize()
		rest := candsFrom(cands, ix.leafStart[r.Lo])
		for li := r.Lo; li < r.Hi && len(rest) > 0; li++ {
			if cancelled() {
				return nil
			}
			var leaf []summary.Cand
			leaf, rest = leafCands(rest, ix.leafStart[li]+int(ix.leaves[li].Count))
			if !slices.ContainsFunc(leaf, func(c summary.Cand) bool { return c.LB < local.Dist && !bound.Prunes(c.LB) }) {
				continue
			}
			recs, err := ix.readLeafRecords(li)
			if err != nil {
				return err
			}
			local.VisitedLeaves++
			for _, c := range leaf {
				if c.LB >= local.Dist || bound.Prunes(c.LB) {
					continue
				}
				rec := recs[(int(c.ID)-ix.leafStart[li])*recSize:][:recSize]
				pos, sq := leafSquaredDistance(q, rec)
				local.VisitedRecords++
				if sq < local.Dist {
					local.Dist, local.Pos = sq, pos
					bound.Lower(sq)
				}
			}
		}
		return nil
	})
	return applyScan(res, pos, dist, vr, vl), err
}
