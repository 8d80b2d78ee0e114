package core

import (
	"sort"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/summary"
)

// TrieIndex is Coconut-Trie (Algorithm 2): an iSAX-style prefix trie built
// bottom-up from sorted invSAX keys, whose leaves are contiguous ranges of
// the sorted leaf run. Its leaf directory is a pure function of the run's
// keys and the leaf capacity (trieStarts), recomputed at open and checked
// against the manifest's leaf count; everything else is the leaf run's (see
// leafRun). A trie takes no inserts, so it is immutable after BuildTrie.
type TrieIndex struct{ leafRun }

// BuildTrie runs the Coconut-Trie pipeline over opt.Records: the sorted
// stream written straight into the leaf run, then the leaf directory over
// the keys captured on the way. The sorted run IS the contiguous leaf write-out.
func BuildTrie(opt Options) (*TrieIndex, error) {
	ix := &TrieIndex{}
	if err := ix.buildRun(opt, manifest.VariantTrie, trieStarts); err != nil {
		return nil, err
	}
	return ix, nil
}

// OpenTrie reopens a previously built Coconut-Trie from its manifest and
// leaf run.
func OpenTrie(opt Options) (*TrieIndex, error) {
	ix := &TrieIndex{}
	if err := ix.openRun(opt, manifest.VariantTrie); err != nil {
		return nil, err
	}
	return ix, nil
}

// trieStarts is the trie's leaf directory over the sorted column:
// insertBottomUp + CompactSubtree realized as a recursive partition of the
// sorted key range. Top-level groups share their first bit of every segment
// (the iSAX root fan-out); a range that fits in a leaf becomes a (maximal,
// prefix-aligned) leaf — exactly the groups compaction would produce — and a
// larger one splits on the first interleaved bit that divides it, which
// extends one segment's prefix by a bit. A range whose keys are all equal
// stays one leaf, however large.
func trieStarts(col summary.Column, opt *Options) []int {
	p := opt.S.Params()
	total := p.Segments * p.CardBits
	var starts []int
	var split func(lo, hi, depth int)
	split = func(lo, hi, depth int) {
		for ; hi-lo > opt.LeafCap && depth < total; depth++ {
			mid := lo + sort.Search(hi-lo, func(i int) bool { return bitAt(col.Row(lo+i), depth, p.CardBits) == 1 })
			if mid > lo && mid < hi {
				split(lo, mid, depth+1)
				split(mid, hi, depth+1)
				return
			}
		}
		starts = append(starts, lo)
	}
	for lo := 0; lo < col.Len(); {
		hi := lo + 1
		for hi < col.Len() && summary.RowPrefixBits(col.Row(lo), col.Row(hi), p.CardBits) >= p.Segments {
			hi++
		}
		split(lo, hi, p.Segments)
		lo = hi
	}
	return append(starts, col.Len())
}

// bitAt returns interleaved bit i of row's key: bit i/w (from the symbol's
// most significant) of segment i mod w.
func bitAt(row summary.SAX, i, cardBits int) int {
	w := len(row)
	return int(row[i%w]>>uint(cardBits-1-i/w)) & 1
}
