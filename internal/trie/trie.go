// Package trie provides the iSAX trie node machinery shared by the
// prefix-split index family: the iSAX 2.0 baseline (top-down inserts), the
// ADS baseline (summary-first construction), and Coconut-Trie (bottom-up
// bulk loading over sorted invSAX keys).
//
// Every node is identified by one bit-prefix per SAX segment; all series
// under a node match all of its prefixes (§3.2, "Prefix-Based Splitting").
// The root fans out on the first bit of every segment (the classic iSAX
// root with up to 2^w children); deeper nodes refine one segment at a time
// (top-down splits) or jump several bits at once (bottom-up construction,
// which compresses paths like a patricia trie — Figure 5).
package trie

import (
	"fmt"
	"math"
	"slices"

	"github.com/coconut-db/coconut/internal/summary"
)

// Record is one indexed data series as the trie family sees it: its
// full-cardinality SAX word plus the ordinal position of the raw series in
// the dataset file. Materialized indexes carry the encoded raw series in
// Raw; non-materialized indexes leave it nil.
type Record struct {
	Word summary.SAX
	Pos  int64
	Raw  []byte
}

// Node is a trie node. Syms[j] holds the fixed prefix of segment j in its
// HIGH bits (the remaining low bits are zero); Bits[j] says how many of
// those bits are fixed. A node with Bits[j] == cardBits for all j pins an
// exact SAX word.
type Node struct {
	Syms summary.SAX
	Bits []uint8
	// Children are the refinements of this node (nil for leaves). They are
	// kept in z-order of their prefixes so leaf enumeration follows the
	// sorted order Coconut-Trie writes them in.
	Children []*Node
	// Leaf marks nodes that hold records.
	Leaf bool
	// Count is the number of records under this node.
	Count int64
	// Buf holds buffered records for in-memory phases (iSAX 2.0 FBL/leaf
	// buffers, bottom-up construction). Disk-resident indexes drain it.
	Buf []Record
	// PageStart/PageNum locate this leaf's records in the owning index's
	// leaf file (contiguous for bottom-up builds; scattered for top-down).
	PageStart int64
	PageNum   int64
}

// Trie is the shared structure: a root with per-first-bits children.
type Trie struct {
	S *summary.Summarizer
	// Root maps the w-bit vector of segment MSBs to the level-1 node.
	Root map[uint32]*Node
	// LeafCap is the maximum records per leaf before a split is required.
	LeafCap int
}

// New returns an empty trie for the summarizer's configuration.
// Root keys need one bit per segment, so Segments must be <= 32.
func New(s *summary.Summarizer, leafCap int) (*Trie, error) {
	if s.Params().Segments > 32 {
		return nil, fmt.Errorf("trie: %d segments exceed the 32-bit root key", s.Params().Segments)
	}
	if leafCap < 1 {
		return nil, fmt.Errorf("trie: leaf capacity %d must be positive", leafCap)
	}
	return &Trie{S: s, Root: make(map[uint32]*Node), LeafCap: leafCap}, nil
}

// RootKey computes the root child key of a SAX word: the MSB of every
// segment, packed segment 0 first.
func (t *Trie) RootKey(word summary.SAX) uint32 {
	b := uint(t.S.Params().CardBits)
	var key uint32
	for _, sym := range word {
		key = key<<1 | uint32(sym>>(b-1))
	}
	return key
}

// NewRootNode builds (but does not register) the 1-bit-per-segment node for
// word.
func (t *Trie) NewRootNode(word summary.SAX) *Node {
	p := t.S.Params()
	n := &Node{
		Syms: make(summary.SAX, p.Segments),
		Bits: make([]uint8, p.Segments),
		Leaf: true,
	}
	mask := uint8(1 << (p.CardBits - 1))
	for j, sym := range word {
		n.Syms[j] = sym & mask
		n.Bits[j] = 1
	}
	return n
}

// RootChild returns the root child for word, creating it as a leaf when
// create is true. Returns nil when absent and create is false.
func (t *Trie) RootChild(word summary.SAX, create bool) *Node {
	key := t.RootKey(word)
	n := t.Root[key]
	if n == nil && create {
		n = t.NewRootNode(word)
		t.Root[key] = n
	}
	return n
}

// Matches reports whether word falls under n's per-segment prefixes.
func (n *Node) Matches(word summary.SAX, cardBits int) bool {
	for j := range word {
		shift := uint(cardBits) - uint(n.Bits[j])
		if word[j]>>shift != n.Syms[j]>>shift {
			return false
		}
	}
	return true
}

// Descend walks from the root to the deepest node matching word (which may
// be internal if word's subtree exists but the exact leaf does not).
// Returns nil when even the root child is missing.
func (t *Trie) Descend(word summary.SAX) *Node {
	n := t.RootChild(word, false)
	if n == nil {
		return nil
	}
	b := t.S.Params().CardBits
	for !n.Leaf {
		var next *Node
		for _, c := range n.Children {
			if c.Matches(word, b) {
				next = c
				break
			}
		}
		if next == nil {
			return n
		}
		n = next
	}
	return n
}

// ChooseSplitSegment picks the segment whose next unprefixed bit divides
// the records most evenly — the iSAX 2.0 policy (§2, §3.2). Ties break on
// the lowest segment index. Returns -1 when no segment can be refined
// (all at full cardinality), in which case the leaf must overflow.
func ChooseSplitSegment(n *Node, recs []Record, cardBits int) int {
	best, bestScore := -1, int64(-1)
	for j := range n.Bits {
		if int(n.Bits[j]) >= cardBits {
			continue
		}
		shift := uint(cardBits) - uint(n.Bits[j]) - 1
		var ones int64
		for i := range recs {
			ones += int64(recs[i].Word[j]>>shift) & 1
		}
		zeros := int64(len(recs)) - ones
		score := ones
		if zeros < ones {
			score = zeros
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// SplitLeaf refines leaf n on segment seg: n becomes internal with two
// children extending the prefix of seg by one bit, and n.Buf is
// redistributed. The children inherit leaf status. Returns (zero-child,
// one-child).
func (t *Trie) SplitLeaf(n *Node, seg int) (*Node, *Node) {
	b := t.S.Params().CardBits
	shift := uint(b) - uint(n.Bits[seg]) - 1
	mk := func(bit uint8) *Node {
		c := &Node{
			Syms: append(summary.SAX(nil), n.Syms...),
			Bits: append([]uint8(nil), n.Bits...),
			Leaf: true,
		}
		c.Bits[seg]++
		c.Syms[seg] |= bit << shift
		return c
	}
	zero, one := mk(0), mk(1)
	for _, r := range n.Buf {
		if (r.Word[seg]>>shift)&1 == 0 {
			zero.Buf = append(zero.Buf, r)
			zero.Count++
		} else {
			one.Buf = append(one.Buf, r)
			one.Count++
		}
	}
	n.Buf = nil
	n.Leaf = false
	n.Children = []*Node{zero, one}
	return zero, one
}

// MinDist lower-bounds the distance between the query (as PAA) and every
// series under n, using the node's prefix regions.
func (t *Trie) MinDist(paa []float64, n *Node) float64 {
	return t.S.MinDistPAAToPrefix(paa, n.Syms, n.Bits)
}

// MinDistSq is the squared form of MinDist. Relative node comparisons
// (best-first ordering, leaf selection) are identical in squared space —
// sqrt preserves order — and skip one sqrt per node visited.
func (t *Trie) MinDistSq(paa []float64, n *Node) float64 {
	return t.S.MinDistSqPAAToPrefix(paa, n.Syms, n.Bits)
}

// Leaves returns all leaves, root children in ascending root-key order,
// children in their stored order (z-order for bottom-up builds).
func (t *Trie) Leaves() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range t.Roots() {
		walk(n)
	}
	return out
}

// Roots returns the root's children in root-key order: every walk that
// writes or reads in root order goes through it, so its I/O is the same
// from run to run (Root is a map, whose order is not).
func (t *Trie) Roots() []*Node {
	keys := make([]uint32, 0, len(t.Root))
	for k := range t.Root {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]*Node, len(keys))
	for i, k := range keys {
		out[i] = t.Root[k]
	}
	return out
}

// NumLeaves counts leaves.
func (t *Trie) NumLeaves() int { return len(t.Leaves()) }

// AvgLeafFill returns mean leaf occupancy relative to LeafCap — the paper's
// ~10% number for prefix-split indexes (vs ~97% for median splits).
func (t *Trie) AvgLeafFill() float64 {
	leaves := t.Leaves()
	if len(leaves) == 0 {
		return 0
	}
	var total int64
	for _, l := range leaves {
		total += l.Count
	}
	return float64(total) / float64(int64(len(leaves))*int64(t.LeafCap))
}

// BestLeaf returns the leaf with the smallest MINDIST to the query PAA —
// the approximate-search target when the exact subtree for the query's word
// is missing. Returns nil for an empty trie. The walk compares squared
// bounds (the selected leaf is the same either way).
func (t *Trie) BestLeaf(paa []float64) *Node {
	var best *Node
	bestDist := math.Inf(1)
	var walk func(n *Node)
	walk = func(n *Node) {
		d := t.MinDistSq(paa, n)
		if d >= bestDist {
			return // the node bound already exceeds the best leaf found
		}
		if n.Leaf {
			best, bestDist = n, d
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range t.Roots() {
		walk(n)
	}
	return best
}

// CheckInvariants validates the prefix containment and count invariants of
// the whole trie.
func (t *Trie) CheckInvariants(cardBits int) error {
	var walk func(n *Node) (int64, error)
	walk = func(n *Node) (int64, error) {
		for j := range n.Bits {
			if int(n.Bits[j]) > cardBits || n.Bits[j] < 1 {
				return 0, fmt.Errorf("trie: node prefix bits %d out of range", n.Bits[j])
			}
			shift := uint(cardBits) - uint(n.Bits[j])
			if n.Syms[j] != (n.Syms[j]>>shift)<<shift {
				return 0, fmt.Errorf("trie: node has low bits set beyond prefix")
			}
		}
		if n.Leaf {
			if len(n.Children) != 0 {
				return 0, fmt.Errorf("trie: leaf with children")
			}
			for _, r := range n.Buf {
				if !n.Matches(r.Word, cardBits) {
					return 0, fmt.Errorf("trie: buffered record outside node prefix")
				}
			}
			return n.Count, nil
		}
		var sum int64
		for _, c := range n.Children {
			// Child prefixes must refine the parent's.
			for j := range n.Bits {
				if c.Bits[j] < n.Bits[j] {
					return 0, fmt.Errorf("trie: child coarser than parent")
				}
				shift := uint(cardBits) - uint(n.Bits[j])
				if c.Syms[j]>>shift != n.Syms[j]>>shift {
					return 0, fmt.Errorf("trie: child prefix disagrees with parent")
				}
			}
			s, err := walk(c)
			if err != nil {
				return 0, err
			}
			sum += s
		}
		if n.Count != sum {
			return 0, fmt.Errorf("trie: node count %d != children sum %d", n.Count, sum)
		}
		return sum, nil
	}
	for _, n := range t.Root {
		if _, err := walk(n); err != nil {
			return err
		}
	}
	return nil
}
