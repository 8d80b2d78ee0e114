package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/extsort"
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
// A TrieIndex is immutable after BuildTrie and therefore safe for any
// number of concurrent queries on one handle: all query state (scratch
// series, leaf buffers) is allocated per call, and the exact-search
// verification scan shards across Options.QueryWorkers. Close is the one
// mutation; the handle lock makes it wait for in-flight queries.
type TrieIndex struct {
	opt Options
	// qmu is the handle lock: queries hold it shared, Close exclusively.
	qmu sync.RWMutex
	// closed makes Close idempotent (see TreeIndex.closed).
	closed   bool
	tr       *trie.Trie
	leaves   []*trie.Node // leaf nodes in sorted (z-)order
	leafOrd  map[*trie.Node]int
	leafFile storage.File
	rawFile  storage.File
	count    int64
	// rawSums verifies raw-dataset reads when checksums are on; ownSums
	// marks it as this index's own rather than the partition layer's.
	rawSums *storage.RecordSums
	ownSums bool
	// keys/positions: in-memory sorted summary array (SIMS state).
	keys      []summary.Key
	positions []int64
	// leafStart[i] is the index into keys of leaf i's first record.
	leafStart []int
	nextPage  int64
}

func bitAt(k summary.Key, i int) int {
	return int(k[i>>3]>>(7-uint(i&7))) & 1
}

// prefixAt converts the first L interleaved bits of key into per-segment
// (Syms, Bits) prefixes: bit position p belongs to segment p mod w.
func prefixAt(s *summary.Summarizer, key summary.Key, L int) (summary.SAX, []uint8) {
	p := s.Params()
	w, b := p.Segments, p.CardBits
	bits := make([]uint8, w)
	for j := 0; j < w; j++ {
		n := L / w
		if L%w > j {
			n++
		}
		if n > b {
			n = b
		}
		bits[j] = uint8(n)
	}
	sax := summary.Deinterleave(key, w, b)
	syms := make(summary.SAX, w)
	for j := 0; j < w; j++ {
		shift := uint(b) - uint(bits[j])
		syms[j] = (sax[j] >> shift) << shift
	}
	return syms, bits
}

// BuildTrie runs the Coconut-Trie pipeline: summarize -> external sort ->
// bottom-up trie construction -> contiguous leaf write-out.
func BuildTrie(opt Options) (*TrieIndex, error) {
	opt.Variant = Trie
	if err := opt.validate(); err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		return nil, err
	}

	sortedName := opt.Name + ".sorted"
	if err := sortRecords(&opt, raw, sortedName); err != nil {
		raw.Close()
		return nil, fmt.Errorf("core: sorting summarizations: %w", err)
	}

	tr, err := trie.New(opt.S, opt.LeafCap)
	if err != nil {
		raw.Close()
		return nil, err
	}
	inner, err := opt.FS.Create(opt.Name + ".leaves")
	if err != nil {
		raw.Close()
		return nil, err
	}
	lf := storage.File(inner)
	if opt.Checksums {
		// One checksum block per trie page: every leaf read verifies the
		// exact pages it touches.
		if lf, err = storage.CreateChecksumFile(inner, 4+opt.recordSize()*opt.LeafCap); err != nil {
			inner.Close()
			raw.Close()
			return nil, err
		}
	}
	ix := &TrieIndex{opt: opt, tr: tr, leafFile: lf, rawFile: raw, leafOrd: make(map[*trie.Node]int)}

	// Pass over the sorted stream: load the sorted summary array.
	rr, err := extsort.OpenRecords(opt.FS, sortedName, opt.recordSize(), 0)
	if err != nil {
		ix.closeAll()
		return nil, err
	}
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			rr.Close()
			ix.closeAll()
			return nil, err
		}
		key, pos, _ := decodeRecord(rec, false)
		ix.keys = append(ix.keys, key)
		ix.positions = append(ix.positions, pos)
	}
	rr.Close()
	ix.count = int64(len(ix.keys))

	// insertBottomUp + CompactSubtree: group by the first w bits (the iSAX
	// root fan-out), then recursively partition.
	ix.buildStructure()

	// Contiguous leaf write-out: one sequential pass over the sorted file.
	if err := ix.writeLeaves(sortedName); err != nil {
		ix.closeAll()
		return nil, err
	}
	_ = opt.FS.Remove(sortedName)
	if ix.rawSums, ix.ownSums, err = attachRawSums(&opt, raw, true); err != nil {
		ix.closeAll()
		return nil, err
	}
	// The manifest commit is the durability point: from here on the index
	// can be reopened with OpenTrie without touching the raw dataset.
	if err := ix.writeManifest(); err != nil {
		ix.closeAll()
		return nil, err
	}
	return ix, nil
}

// buildStructure (re)builds the in-memory trie over the sorted key array:
// top-level groups share their full first-bit-per-segment prefix (the iSAX
// root fan-out), and each group partitions recursively along interleaved
// bits. It is a pure function of (keys, LeafCap, summarization), which is
// what lets OpenTrie reconstruct the exact build-time structure from the
// persisted leaves and cross-check it against the manifest.
func (ix *TrieIndex) buildStructure() {
	p := ix.opt.S.Params()
	totalBits := p.Segments * p.CardBits
	lo := 0
	for lo < len(ix.keys) {
		hi := lo
		rootPrefix := ix.keys[lo]
		for hi < len(ix.keys) && summary.CommonPrefixBits(rootPrefix, ix.keys[hi], p.Segments) == p.Segments {
			hi++
		}
		n := ix.buildNode(lo, hi, p.Segments, totalBits)
		ix.tr.Root[ix.tr.RootKey(summary.Deinterleave(rootPrefix, p.Segments, p.CardBits))] = n
		lo = hi
	}
}

func (ix *TrieIndex) closeAll() {
	ix.leafFile.Close()
	ix.rawFile.Close()
}

// buildNode recursively builds the subtree for keys[lo:hi], whose members
// share at least `depth` interleaved prefix bits.
func (ix *TrieIndex) buildNode(lo, hi, depth, totalBits int) *trie.Node {
	s := ix.opt.S
	if hi-lo <= ix.opt.LeafCap || depth >= totalBits {
		// Maximal leaf: tighten the prefix to the members' true common
		// prefix (what CompactSubtree ends up with).
		common := summary.CommonPrefixBits(ix.keys[lo], ix.keys[hi-1], totalBits)
		if common < depth {
			common = depth
		}
		syms, bits := prefixAt(s, ix.keys[lo], common)
		leaf := &trie.Node{Syms: syms, Bits: bits, Leaf: true, Count: int64(hi - lo)}
		pages := int64((hi - lo + ix.opt.LeafCap - 1) / ix.opt.LeafCap)
		if pages == 0 {
			pages = 1
		}
		leaf.PageStart = ix.nextPage
		leaf.PageNum = pages
		ix.nextPage += pages
		ix.leafOrd[leaf] = len(ix.leaves)
		ix.leafStart = append(ix.leafStart, lo)
		ix.leaves = append(ix.leaves, leaf)
		return leaf
	}
	// Advance to the first bit position that actually divides the range
	// (path compression — chains of single-child nodes merge away).
	d := depth
	for d < totalBits {
		mid := lo + sort.Search(hi-lo, func(i int) bool { return bitAt(ix.keys[lo+i], d) == 1 })
		if mid > lo && mid < hi {
			syms, bits := prefixAt(s, ix.keys[lo], depth)
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

func (ix *TrieIndex) pageSize() int64 {
	return int64(4 + ix.opt.recordSize()*ix.opt.LeafCap)
}

// writeLeaves streams the sorted record file into page-framed, contiguous
// leaves — the large sequential write that replaces the state of the art's
// scattered allocations.
func (ix *TrieIndex) writeLeaves(sortedName string) error {
	rr, err := extsort.OpenRecords(ix.opt.FS, sortedName, ix.opt.recordSize(), 0)
	if err != nil {
		return err
	}
	defer rr.Close()
	w := storage.NewSequentialWriter(ix.leafFile, 0, 0)
	recSize := ix.opt.recordSize()
	pageBytes := int(ix.pageSize())
	for _, leaf := range ix.leaves {
		buf := make([]byte, leaf.PageNum*ix.pageSize())
		cnt := int(leaf.Count)
		buf[0] = byte(cnt)
		buf[1] = byte(cnt >> 8)
		buf[2] = byte(cnt >> 16)
		buf[3] = byte(cnt >> 24)
		off := 4
		inPage, page := 0, 0
		for i := 0; i < cnt; i++ {
			rec, err := rr.Next()
			if err != nil {
				return fmt.Errorf("core: sorted stream ended early: %w", err)
			}
			if inPage == ix.opt.LeafCap {
				page++
				off = page*pageBytes + 4
				inPage = 0
			}
			copy(buf[off:], rec)
			off += recSize
			inPage++
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The manifest committed after this write-out references these pages;
	// they must be on stable storage first.
	return ix.leafFile.Sync()
}

// readLeafRecords loads one leaf's raw record bytes.
func (ix *TrieIndex) readLeafRecords(leaf *trie.Node) ([][]byte, error) {
	return ix.readLeafPages(leaf.PageStart, leaf.PageNum)
}

// readLeafPages loads the records of a leaf given its page extent — the
// form OpenTrie uses before any trie.Node exists.
func (ix *TrieIndex) readLeafPages(pageStart, pageNum int64) ([][]byte, error) {
	buf := make([]byte, pageNum*ix.pageSize())
	if n, err := ix.leafFile.ReadAt(buf, pageStart*ix.pageSize()); n != len(buf) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// A leaf extent the manifest references but the file does not
			// hold is corruption (truncation), not an I/O condition.
			err = fmt.Errorf("truncated leaf file: %w", storage.ErrCorruptData)
		}
		return nil, fmt.Errorf("core: read trie leaf: %w", err)
	}
	cnt := int(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
	// The header is not covered by the manifest checksum; bound it by the
	// leaf's page capacity so a flipped bit fails loudly instead of
	// walking the decode loop off the end of the buffer.
	if int64(cnt) > pageNum*int64(ix.opt.LeafCap) {
		return nil, fmt.Errorf("core: %w: %w: leaf header claims %d records in %d pages of %d",
			manifest.ErrCorruptManifest, storage.ErrCorruptData, cnt, pageNum, ix.opt.LeafCap)
	}
	recSize := ix.opt.recordSize()
	pageBytes := int(ix.pageSize())
	out := make([][]byte, 0, cnt)
	off := 4
	inPage, page := 0, 0
	for i := 0; i < cnt; i++ {
		if inPage == ix.opt.LeafCap {
			page++
			off = page*pageBytes + 4
			inPage = 0
		}
		out = append(out, buf[off:off+recSize])
		off += recSize
		inPage++
	}
	return out, nil
}

// Count returns the number of indexed series.
func (ix *TrieIndex) Count() int64 { return ix.count }

// NumLeaves returns the number of trie leaves.
func (ix *TrieIndex) NumLeaves() int { return len(ix.leaves) }

// AvgLeafFill returns mean leaf occupancy.
func (ix *TrieIndex) AvgLeafFill() float64 {
	if len(ix.leaves) == 0 {
		return 0
	}
	var total int64
	for _, l := range ix.leaves {
		total += l.Count
	}
	return float64(total) / float64(int64(len(ix.leaves))*int64(ix.opt.LeafCap))
}

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

// Trie exposes the underlying structure (read-only).
func (ix *TrieIndex) Trie() *trie.Trie { return ix.tr }

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

// recordSquaredDistance computes the true SQUARED distance from q to a
// leaf record (see TreeIndex.recordSquaredDistance for the squared-space
// contract).
func (ix *TrieIndex) recordSquaredDistance(q series.Series, rec []byte, sc *RawScratch) (int64, float64, error) {
	_, pos, raw := decodeRecord(rec, ix.opt.Materialized)
	if raw != nil {
		series.DecodeInto(raw, sc.Series)
	} else if err := ReadRawAt(ix.rawFile, ix.rawSums, pos, sc.Buf, sc.Series); err != nil {
		return 0, 0, err
	}
	sq, err := series.SquaredED(q, sc.Series)
	if err != nil {
		return 0, 0, err
	}
	return pos, sq, nil
}

// ApproxSearch examines the ApproxWindow*(radius+1) records surrounding
// the query key's insertion position in the sorted summary array, fetching
// them in lower-bound order with early stop. The window depends only on
// the sorted record multiset, so the answer is identical across layouts
// (see internal/window). Safe for concurrent use.
func (ix *TrieIndex) ApproxSearch(q series.Series, radius int) (Result, error) {
	return ix.ApproxSearchCtx(context.Background(), q, radius)
}

// ApproxSearchCtx is ApproxSearch with cancellation: the candidate fetch
// loop observes ctx between records and returns ctx.Err() without a
// partial answer.
func (ix *TrieIndex) ApproxSearchCtx(ctx context.Context, q series.Series, radius int) (Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	res, err := ix.approxSearch(ctx, q, radius)
	return finishResult(res), err
}

// approxSearch is the internal form of ApproxSearch; res.Dist holds the
// SQUARED best distance.
func (ix *TrieIndex) approxSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	res := Result{Pos: -1, Dist: math.Inf(1)}
	if ix.count == 0 {
		return res, ErrEmptyIndex
	}
	aw, err := ix.approxWindow(q, radius)
	if err != nil {
		return res, err
	}
	half := ix.opt.ApproxWindow * (radius + 1) / 2
	cands := window.Merge(aw.Below, aw.Above, half)
	pos, sq, visited, err := window.Eval(q, cands, CtxFetch(ctx, aw.Fetch))
	res.Pos, res.Dist = pos, sq
	res.VisitedRecords = visited
	res.VisitedLeaves = aw.Leaves
	return res, err
}

// ApproxWindowCands exposes the trie's window contribution to the
// partition layer's cross-partition approximate search (see
// TreeIndex.ApproxWindowCands for the locking contract). An empty index
// contributes nothing.
func (ix *TrieIndex) ApproxWindowCands(q series.Series, radius int) (ApproxWindow, error) {
	return ix.ApproxWindowCandsCtx(context.Background(), q, radius)
}

// ApproxWindowCandsCtx is ApproxWindowCands with cancellation: the
// returned window's Fetch observes ctx between records.
func (ix *TrieIndex) ApproxWindowCandsCtx(ctx context.Context, q series.Series, radius int) (ApproxWindow, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	if ix.count == 0 {
		return ApproxWindow{}, nil
	}
	aw, err := ix.approxWindow(q, radius)
	aw.Fetch = CtxFetch(ctx, aw.Fetch)
	return aw, err
}

// approxWindow collects the trie's window contribution: the trailing and
// leading half-windows around the query key's insertion position in the
// sorted summary array. Leaves counts the leaf pages the window ordinals
// span.
func (ix *TrieIndex) approxWindow(q series.Series, radius int) (ApproxWindow, error) {
	var aw ApproxWindow
	key, err := ix.opt.S.KeyOf(q)
	if err != nil {
		return aw, err
	}
	qPAA, err := ix.opt.S.PAA(q, nil)
	if err != nil {
		return aw, err
	}
	p := ix.opt.S.Params()
	half := ix.opt.ApproxWindow * (radius + 1) / 2
	ins := sort.Search(len(ix.keys), func(i int) bool { return !ix.keys[i].Less(key) })
	lo, hi := ins-half, ins+half
	if lo < 0 {
		lo = 0
	}
	if hi > len(ix.keys) {
		hi = len(ix.keys)
	}
	saxScratch := make(summary.SAX, p.Segments)
	for i := lo; i < hi; i++ {
		sax := summary.DeinterleaveInto(ix.keys[i], p.CardBits, saxScratch)
		c := window.Cand{Key: ix.keys[i], Pos: ix.positions[i], LB: ix.opt.S.MinDistSqPAAToSAX(qPAA, sax), Ord: i}
		if i < ins {
			aw.Below = append(aw.Below, c)
		} else {
			aw.Above = append(aw.Above, c)
		}
	}
	if lo < hi {
		aw.Leaves = int64(leafOfOrd(ix.leafStart, hi-1) - leafOfOrd(ix.leafStart, lo) + 1)
	}
	aw.Fetch = ix.windowFetch()
	return aw, nil
}

// windowFetch returns the per-query window candidate fetcher (see
// TreeIndex.windowFetch): raw-dataset reads when non-materialized, cached
// leaf-page reads when materialized.
func (ix *TrieIndex) windowFetch() window.FetchFunc {
	if !ix.opt.Materialized {
		buf := make([]byte, series.EncodedSize(ix.opt.S.Params().SeriesLen))
		return func(c window.Cand, dst series.Series) error {
			return ReadRawAt(ix.rawFile, ix.rawSums, c.Pos, buf, dst)
		}
	}
	cache := make(map[int][][]byte)
	return func(c window.Cand, dst series.Series) error {
		li := leafOfOrd(ix.leafStart, c.Ord)
		recs, ok := cache[li]
		if !ok {
			var err error
			recs, err = ix.readLeafRecords(ix.leaves[li])
			if err != nil {
				return err
			}
			cache[li] = recs
		}
		_, _, raw := decodeRecord(recs[c.Ord-ix.leafStart[li]], true)
		series.DecodeInto(raw, dst)
		return nil
	}
}

// ExactSearch runs the SIMS algorithm over the trie: approximate seed,
// parallel lower bounds from the in-memory sorted summaries, then a
// skip-sequential candidate scan sharded across Options.QueryWorkers
// (leaves when materialized, raw file in position order otherwise). Safe
// for concurrent use; (Pos, Dist) is identical for any worker count.
func (ix *TrieIndex) ExactSearch(q series.Series, radius int) (Result, error) {
	return ix.ExactSearchCtx(context.Background(), q, radius)
}

// ExactSearchCtx is ExactSearch with cancellation: the verification scan
// observes ctx at leaf/candidate granularity and returns ctx.Err() without
// a partial answer.
func (ix *TrieIndex) ExactSearchCtx(ctx context.Context, q series.Series, radius int) (Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	res, err := ix.exactSearch(ctx, q, radius)
	return finishResult(res), err
}

// exactSearch runs the SIMS pipeline in squared space (see
// TreeIndex.exactSearch).
func (ix *TrieIndex) exactSearch(ctx context.Context, q series.Series, radius int) (Result, error) {
	res, err := ix.approxSearch(ctx, q, radius)
	if err != nil {
		return res, err
	}
	var bound shard.BSF
	bound.Init(res.Dist)
	return ix.exactVerify(ctx, q, res, &bound)
}

// exactVerify is the SIMS verification phase with an externally supplied
// shared bound (see TreeIndex.exactVerify).
func (ix *TrieIndex) exactVerify(ctx context.Context, q series.Series, res Result, bound *shard.BSF) (Result, error) {
	return simsVerify(ctx, &ix.opt, q, ix.keys, ix.positions, res, bound, ix.rawFile, ix.rawSums, ix.simsOverLeaves)
}

// ExactVerify runs only the verification phase against an externally
// computed seed and a shared cross-partition bound (see
// TreeIndex.ExactVerify). Returned Result is SQUARED, counters cover this
// index's verification work only.
func (ix *TrieIndex) ExactVerify(q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (Result, error) {
	return ix.ExactVerifyCtx(context.Background(), q, seedPos, seedSq, bound)
}

// ExactVerifyCtx is ExactVerify with cancellation.
func (ix *TrieIndex) ExactVerifyCtx(ctx context.Context, q series.Series, seedPos int64, seedSq float64, bound *shard.BSF) (Result, error) {
	ix.qmu.RLock()
	defer ix.qmu.RUnlock()
	res := Result{Pos: seedPos, Dist: seedSq}
	if ix.count == 0 {
		return res, nil
	}
	return ix.exactVerify(ctx, q, res, bound)
}

// simsOverLeaves shards the materialized verification scan over contiguous
// runs of trie leaves; see TreeIndex.simsOverLeaves for the candidate list
// and the determinism contract.
func (ix *TrieIndex) simsOverLeaves(ctx context.Context, q series.Series, cands []summary.Cand, res Result, bound *shard.BSF) (Result, error) {
	pos, dist, vr, vl, err := shard.ScanReduceCtx(ctx, ix.opt.QueryWorkers, len(ix.leaves), res.Pos, res.Dist, func(r shard.Range, local *shard.Outcome, cancelled func() bool) error {
		sc := GetRawScratch(len(q))
		defer PutRawScratch(sc)
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
			recs, err := ix.readLeafRecords(ix.leaves[li])
			if err != nil {
				return err
			}
			local.VisitedLeaves++
			for _, c := range leaf {
				i := int(c.ID) - ix.leafStart[li]
				if i >= len(recs) || c.LB >= local.Dist || bound.Prunes(c.LB) {
					continue
				}
				pos, sq, err := ix.recordSquaredDistance(q, recs[i], sc)
				if err != nil {
					return err
				}
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
