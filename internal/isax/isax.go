// Package isax implements the prefix-split data series index family the
// paper compares against (the "state of the art", §2-3):
//
//   - iSAX 2.0: one pass over the raw file, top-down inserts with
//     first-buffer-layer (FBL) buffering, leaves store the raw series
//     (materialized). Splits re-read and re-write leaves — the O(N) random
//     I/O pattern of Figure 3.
//   - ADSFull: two passes — first a summary-only index, then the raw series
//     are routed into the leaves (materialized), again through buffers.
//   - ADS+: summary-only construction (non-materialized); leaves hold
//     (word, offset) entries and start large, being split adaptively down
//     to the query-time leaf size the first time a query visits them.
//
// All three share the trie machinery of internal/trie and expose the same
// query interface: approximate search (descend to the most promising leaf)
// and two exact algorithms — the classic best-first tree search and SIMS
// (skip-sequential scan of in-memory summaries, the algorithm ADS uses).
package isax

import (
	"errors"
	"fmt"
	"io"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/trie"
)

// Mode selects the family member.
type Mode int

// Family members.
const (
	// ISAX2 is the materialized, one-pass, top-down index (iSAX 2.0).
	ISAX2 Mode = iota
	// ADSFull is the materialized, two-pass adaptive index.
	ADSFull
	// ADSPlus is the non-materialized adaptive index.
	ADSPlus
)

func (m Mode) String() string {
	switch m {
	case ISAX2:
		return "iSAX2.0"
	case ADSFull:
		return "ADSFull"
	case ADSPlus:
		return "ADS+"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Materialized reports whether leaves store raw series.
func (m Mode) Materialized() bool { return m != ADSPlus }

// Options configures a build.
type Options struct {
	// FS hosts the index files; the raw dataset file must live on it too.
	FS storage.FS
	// Name is the base name for index files.
	Name string
	// S is the summarization configuration (shared with queries).
	S *summary.Summarizer
	// RawName is the dataset file in raw binary format.
	RawName string
	// Mode picks the family member.
	Mode Mode
	// LeafCap is the query-time leaf size (paper: 2000).
	LeafCap int
	// BuildLeafCap is ADS+'s larger construction-time leaf size
	// (default 8x LeafCap); ignored by the other modes.
	BuildLeafCap int
	// MemBudgetBytes bounds the FBL buffers — the paper's M.
	MemBudgetBytes int64
}

func (o *Options) validate() error {
	switch {
	case o.FS == nil:
		return errors.New("isax: nil FS")
	case o.Name == "":
		return errors.New("isax: empty name")
	case o.S == nil:
		return errors.New("isax: nil summarizer")
	case o.RawName == "":
		return errors.New("isax: empty raw file name")
	case o.LeafCap < 2:
		return errors.New("isax: leaf capacity must be at least 2")
	}
	if o.BuildLeafCap < o.LeafCap {
		o.BuildLeafCap = o.LeafCap * 8
	}
	if o.MemBudgetBytes <= 0 {
		o.MemBudgetBytes = 64 << 20
	}
	return nil
}

// Result is a search answer.
type Result struct {
	// Pos is the ordinal of the answer series in the raw file (-1 if none).
	Pos int64
	// Dist is the Euclidean distance to the query.
	Dist float64
	// VisitedRecords counts raw series whose true distance was computed —
	// the quantity of Figure 9f.
	VisitedRecords int64
	// VisitedLeaves counts leaf pages read.
	VisitedLeaves int64
}

// Index is a built prefix-split index.
type Index struct {
	opt      Options
	tr       *trie.Trie
	leafFile storage.File
	rawFile  storage.File
	count    int64
	nextPage int64
	// deadPages counts leaf pages orphaned by splits — the space
	// amplification of top-down construction.
	deadPages int64
	buffered  int64 // bytes in FBL buffers
	// sums is the in-memory summary array in raw-file order, used by SIMS.
	sums []summary.SAX
	// leafCap in effect during construction (ADS+ uses BuildLeafCap).
	buildCap int
}

// recordSize returns the on-disk leaf record size.
func (ix *Index) recordSize() int {
	p := ix.opt.S.Params()
	n := p.Segments + 8
	if ix.opt.Mode.Materialized() {
		n += series.EncodedSize(p.SeriesLen)
	}
	return n
}

func (ix *Index) pageSize() int64 {
	return int64(4 + ix.recordSize()*ix.opt.LeafCap)
}

// bufferedRecordBytes is the FBL cost of one buffered record.
func (ix *Index) bufferedRecordBytes() int64 {
	p := ix.opt.S.Params()
	n := int64(p.Segments + 8)
	if ix.opt.Mode == ISAX2 {
		// iSAX 2.0 buffers the raw series alongside the summarization.
		n += int64(series.EncodedSize(p.SeriesLen))
	}
	return n
}

// Build constructs the index over the raw dataset file.
func Build(opt Options) (*Index, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	tr, err := trie.New(opt.S, opt.LeafCap)
	if err != nil {
		return nil, err
	}
	lf, err := opt.FS.Create(opt.Name + ".leaves")
	if err != nil {
		return nil, err
	}
	raw, err := opt.FS.Open(opt.RawName)
	if err != nil {
		lf.Close()
		return nil, err
	}
	ix := &Index{opt: opt, tr: tr, leafFile: lf, rawFile: raw, buildCap: opt.LeafCap}
	if opt.Mode == ADSPlus {
		ix.buildCap = opt.BuildLeafCap
	}

	// Pass 1: stream the raw file, summarize, and insert top-down.
	//
	//   - iSAX 2.0 buffers (word, pos, raw) in the FBL and flushes to
	//     materialized leaves with read-modify-write I/O.
	//   - ADS+ buffers (word, pos) and flushes to non-materialized leaves.
	//   - ADSFull builds the summary structure purely in memory (summaries
	//     are ~1% of the data, the standing assumption of the family) and
	//     defers all leaf I/O to the materialization pass.
	p := opt.S.Params()
	r := series.NewReader(storage.NewSequentialReader(raw, 0, -1, 0), p.SeriesLen)
	buf := make(series.Series, p.SeriesLen)
	var pos int64
	for {
		if err := r.NextInto(buf); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			lf.Close()
			raw.Close()
			return nil, err
		}
		word, err := opt.S.SAXOf(buf)
		if err != nil {
			lf.Close()
			raw.Close()
			return nil, err
		}
		rec := trie.Record{Word: word, Pos: pos}
		switch opt.Mode {
		case ISAX2:
			rec.Raw = series.AppendEncode(nil, buf)
			err = ix.bufferInsert(rec)
		case ADSPlus:
			err = ix.bufferInsert(rec)
		case ADSFull:
			ix.memoryInsert(rec)
			ix.count++
		}
		if err != nil {
			lf.Close()
			raw.Close()
			return nil, err
		}
		ix.sums = append(ix.sums, word)
		pos++
	}
	if err := ix.FlushBuffers(); err != nil {
		lf.Close()
		raw.Close()
		return nil, err
	}

	// Pass 2 (ADSFull): route raw series into the leaves, again buffered.
	if opt.Mode == ADSFull {
		for _, l := range ix.tr.Leaves() {
			l.Buf = nil // structure built; records arrive in pass 2
		}
		if err := ix.materializePass(); err != nil {
			lf.Close()
			raw.Close()
			return nil, err
		}
	}
	return ix, nil
}

// memoryInsert places a summary record into the in-memory trie, splitting
// leaves that exceed the leaf capacity (ADSFull pass 1 — no leaf I/O).
func (ix *Index) memoryInsert(rec trie.Record) {
	cardBits := ix.opt.S.Params().CardBits
	n := ix.tr.RootChild(rec.Word, true)
	for !n.Leaf {
		n.Count++
		for _, c := range n.Children {
			if c.Matches(rec.Word, cardBits) {
				n = c
				break
			}
		}
	}
	n.Buf = append(n.Buf, rec)
	n.Count++
	for len(n.Buf) > ix.buildCap {
		seg := trie.ChooseSplitSegment(n, n.Buf, cardBits)
		if seg < 0 {
			return
		}
		zero, one := ix.tr.SplitLeaf(n, seg)
		if zero.Matches(rec.Word, cardBits) {
			n = zero
		} else {
			n = one
		}
	}
}

// bufferInsert adds one record to the FBL, flushing when the budget fills.
func (ix *Index) bufferInsert(rec trie.Record) error {
	n := ix.tr.RootChild(rec.Word, true)
	n.Buf = append(n.Buf, rec)
	ix.count++
	ix.buffered += ix.bufferedRecordBytes()
	if ix.buffered >= ix.opt.MemBudgetBytes {
		return ix.FlushBuffers()
	}
	return nil
}

// FlushBuffers drains every FBL buffer into the on-disk leaves — the
// "buffers are full and have to be processed" moment of Figure 3.
func (ix *Index) FlushBuffers() error {
	for _, n := range ix.tr.Roots() {
		if len(n.Buf) == 0 {
			continue
		}
		recs := n.Buf
		n.Buf = nil
		if err := ix.insertRecords(n, recs); err != nil {
			return err
		}
	}
	ix.buffered = 0
	return nil
}

// insertRecords pushes records down the subtree rooted at n, splitting
// leaves that overflow. Every leaf it touches costs one random read (the
// existing page) and one random write — exactly the top-down insertion cost
// analyzed in §3.1.
func (ix *Index) insertRecords(n *trie.Node, recs []trie.Record) error {
	if len(recs) == 0 {
		return nil
	}
	cardBits := ix.opt.S.Params().CardBits
	if !n.Leaf {
		n.Count += int64(len(recs))
		var perChild [][]trie.Record
		perChild = make([][]trie.Record, len(n.Children))
		for _, r := range recs {
			placed := false
			for ci, c := range n.Children {
				if c.Matches(r.Word, cardBits) {
					perChild[ci] = append(perChild[ci], r)
					placed = true
					break
				}
			}
			if !placed {
				return fmt.Errorf("isax: record matches no child of internal node")
			}
		}
		for ci, c := range n.Children {
			if err := ix.insertRecords(c, perChild[ci]); err != nil {
				return err
			}
		}
		return nil
	}

	// Leaf: merge existing on-disk records with the incoming batch.
	existing, err := ix.readLeafRecords(n)
	if err != nil {
		return err
	}
	all := append(existing, recs...)
	if len(all) <= ix.buildCap {
		n.Count = int64(len(all))
		return ix.writeLeafRecords(n, all)
	}

	// Overflow: split on the most dividing segment; if the node is fully
	// refined, fall back to an oversized leaf (rare at cardinality 256).
	seg := trie.ChooseSplitSegment(n, all, cardBits)
	if seg < 0 {
		n.Count = int64(len(all))
		return ix.writeLeafRecords(n, all)
	}
	if n.PageNum > 0 {
		ix.deadPages += n.PageNum
		n.PageStart, n.PageNum = 0, 0
	}
	n.Buf = all
	n.Count = int64(len(all))
	zero, one := ix.tr.SplitLeaf(n, seg)
	zrecs, orecs := zero.Buf, one.Buf
	zero.Buf, one.Buf = nil, nil
	zero.Count, one.Count = 0, 0
	n.Count = 0 // children counts restored by the recursive inserts
	if err := ix.insertRecords(n, zrecs); err != nil {
		return err
	}
	return ix.insertRecords(n, orecs)
}

// readLeafRecords loads a leaf's on-disk records (a random read).
func (ix *Index) readLeafRecords(n *trie.Node) ([]trie.Record, error) {
	if n.PageNum == 0 {
		return nil, nil
	}
	buf := make([]byte, n.PageNum*ix.pageSize())
	nr, err := ix.leafFile.ReadAt(buf, n.PageStart*ix.pageSize())
	if nr != len(buf) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("isax: read leaf pages [%d,%d): %w", n.PageStart, n.PageStart+n.PageNum, err)
	}
	cnt := int(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
	recs := make([]trie.Record, 0, cnt)
	p := ix.opt.S.Params()
	off := 4
	pageBytes := int(ix.pageSize())
	capPerPage := ix.opt.LeafCap
	inPage := 0
	page := 0
	for i := 0; i < cnt; i++ {
		if inPage == capPerPage {
			page++
			off = page*pageBytes + 4
			inPage = 0
		}
		var r trie.Record
		// Word and Raw alias the freshly-read page buffer; callers either
		// consume them before the next leaf read or re-encode them into a
		// new page, so no copy is needed.
		r.Word = summary.SAX(buf[off : off+p.Segments])
		off += p.Segments
		r.Pos = int64(leUint64(buf[off:]))
		off += 8
		if ix.opt.Mode.Materialized() {
			r.Raw = buf[off : off+series.EncodedSize(p.SeriesLen)]
			off += series.EncodedSize(p.SeriesLen)
		}
		recs = append(recs, r)
		inPage++
	}
	return recs, nil
}

// writeLeafRecords stores a leaf's records, allocating fresh pages at the
// end of the leaf file when the leaf grows (or is new). This is the random
// write of top-down insertion; the old location (if any) becomes garbage.
func (ix *Index) writeLeafRecords(n *trie.Node, recs []trie.Record) error {
	pagesNeeded := int64((len(recs) + ix.opt.LeafCap - 1) / ix.opt.LeafCap)
	if pagesNeeded == 0 {
		pagesNeeded = 1
	}
	if n.PageNum != pagesNeeded {
		if n.PageNum > 0 {
			ix.deadPages += n.PageNum
		}
		n.PageStart = ix.nextPage
		n.PageNum = pagesNeeded
		ix.nextPage += pagesNeeded
	}
	p := ix.opt.S.Params()
	buf := make([]byte, pagesNeeded*ix.pageSize())
	putU32(buf, uint32(len(recs)))
	off := 4
	pageBytes := int(ix.pageSize())
	inPage := 0
	page := 0
	for _, r := range recs {
		if inPage == ix.opt.LeafCap {
			page++
			off = page*pageBytes + 4
			inPage = 0
		}
		copy(buf[off:], r.Word)
		off += p.Segments
		putU64(buf[off:], uint64(r.Pos))
		off += 8
		if ix.opt.Mode.Materialized() {
			raw := r.Raw
			if raw == nil {
				// ADSFull pass 1 leaves raw empty; zero-fill until pass 2.
				raw = make([]byte, series.EncodedSize(p.SeriesLen))
			}
			copy(buf[off:], raw)
			off += series.EncodedSize(p.SeriesLen)
		}
		inPage++
	}
	_, err := ix.leafFile.WriteAt(buf, n.PageStart*ix.pageSize())
	return err
}

// materializePass is ADSFull's second pass: scan the raw file sequentially
// and route every series' raw bytes into its leaf, through the FBL.
func (ix *Index) materializePass() error {
	p := ix.opt.S.Params()
	r := series.NewReader(storage.NewSequentialReader(ix.rawFile, 0, -1, 0), p.SeriesLen)
	buf := make(series.Series, p.SeriesLen)
	var pos int64
	var pending int64
	for {
		if err := r.NextInto(buf); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		word := ix.sums[pos]
		n := ix.tr.RootChild(word, false)
		if n == nil {
			return fmt.Errorf("isax: series %d lost its root child", pos)
		}
		n.Buf = append(n.Buf, trie.Record{Word: word, Pos: pos, Raw: series.AppendEncode(nil, buf)})
		pending += ix.bufferedRecordBytes() + int64(series.EncodedSize(p.SeriesLen))
		pos++
		if pending >= ix.opt.MemBudgetBytes {
			if err := ix.flushMaterialize(); err != nil {
				return err
			}
			pending = 0
		}
	}
	return ix.flushMaterialize()
}

// flushMaterialize merges buffered raw records into existing leaves
// (read-modify-write per touched leaf — random I/O).
func (ix *Index) flushMaterialize() error {
	cardBits := ix.opt.S.Params().CardBits
	for _, root := range ix.tr.Roots() {
		if len(root.Buf) == 0 {
			continue
		}
		recs := root.Buf
		root.Buf = nil
		// Group by leaf, the leaves in the order their first record
		// reached them.
		var leaves []*trie.Node
		groups := make(map[*trie.Node][]trie.Record)
		for _, r := range recs {
			n := root
			for !n.Leaf {
				var next *trie.Node
				for _, c := range n.Children {
					if c.Matches(r.Word, cardBits) {
						next = c
						break
					}
				}
				if next == nil {
					return errors.New("isax: materialize lost a record")
				}
				n = next
			}
			if groups[n] == nil {
				leaves = append(leaves, n)
			}
			groups[n] = append(groups[n], r)
		}
		for _, leaf := range leaves {
			g := groups[leaf]
			// Read-modify-write: records accumulated by earlier flushes are
			// re-read and the leaf is rewritten — the random-I/O pattern
			// that makes the ADS family memory-sensitive.
			existing, err := ix.readLeafRecords(leaf)
			if err != nil {
				return err
			}
			merged := append(existing, g...)
			if err := ix.writeLeafRecords(leaf, merged); err != nil {
				return err
			}
		}
	}
	return nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Count returns the number of indexed series.
func (ix *Index) Count() int64 { return ix.count }

// NumLeaves returns the number of trie leaves.
func (ix *Index) NumLeaves() int { return ix.tr.NumLeaves() }

// AvgLeafFill returns mean leaf occupancy relative to the query-time leaf
// capacity.
func (ix *Index) AvgLeafFill() float64 {
	leaves := ix.tr.Leaves()
	if len(leaves) == 0 {
		return 0
	}
	var total int64
	for _, l := range leaves {
		total += l.Count
	}
	return float64(total) / float64(int64(len(leaves))*int64(ix.opt.LeafCap))
}

// SizeBytes returns the index footprint on the device (leaf file including
// dead pages left behind by splits).
func (ix *Index) SizeBytes() int64 {
	size, err := ix.leafFile.Size()
	if err != nil {
		return 0
	}
	return size
}

// DeadPages reports the pages orphaned by leaf splits.
func (ix *Index) DeadPages() int64 { return ix.deadPages }

// Trie exposes the underlying trie (read-only use).
func (ix *Index) Trie() *trie.Trie { return ix.tr }

// Close releases file handles.
func (ix *Index) Close() error {
	err1 := ix.leafFile.Close()
	err2 := ix.rawFile.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// readRaw fetches the raw series at ordinal pos from the dataset file.
func (ix *Index) readRaw(pos int64, dst series.Series) error {
	p := ix.opt.S.Params()
	sz := series.EncodedSize(p.SeriesLen)
	buf := make([]byte, sz)
	if n, err := ix.rawFile.ReadAt(buf, pos*int64(sz)); n != sz {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("isax: raw series %d: %w", pos, err)
	}
	series.DecodeInto(buf, dst)
	return nil
}

// recordSquaredDistance computes the true SQUARED distance from q to
// record r, fetching the raw series from the leaf (materialized) or the
// raw file. The query paths compare in squared space throughout and take
// the square root once, on the reported answer.
func (ix *Index) recordSquaredDistance(q series.Series, r trie.Record, scratch series.Series) (float64, error) {
	if r.Raw != nil {
		series.DecodeInto(r.Raw, scratch)
	} else if err := ix.readRaw(r.Pos, scratch); err != nil {
		return 0, err
	}
	return series.SquaredED(q, scratch)
}

var errNoData = errors.New("isax: index is empty")
