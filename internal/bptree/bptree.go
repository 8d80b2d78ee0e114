// Package bptree implements Coconut-Tree's leaf level: fixed-size records in
// key order on the pages of one leaf file, bulk-loaded bottom-up from sorted
// input in the style of the UB-tree loading algorithm the paper relies on
// (Algorithm 3). The external sort's output is packed straight into leaves
// (Loader), filled to a configurable fill factor and written as one
// contiguous sequential stream, so the result is contiguous and densely
// populated — the properties Coconut-Tree gets from sortable summarizations.
//
// The tree above the leaves is a flat directory kept in main memory (the
// standard assumption for data series indexes, §3.1: summarizations are ~1%
// of the data): one entry per leaf, in key order, with its page, record
// count, page stamp and separator. The caller persists it (Leaves) and hands
// it back on Open; the leaf file holds pages only. That file is a
// storage.ChecksumFile with one CRC32-C-guarded block per page, so a flipped
// bit on disk surfaces as ErrCorruptPage, never as a silently wrong page.
//
// Top-down inserts with median splits are supported for the update
// experiments (Figure 10a). They rewrite pages in place, so every page
// header carries a stamp that its directory entry records, and every page
// written after a Sync is stamped past the entries that Sync made durable:
// read against a directory it does not match, a page fails with
// ErrCorruptPage.
//
// # Concurrency
//
// A Tree is safe for any number of concurrent READERS (ReadLeaf, ScanAll,
// Leaves, ...): the read path never touches shared mutable state — ReadLeaf
// draws scratch pages from an internal pool, and the single-page write-back
// cache is consulted under a mutex but only populated by writers. Mutations
// (Insert, Sync, Close, DropCache) require exclusive access; callers that
// interleave them with reads must serialize externally (core.TreeIndex
// does, with a handle-level RWMutex).
package bptree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/storage"
)

// Config parameterizes a tree.
type Config struct {
	// FS hosts the leaf file.
	FS storage.FS
	// Name is the base file name ("<Name>.leaves").
	Name string
	// RecordSize is the fixed record size in bytes.
	RecordSize int
	// KeyLen is the number of leading record bytes that form the key;
	// keys compare with bytes.Compare.
	KeyLen int
	// LeafCap is the maximum number of records per leaf page (the paper's
	// leaf size, 2000 by default in the evaluation).
	LeafCap int
	// FillFactor is the bulk-load leaf fill in (0,1]; 1.0 packs leaves
	// completely ("as compactly as possible", §3.1). Inserting later into
	// full leaves causes median splits.
	FillFactor float64
}

func (c *Config) validate() error {
	switch {
	case c.FS == nil:
		return errors.New("bptree: nil FS")
	case c.Name == "":
		return errors.New("bptree: empty name")
	case c.RecordSize <= 0:
		return errors.New("bptree: record size must be positive")
	case c.KeyLen <= 0 || c.KeyLen > c.RecordSize:
		return errors.New("bptree: key length must be in [1, record size]")
	case c.LeafCap <= 1:
		return errors.New("bptree: leaf capacity must exceed 1")
	}
	if c.FillFactor <= 0 || c.FillFactor > 1 {
		c.FillFactor = 1
	}
	return nil
}

// ErrCorruptPage reports a leaf page that cannot be produced intact: a
// checksum mismatch, a page whose count or stamp differs from its directory
// entry, or a leaf file shorter than the directory claims. It wraps
// storage.ErrCorruptData so callers can match either.
var ErrCorruptPage = fmt.Errorf("bptree: corrupt page: %w", storage.ErrCorruptData)

// Leaf page layout: count uint32 | stamp uint32 | records.
const pageHeader = 4 + 4

func (c Config) pageSize() int64 { return int64(pageHeader + c.RecordSize*c.LeafCap) }

// leafFileName returns the on-device file holding the leaves.
func (c Config) leafFileName() string { return c.Name + ".leaves" }

// Leaf is one entry of the leaf directory.
type Leaf struct {
	// Page is the leaf's page id: its page starts Page page sizes into the
	// leaf file. Pages are never freed, so a tree of n leaves uses pages
	// [0, n).
	Page int64
	// Count is the number of records on the page.
	Count int
	// Stamp is the stamp the page was last written with.
	Stamp uint32
	// Sep is the leaf's first key. The separators of leaves 1…n−1 route
	// keys (findLeaf): every key of a leaf is <= the next leaf's separator.
	Sep []byte
}

// Tree is a leaf file plus its in-memory directory.
type Tree struct {
	cfg   Config
	f     storage.File
	count int64
	// dir lists the leaves in key order.
	dir []Leaf
	// stamp is written into every page header and directory entry this
	// handle writes; it exceeds every stamp the last Sync made durable.
	stamp uint32
	// single-page write-back cache: batch inserts sorted by key hit the
	// same page repeatedly, which is exactly the locality Coconut's batch
	// updates exploit (Figure 10a). Only the insert path populates and
	// mutates it (partly outside cacheMu — writers rely on the package
	// contract that no reads run concurrently with mutations). Readers
	// peek at it under cacheMu so that a read FOLLOWING an insert on the
	// same handle sees the not-yet-flushed dirty page; reader-vs-reader,
	// the cache is never written, so the read path stays race-free.
	cacheMu    sync.Mutex
	cachePage  int64
	cacheBuf   []byte
	cacheDirty bool
	// pagePool recycles page-sized scratch buffers for the read path.
	pagePool sync.Pool
}

// firstStamp is the stamp of a bulk-loaded page.
const firstStamp uint32 = 1

// newTree wraps the leaf file f described by dir. Its stamp starts past
// every stamp in dir.
func newTree(cfg Config, f storage.File, dir []Leaf) *Tree {
	t := &Tree{cfg: cfg, f: f, dir: dir, stamp: firstStamp, cachePage: -1}
	for _, l := range dir {
		t.count += int64(l.Count)
		t.stamp = max(t.stamp, l.Stamp+1)
	}
	size := cfg.pageSize()
	t.pagePool.New = func() any { return make([]byte, size) }
	return t
}

// Loader bulk-loads a tree bottom-up from the external sort's output: Wrap
// is the sort's WrapOut, so the sorted record stream is packed straight into
// consecutive leaf pages, filled to the fill factor, with one sequential
// write, and Leaves is their directory once the sort has returned.
type Loader struct {
	cfg Config
	dir []Leaf
}

// NewLoader validates cfg for a bulk load.
func NewLoader(cfg Config) (*Loader, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Loader{cfg: cfg}, nil
}

// Leaves returns the directory of the pages the load wrote: Open the tree
// over it.
func (l *Loader) Leaves() []Leaf { return l.dir }

// Wrap turns inner, the freshly created leaf file, into the sort's output
// file: the record stream arriving through WriteAt is cut into pages, and
// Close writes the last page and fsyncs the file, so the load is durable
// once the sort returns.
func (l *Loader) Wrap(inner storage.File) (storage.File, error) {
	f, err := storage.CreateChecksumFile(inner, int(l.cfg.pageSize()))
	if err != nil {
		return nil, err
	}
	l.dir = nil
	fill := max(int(float64(l.cfg.LeafCap)*l.cfg.FillFactor), 1)
	return &pageWriter{ChecksumFile: f, l: l, w: storage.NewSequentialWriter(f, 0, 0),
		page: make([]byte, l.cfg.pageSize()), full: fill * l.cfg.RecordSize}, nil
}

// pageWriter is a Loader's output file. The sort only writes and closes it;
// the rest of its surface is the leaf file's own.
type pageWriter struct {
	*storage.ChecksumFile
	l    *Loader
	w    *storage.SequentialWriter
	page []byte
	n    int   // record bytes on the current page
	full int   // record bytes on a page filled to the fill factor
	off  int64 // stream bytes accepted
}

// WriteAt accepts the next bytes of the sorted record stream; record
// boundaries may fall anywhere.
func (p *pageWriter) WriteAt(b []byte, off int64) (int, error) {
	if off != p.off {
		return 0, fmt.Errorf("bptree: bulk-load write at %d, want %d", off, p.off)
	}
	n := len(b)
	for len(b) > 0 {
		c := copy(p.page[pageHeader+p.n:pageHeader+p.full], b)
		p.n += c
		b = b[c:]
		if p.n == p.full {
			if err := p.emit(); err != nil {
				return 0, err
			}
		}
	}
	p.off += int64(n)
	return n, nil
}

// emit writes the current page, if it holds records, and enters it in the
// directory.
func (p *pageWriter) emit() error {
	if p.n == 0 {
		return nil
	}
	cfg := p.l.cfg
	count := p.n / cfg.RecordSize
	binary.LittleEndian.PutUint32(p.page, uint32(count))
	binary.LittleEndian.PutUint32(p.page[4:], firstStamp)
	if _, err := p.w.Write(p.page); err != nil {
		return err
	}
	p.l.dir = append(p.l.dir, Leaf{Page: int64(len(p.l.dir)), Count: count, Stamp: firstStamp,
		Sep: bytes.Clone(p.page[pageHeader : pageHeader+cfg.KeyLen])})
	clear(p.page)
	p.n = 0
	return nil
}

// Close writes the last page, fsyncs the leaf file and closes it.
func (p *pageWriter) Close() error {
	err := p.finish()
	return errors.Join(err, p.ChecksumFile.Close())
}

func (p *pageWriter) finish() error {
	if tail := p.n % p.l.cfg.RecordSize; tail != 0 {
		return fmt.Errorf("bptree: bulk-load input ends %d bytes into a record", tail)
	}
	if err := p.emit(); err != nil {
		return err
	}
	if err := p.w.Flush(); err != nil {
		return err
	}
	return p.ChecksumFile.Sync()
}

// Open reopens the leaf file of a tree whose directory dir (Leaves, as of
// the last Sync) the caller kept; the tree takes ownership of dir. Pages are
// checked against their entries as they are read.
func Open(cfg Config, dir []Leaf) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inner, err := cfg.FS.Open(cfg.leafFileName())
	if err != nil {
		return nil, err
	}
	f, err := storage.OpenChecksumFile(inner)
	if err == nil && int64(f.BlockSize()) != cfg.pageSize() {
		err = fmt.Errorf("%d-byte blocks, pages are %d bytes", f.BlockSize(), cfg.pageSize())
	}
	if err != nil {
		inner.Close()
		return nil, fmt.Errorf("bptree: open %q: %w: %w", cfg.leafFileName(), ErrCorruptPage, err)
	}
	return newTree(cfg, f, dir), nil
}

// Verify checks the leaf file of the tree cfg names against its directory
// dir: the CRC of every page, then each entry's page — present, with the
// entry's count and stamp. It returns the number of pages in the file.
func Verify(cfg Config, dir []Leaf) (int64, error) {
	f, err := cfg.FS.Open(cfg.leafFileName())
	if err != nil {
		return 0, err
	}
	pages, err := storage.VerifyChecksumBlocks(f)
	f.Close()
	if err != nil {
		return pages, err
	}
	t, err := Open(cfg, dir)
	if err != nil {
		return pages, err
	}
	defer t.Close()
	return pages, t.ScanAll(func([]byte) error { return nil })
}

// Count returns the number of records in the tree.
func (t *Tree) Count() int64 { return t.count }

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int { return len(t.dir) }

// Leaves returns the leaf directory in key order (do not mutate). After a
// Sync it describes durable pages, and is what the caller commits.
func (t *Tree) Leaves() []Leaf { return t.dir }

// AvgLeafFill returns the mean leaf occupancy in [0,1] — Coconut-Tree's
// headline space property (97% in the paper vs ~10% for prefix splitting).
func (t *Tree) AvgLeafFill() float64 {
	if len(t.dir) == 0 {
		return 0
	}
	return float64(t.count) / float64(len(t.dir)*t.cfg.LeafCap)
}

// SizeBytes returns the on-device size of the leaf file.
func (t *Tree) SizeBytes() int64 {
	size, err := t.f.Size()
	if err != nil {
		return 0
	}
	return size
}

// Sync writes the cached page back and fsyncs the leaf file. Leaves then
// describes durable pages, and later writes carry a new stamp, so none of
// them matches an entry this Sync lets the caller commit.
func (t *Tree) Sync() error {
	if err := t.flushCache(); err != nil {
		return err
	}
	if err := t.f.Sync(); err != nil {
		return err
	}
	t.stamp++
	return nil
}

// Close flushes the page cache and releases the leaf file.
func (t *Tree) Close() error {
	if err := t.flushCache(); err != nil {
		return err
	}
	return t.f.Close()
}

// --- page access ---------------------------------------------------------

func (t *Tree) pageOffset(id int64) int64 { return id * t.cfg.pageSize() }

// readPage copies the page of leaf li into dst (len >= pageSize) without
// mutating any shared state, which makes it safe for concurrent readers
// (absent concurrent mutations — the package contract). A dirty page left in
// the write-back cache by a PRIOR insert is served from there so reads on
// the same handle never observe a stale on-device copy.
func (t *Tree) readPage(li int, dst []byte) error {
	l := t.dir[li]
	t.cacheMu.Lock()
	if l.Page == t.cachePage {
		copy(dst, t.cacheBuf)
		t.cacheMu.Unlock()
		return nil
	}
	t.cacheMu.Unlock()
	n, err := t.f.ReadAt(dst[:t.cfg.pageSize()], t.pageOffset(l.Page))
	if int64(n) != t.cfg.pageSize() {
		return pageReadError(l.Page, err)
	}
	return checkPage(l, dst)
}

// pageReadError types a failed page read: EOF-shaped short reads mean the
// leaf file is shorter than the directory claims and checksum mismatches
// mean rot — both corruption; anything else is a device error passed
// through for the retry layer to judge.
func pageReadError(id int64, err error) error {
	switch {
	case err == nil, errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("bptree: read page %d: truncated leaf file: %w", id, ErrCorruptPage)
	case errors.Is(err, storage.ErrCorruptData):
		return fmt.Errorf("bptree: read page %d: %w: %w", id, ErrCorruptPage, err)
	default:
		return fmt.Errorf("bptree: read page %d: %w", id, err)
	}
}

// checkPage fails unless page is the one directory entry l describes: a
// page written after the directory was committed carries a later stamp.
func checkPage(l Leaf, page []byte) error {
	if n, s := int(binary.LittleEndian.Uint32(page)), binary.LittleEndian.Uint32(page[4:]); n != l.Count || s != l.Stamp {
		return fmt.Errorf("bptree: page %d holds %d records stamped %d, its directory entry %d stamped %d: %w",
			l.Page, n, s, l.Count, l.Stamp, ErrCorruptPage)
	}
	return nil
}

// setHeader writes a page header: count records, the tree's stamp.
func (t *Tree) setHeader(page []byte, count int) {
	binary.LittleEndian.PutUint32(page, uint32(count))
	binary.LittleEndian.PutUint32(page[4:], t.stamp)
}

// loadPage returns the page of leaf li via the write-back cache. Mutating
// paths only: callers may write into the returned buffer and mark the cache
// dirty, so they must have exclusive access to the tree.
func (t *Tree) loadPage(li int) ([]byte, error) {
	l := t.dir[li]
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	if l.Page == t.cachePage {
		return t.cacheBuf, nil
	}
	if err := t.flushCacheLocked(); err != nil {
		return nil, err
	}
	if t.cacheBuf == nil {
		t.cacheBuf = make([]byte, t.cfg.pageSize())
	}
	t.cachePage = -1
	n, err := t.f.ReadAt(t.cacheBuf, t.pageOffset(l.Page))
	if int64(n) != t.cfg.pageSize() {
		return nil, pageReadError(l.Page, err)
	}
	if err := checkPage(l, t.cacheBuf); err != nil {
		return nil, err
	}
	t.cachePage = l.Page
	t.cacheDirty = false
	return t.cacheBuf, nil
}

func (t *Tree) flushCache() error {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	return t.flushCacheLocked()
}

func (t *Tree) flushCacheLocked() error {
	if t.cacheDirty && t.cachePage >= 0 {
		if _, err := t.f.WriteAt(t.cacheBuf, t.pageOffset(t.cachePage)); err != nil {
			return fmt.Errorf("bptree: write page %d: %w", t.cachePage, err)
		}
	}
	t.cacheDirty = false
	return nil
}

// DropCache flushes and invalidates the page cache — used by experiments to
// model a cold start between construction and querying.
func (t *Tree) DropCache() error {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	if err := t.flushCacheLocked(); err != nil {
		return err
	}
	t.cachePage = -1
	return nil
}

func (t *Tree) record(page []byte, i int) []byte {
	off := pageHeader + i*t.cfg.RecordSize
	return page[off : off+t.cfg.RecordSize]
}

// --- search --------------------------------------------------------------

// findLeaf returns the directory position of the leaf where key's first
// occurrence can live: the number of separators of leaves 1…n−1 below key.
// With duplicate keys spanning a leaf boundary (left leaf ends with k, right
// leaf starts with k, separator k), this is the LEFT leaf, so Insert keeps
// "left <= separator <= right" intact.
func (t *Tree) findLeaf(key []byte) int {
	return sort.Search(len(t.dir)-1, func(i int) bool { return bytes.Compare(t.dir[i+1].Sep, key) >= 0 })
}

// ScanAll streams every record in key order through fn: one pass over the
// leaves in directory order.
func (t *Tree) ScanAll(fn func(rec []byte) error) error {
	page := make([]byte, t.cfg.pageSize())
	for li, l := range t.dir {
		if err := t.readPage(li, page); err != nil {
			return err
		}
		for i := 0; i < l.Count; i++ {
			if err := fn(t.record(page, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadLeaf copies the records of leaf li (a directory position) into buf
// (which must hold Leaves()[li].Count*RecordSize bytes) and returns the
// record count. It is safe for concurrent callers: the page is staged in a
// pooled scratch buffer, never in shared tree state.
func (t *Tree) ReadLeaf(li int, buf []byte) (int, error) {
	page := t.pagePool.Get().([]byte)
	defer t.pagePool.Put(page)
	if err := t.readPage(li, page); err != nil {
		return 0, err
	}
	n := t.dir[li].Count
	copy(buf, page[pageHeader:pageHeader+n*t.cfg.RecordSize])
	return n, nil
}

// --- insert --------------------------------------------------------------

// Insert adds one record, splitting leaves at the median on overflow (§3.2,
// "Median-Based Splitting"): the upper half moves to a new page appended at
// the end of the leaf file, and its directory entry follows the split
// leaf's. Both split halves are at least half full, preserving the storage
// bound of O(N/B) blocks.
func (t *Tree) Insert(rec []byte) error {
	if len(rec) != t.cfg.RecordSize {
		return fmt.Errorf("bptree: record size %d, want %d", len(rec), t.cfg.RecordSize)
	}
	key := rec[:t.cfg.KeyLen]
	if len(t.dir) == 0 {
		// First record: leaf 0.
		page := make([]byte, t.cfg.pageSize())
		t.setHeader(page, 1)
		copy(page[pageHeader:], rec)
		if _, err := t.f.WriteAt(page, 0); err != nil {
			return err
		}
		t.dir = []Leaf{{Page: 0, Count: 1, Stamp: t.stamp, Sep: bytes.Clone(key)}}
		t.count = 1
		return nil
	}
	li := t.findLeaf(key)
	page, err := t.loadPage(li)
	if err != nil {
		return err
	}
	l := &t.dir[li]
	rs := t.cfg.RecordSize
	if l.Count < t.cfg.LeafCap {
		// Shift and insert in place.
		pos := sort.Search(l.Count, func(i int) bool { return bytes.Compare(t.record(page, i)[:t.cfg.KeyLen], key) >= 0 })
		start, end := pageHeader+pos*rs, pageHeader+l.Count*rs
		copy(page[start+rs:end+rs], page[start:end])
		copy(page[start:], rec)
		if pos == 0 {
			l.Sep = bytes.Clone(key) // only the first leaf takes keys below its separator
		}
		l.Count++
		l.Stamp = t.stamp
		t.setHeader(page, l.Count)
		t.cacheDirty = true
		t.count++
		return nil
	}

	// Median split: keep the lower half, move the upper half to a new page.
	mid := l.Count / 2
	upper := Leaf{Page: int64(len(t.dir)), Count: l.Count - mid, Stamp: t.stamp,
		Sep: bytes.Clone(t.record(page, mid)[:t.cfg.KeyLen])}
	newPage := make([]byte, t.cfg.pageSize())
	t.setHeader(newPage, upper.Count)
	copy(newPage[pageHeader:], page[pageHeader+mid*rs:pageHeader+l.Count*rs])
	if _, err := t.f.WriteAt(newPage, t.pageOffset(upper.Page)); err != nil {
		return err
	}
	l.Count, l.Stamp = mid, t.stamp
	t.setHeader(page, mid)
	t.cacheDirty = true
	t.dir = slices.Insert(t.dir, li+1, upper)

	// Retry the insert; it lands in one of the two half-full pages.
	return t.Insert(rec)
}
