// Package bptree implements a disk-resident B+-tree over fixed-size
// records, bulk-loaded bottom-up from sorted input in the style of the
// UB-tree loading algorithm the paper relies on (Algorithm 3): leaves are
// packed to a configurable fill factor and written as one contiguous
// sequential stream, then the internal levels are built on top. The result
// is balanced, contiguous, and densely populated — the three properties
// Coconut-Tree gets from sortable summarizations.
//
// Internal nodes are kept in main memory (the standard assumption for data
// series indexes, §3.1: summarizations are ~1% of the data) and can be
// persisted/reloaded; leaves live in a paged file on the storage VFS, so
// every leaf access shows up in the I/O statistics. That file is a
// storage.ChecksumFile with one CRC32-C-guarded block per page, so a
// flipped bit on disk surfaces as ErrCorruptPage, never as a silently
// wrong page.
//
// Top-down inserts with median splits are supported for the update
// experiments (Figure 10a).
//
// # Concurrency
//
// A Tree is safe for any number of concurrent READERS (Seek, cursors,
// ReadLeaf, ScanAll, LeafDir, ...): the read path never touches shared
// mutable state — cursors own their page buffers, ReadLeaf draws scratch
// pages from an internal pool, and the single-page write-back cache is
// consulted under a mutex but only populated by writers. Mutations
// (Insert, Save, Close, DropCache) require exclusive access; callers that
// interleave them with reads must serialize externally (core.TreeIndex
// does, with a handle-level RWMutex).
package bptree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/storage"
)

// RecordSource yields fixed-size records in key order; Next returns io.EOF
// at the end. extsort.RecordReader satisfies it.
type RecordSource interface {
	Next() ([]byte, error)
}

// Config parameterizes a tree.
type Config struct {
	// FS hosts the leaf file.
	FS storage.FS
	// Name is the base file name ("<Name>.leaves" and "<Name>.meta").
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
	// Fanout is the internal node fan-out (default 64).
	Fanout int
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
	if c.Fanout < 2 {
		c.Fanout = 64
	}
	return nil
}

// ErrCorruptPage reports a leaf page that cannot be produced intact: a
// checksum mismatch, a page id outside the allocated range, or a leaf file
// shorter than the page directory claims. It wraps storage.ErrCorruptData
// so callers can match either.
var ErrCorruptPage = fmt.Errorf("bptree: corrupt page: %w", storage.ErrCorruptData)

// Leaf page layout: count uint32 | next int64 | prev int64 | records.
const pageHeader = 4 + 8 + 8

func (c Config) pageSize() int64 { return int64(pageHeader + c.RecordSize*c.LeafCap) }

// node is an in-memory internal node. level 1 nodes point at leaf pages;
// higher levels point at other nodes. keys[i] is the smallest key reachable
// under child i+1 (len(keys) == len(children)-1).
type node struct {
	level    int
	keys     [][]byte
	children []*node // level > 1
	leafIDs  []int64 // level == 1
}

func (n *node) width() int {
	if n.level == 1 {
		return len(n.leafIDs)
	}
	return len(n.children)
}

// Tree is a B+-tree handle.
type Tree struct {
	cfg   Config
	f     storage.File
	root  *node
	count int64
	// leafDir lists the leaves in chain (key) order with their live record
	// counts — the in-memory leaf directory used for skip-sequential scans.
	leafDir []int64
	leafCnt map[int64]int
	// leafSep[id] is a valid separator for leaf id: every key in earlier
	// leaves is < it, every key in id and later leaves is >= it (except the
	// leftmost leaf, which can absorb smaller keys). Used to rebuild the
	// internal levels on Open.
	leafSep  map[int64][]byte
	nextPage int64
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

// initPagePool wires the scratch-page pool; called by both constructors.
func (t *Tree) initPagePool() {
	size := t.cfg.pageSize()
	t.pagePool.New = func() any { return make([]byte, size) }
}

// leafFileName returns the on-device file holding the leaves.
func (c Config) leafFileName() string { return c.Name + ".leaves" }

// metaFileName returns the on-device file holding meta + internal nodes.
func (c Config) metaFileName() string { return c.Name + ".meta" }

// BulkLoad builds a tree bottom-up from records in key order. Input order
// is validated; out-of-order input is an error (the caller sorts first —
// that is the whole point of sortable summarizations).
func BulkLoad(cfg Config, src RecordSource) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inner, err := cfg.FS.Create(cfg.leafFileName())
	if err != nil {
		return nil, err
	}
	f, err := storage.CreateChecksumFile(inner, int(cfg.pageSize()))
	if err != nil {
		inner.Close()
		return nil, err
	}
	t := &Tree{cfg: cfg, f: f, leafCnt: make(map[int64]int), leafSep: make(map[int64][]byte), cachePage: -1}
	t.initPagePool()

	fill := int(float64(cfg.LeafCap) * cfg.FillFactor)
	if fill < 1 {
		fill = 1
	}

	w := storage.NewSequentialWriter(f, 0, 0)
	page := make([]byte, cfg.pageSize())
	inPage := 0
	var firstKeys [][]byte
	var prevKey []byte

	flush := func(last bool) error {
		if inPage == 0 {
			return nil
		}
		id := t.nextPage
		next := int64(-1)
		if !last {
			next = id + 1
		}
		binary.LittleEndian.PutUint32(page[0:], uint32(inPage))
		binary.LittleEndian.PutUint64(page[4:], uint64(next))
		binary.LittleEndian.PutUint64(page[12:], uint64(id-1)) // prev; -1 for first
		if _, err := w.Write(page); err != nil {
			return err
		}
		t.leafDir = append(t.leafDir, id)
		t.leafCnt[id] = inPage
		t.nextPage++
		key := make([]byte, cfg.KeyLen)
		copy(key, page[pageHeader:pageHeader+cfg.KeyLen])
		firstKeys = append(firstKeys, key)
		t.leafSep[id] = key
		for i := range page {
			page[i] = 0
		}
		inPage = 0
		return nil
	}

	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("bptree: bulk load input: %w", err)
		}
		if len(rec) != cfg.RecordSize {
			f.Close()
			return nil, fmt.Errorf("bptree: record size %d, want %d", len(rec), cfg.RecordSize)
		}
		if prevKey != nil && bytes.Compare(rec[:cfg.KeyLen], prevKey) < 0 {
			f.Close()
			return nil, errors.New("bptree: bulk load input not sorted")
		}
		prevKey = append(prevKey[:0], rec[:cfg.KeyLen]...)
		copy(page[pageHeader+inPage*cfg.RecordSize:], rec)
		inPage++
		t.count++
		if inPage == fill {
			if err := flush(false); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if err := flush(true); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	// Fix the next pointer of the final page (it was written assuming a
	// successor when it filled exactly at the boundary).
	if len(t.leafDir) > 0 {
		if err := t.setNextPtr(t.leafDir[len(t.leafDir)-1], -1); err != nil {
			f.Close()
			return nil, err
		}
	}
	t.buildInternal(firstKeys)
	return t, nil
}

// buildInternal constructs the in-memory levels bottom-up.
func (t *Tree) buildInternal(firstKeys [][]byte) {
	if len(t.leafDir) == 0 {
		t.root = &node{level: 1}
		return
	}
	// Level 1: group leaves.
	var level []*node
	var levelKeys [][]byte
	for lo := 0; lo < len(t.leafDir); lo += t.cfg.Fanout {
		hi := lo + t.cfg.Fanout
		if hi > len(t.leafDir) {
			hi = len(t.leafDir)
		}
		n := &node{level: 1, leafIDs: append([]int64(nil), t.leafDir[lo:hi]...)}
		for i := lo + 1; i < hi; i++ {
			n.keys = append(n.keys, firstKeys[i])
		}
		level = append(level, n)
		levelKeys = append(levelKeys, firstKeys[lo])
	}
	lvl := 2
	for len(level) > 1 {
		var up []*node
		var upKeys [][]byte
		for lo := 0; lo < len(level); lo += t.cfg.Fanout {
			hi := lo + t.cfg.Fanout
			if hi > len(level) {
				hi = len(level)
			}
			n := &node{level: lvl, children: append([]*node(nil), level[lo:hi]...)}
			for i := lo + 1; i < hi; i++ {
				n.keys = append(n.keys, levelKeys[i])
			}
			up = append(up, n)
			upKeys = append(upKeys, levelKeys[lo])
		}
		level, levelKeys = up, upKeys
		lvl++
	}
	t.root = level[0]
}

// Count returns the number of records in the tree.
func (t *Tree) Count() int64 { return t.count }

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int { return len(t.leafDir) }

// Height returns the number of levels including the leaf level.
func (t *Tree) Height() int {
	if t.root == nil {
		return 0
	}
	return t.root.level + 1
}

// AvgLeafFill returns the mean leaf occupancy in [0,1] — Coconut-Tree's
// headline space property (97% in the paper vs ~10% for prefix splitting).
func (t *Tree) AvgLeafFill() float64 {
	if len(t.leafDir) == 0 {
		return 0
	}
	total := 0
	for _, id := range t.leafDir {
		total += t.leafCnt[id]
	}
	return float64(total) / float64(len(t.leafDir)*t.cfg.LeafCap)
}

// SizeBytes returns the on-device size of the index (leaf file; internal
// nodes add their serialized size after Save).
func (t *Tree) SizeBytes() int64 {
	size, err := t.f.Size()
	if err != nil {
		return 0
	}
	return size
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

// readPage copies page id into dst (len >= pageSize) without mutating any
// shared state, which makes it safe for concurrent readers (absent
// concurrent mutations — the package contract). A dirty page left in the
// write-back cache by a PRIOR insert is served from there so reads on the
// same handle never observe a stale on-device copy.
func (t *Tree) readPage(id int64, dst []byte) error {
	if id < 0 || id >= t.nextPage {
		return fmt.Errorf("bptree: read page %d: outside allocated range [0,%d): %w", id, t.nextPage, ErrCorruptPage)
	}
	t.cacheMu.Lock()
	if id == t.cachePage && t.cacheBuf != nil {
		copy(dst, t.cacheBuf)
		t.cacheMu.Unlock()
		return nil
	}
	t.cacheMu.Unlock()
	n, err := t.f.ReadAt(dst[:t.cfg.pageSize()], t.pageOffset(id))
	if int64(n) != t.cfg.pageSize() {
		return pageReadError(id, err)
	}
	return nil
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

// loadPage returns page id via the write-back cache. Mutating paths only:
// callers may write into the returned buffer and mark the cache dirty, so
// they must have exclusive access to the tree.
func (t *Tree) loadPage(id int64) ([]byte, error) {
	if id < 0 || id >= t.nextPage {
		return nil, fmt.Errorf("bptree: read page %d: outside allocated range [0,%d): %w", id, t.nextPage, ErrCorruptPage)
	}
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	if id == t.cachePage {
		return t.cacheBuf, nil
	}
	if err := t.flushCacheLocked(); err != nil {
		return nil, err
	}
	if t.cacheBuf == nil {
		t.cacheBuf = make([]byte, t.cfg.pageSize())
	}
	n, err := t.f.ReadAt(t.cacheBuf, t.pageOffset(id))
	if int64(n) != t.cfg.pageSize() {
		return nil, pageReadError(id, err)
	}
	t.cachePage = id
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

func pageCount(page []byte) int         { return int(binary.LittleEndian.Uint32(page[0:])) }
func pageNext(page []byte) int64        { return int64(binary.LittleEndian.Uint64(page[4:])) }
func pagePrev(page []byte) int64        { return int64(binary.LittleEndian.Uint64(page[12:])) }
func setPageCount(page []byte, n int)   { binary.LittleEndian.PutUint32(page[0:], uint32(n)) }
func setPageNext(page []byte, id int64) { binary.LittleEndian.PutUint64(page[4:], uint64(id)) }
func setPagePrev(page []byte, id int64) { binary.LittleEndian.PutUint64(page[12:], uint64(id)) }

func (t *Tree) record(page []byte, i int) []byte {
	off := pageHeader + i*t.cfg.RecordSize
	return page[off : off+t.cfg.RecordSize]
}

func (t *Tree) setNextPtr(id, next int64) error {
	page, err := t.loadPage(id)
	if err != nil {
		return err
	}
	setPageNext(page, next)
	t.cacheDirty = true
	return nil
}

// --- search --------------------------------------------------------------

// findLeaf descends to the leaf page where key's first occurrence can live.
// The descent takes child i for the first separator >= key: with duplicate
// keys spanning a leaf boundary (left leaf ends with k, right leaf starts
// with k, separator k), this lands on the LEFT leaf, so Seek finds the
// first occurrence and Insert keeps "left <= separator <= right" intact.
func (t *Tree) findLeaf(key []byte) int64 {
	n := t.root
	for {
		idx := sort.Search(len(n.keys), func(i int) bool {
			return bytes.Compare(n.keys[i], key) >= 0
		})
		if n.level == 1 {
			return n.leafIDs[idx]
		}
		n = n.children[idx]
	}
}

// Cursor iterates records in key order. It holds a private copy of the
// current page, so it remains valid across cache evictions.
type Cursor struct {
	t     *Tree
	page  []byte
	id    int64
	idx   int
	valid bool
}

// Seek positions a cursor at the first record with key >= key, or at the
// end (invalid cursor) when no such record exists.
func (t *Tree) Seek(key []byte) (*Cursor, error) {
	if t.count == 0 {
		return &Cursor{t: t}, nil
	}
	id := t.findLeaf(key)
	c := &Cursor{t: t}
	if err := c.loadLeaf(id); err != nil {
		return nil, err
	}
	n := pageCount(c.page)
	c.idx = sort.Search(n, func(i int) bool {
		return bytes.Compare(c.t.record(c.page, i)[:t.cfg.KeyLen], key) >= 0
	})
	c.valid = true
	if c.idx == n {
		// Key is past this leaf; move to the next one.
		if err := c.Next(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SeekFirst positions at the smallest record.
func (t *Tree) SeekFirst() (*Cursor, error) {
	if len(t.leafDir) == 0 {
		return &Cursor{t: t}, nil
	}
	c := &Cursor{t: t}
	if err := c.loadLeaf(t.leafDir[0]); err != nil {
		return nil, err
	}
	c.valid = pageCount(c.page) > 0
	return c, nil
}

func (c *Cursor) loadLeaf(id int64) error {
	if c.page == nil {
		c.page = make([]byte, c.t.cfg.pageSize())
	}
	if err := c.t.readPage(id, c.page); err != nil {
		return err
	}
	c.id = id
	c.idx = 0
	return nil
}

// Valid reports whether the cursor points at a record.
func (c *Cursor) Valid() bool { return c.valid }

// Record returns the current record (valid until the cursor moves off the
// current page).
func (c *Cursor) Record() []byte { return c.t.record(c.page, c.idx) }

// Key returns the current record's key.
func (c *Cursor) Key() []byte { return c.Record()[:c.t.cfg.KeyLen] }

// LeafID returns the page id under the cursor.
func (c *Cursor) LeafID() int64 { return c.id }

// Next advances to the following record, moving across leaf pages via the
// chain pointers; the cursor becomes invalid at the end.
func (c *Cursor) Next() error {
	if !c.valid && c.page == nil {
		return nil
	}
	c.idx++
	for c.idx >= pageCount(c.page) {
		next := pageNext(c.page)
		if next < 0 {
			c.valid = false
			return nil
		}
		if err := c.loadLeaf(next); err != nil {
			return err
		}
	}
	c.valid = true
	return nil
}

// Prev moves to the preceding record; the cursor becomes invalid before the
// start.
func (c *Cursor) Prev() error {
	if c.page == nil {
		return nil
	}
	c.idx--
	for c.idx < 0 {
		prev := pagePrev(c.page)
		if prev < 0 {
			c.valid = false
			return nil
		}
		if err := c.loadLeaf(prev); err != nil {
			return err
		}
		c.idx = pageCount(c.page) - 1
	}
	c.valid = true
	return nil
}

// ScanAll streams every record in key order through fn. The traversal is
// one sequential pass over the chained leaves.
func (t *Tree) ScanAll(fn func(rec []byte) error) error {
	c, err := t.SeekFirst()
	if err != nil {
		return err
	}
	for c.Valid() {
		if err := fn(c.Record()); err != nil {
			return err
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

// LeafDir exposes the leaf page ids in key order (do not mutate). Combined
// with LeafRecordCount it drives skip-sequential scans.
func (t *Tree) LeafDir() []int64 { return t.leafDir }

// LeafRecordCount returns the number of live records in leaf id.
func (t *Tree) LeafRecordCount(id int64) int { return t.leafCnt[id] }

// ReadLeaf copies the records of leaf id into buf (which must hold
// LeafRecordCount(id)*RecordSize bytes) and returns the record count. It is
// safe for concurrent callers: the page is staged in a pooled scratch
// buffer, never in shared tree state.
func (t *Tree) ReadLeaf(id int64, buf []byte) (int, error) {
	page := t.pagePool.Get().([]byte)
	defer t.pagePool.Put(page)
	if err := t.readPage(id, page); err != nil {
		return 0, err
	}
	n := pageCount(page)
	copy(buf, page[pageHeader:pageHeader+n*t.cfg.RecordSize])
	return n, nil
}

// --- insert --------------------------------------------------------------

// Insert adds one record, splitting leaves at the median on overflow (§3.2,
// "Median-Based Splitting"): the upper half moves to a new page appended at
// the end of the leaf file, and the parent gains a separator. Both split
// halves are at least half full, preserving the storage bound of O(N/B)
// blocks.
func (t *Tree) Insert(rec []byte) error {
	if len(rec) != t.cfg.RecordSize {
		return fmt.Errorf("bptree: record size %d, want %d", len(rec), t.cfg.RecordSize)
	}
	if t.count == 0 {
		// First record: create leaf 0 and a root.
		page := make([]byte, t.cfg.pageSize())
		setPageCount(page, 1)
		setPageNext(page, -1)
		setPagePrev(page, -1)
		copy(page[pageHeader:], rec)
		if _, err := t.f.WriteAt(page, 0); err != nil {
			return err
		}
		t.nextPage = 1
		t.leafDir = []int64{0}
		t.leafCnt[0] = 1
		sep := make([]byte, t.cfg.KeyLen)
		copy(sep, rec[:t.cfg.KeyLen])
		t.leafSep[0] = sep
		t.root = &node{level: 1, leafIDs: []int64{0}}
		t.count = 1
		return nil
	}
	key := rec[:t.cfg.KeyLen]
	// Descend, remembering the path for separator insertion.
	var path []pathStep
	n := t.root
	for {
		idx := sort.Search(len(n.keys), func(i int) bool {
			return bytes.Compare(n.keys[i], key) >= 0
		})
		path = append(path, pathStep{n, idx})
		if n.level == 1 {
			break
		}
		n = n.children[idx]
	}
	leafStep := path[len(path)-1]
	leafID := leafStep.n.leafIDs[leafStep.idx]

	page, err := t.loadPage(leafID)
	if err != nil {
		return err
	}
	cnt := pageCount(page)
	pos := sort.Search(cnt, func(i int) bool {
		return bytes.Compare(t.record(page, i)[:t.cfg.KeyLen], key) >= 0
	})
	if cnt < t.cfg.LeafCap {
		// Shift and insert in place.
		start := pageHeader + pos*t.cfg.RecordSize
		end := pageHeader + cnt*t.cfg.RecordSize
		copy(page[start+t.cfg.RecordSize:end+t.cfg.RecordSize], page[start:end])
		copy(page[start:], rec)
		setPageCount(page, cnt+1)
		t.cacheDirty = true
		t.leafCnt[leafID] = cnt + 1
		t.count++
		return nil
	}

	// Median split: keep the lower half, move the upper half to a new page.
	mid := cnt / 2
	newID := t.nextPage
	t.nextPage++
	newPage := make([]byte, t.cfg.pageSize())
	moved := cnt - mid
	copy(newPage[pageHeader:], page[pageHeader+mid*t.cfg.RecordSize:pageHeader+cnt*t.cfg.RecordSize])
	setPageCount(newPage, moved)
	setPageNext(newPage, pageNext(page))
	setPagePrev(newPage, leafID)
	oldNext := pageNext(page)
	setPageCount(page, mid)
	setPageNext(page, newID)
	t.cacheDirty = true
	t.leafCnt[leafID] = mid
	t.leafCnt[newID] = moved

	// Persist the new page (append → sequential-ish but the parent fix-ups
	// below are the random I/Os the paper attributes to top-down inserts).
	if _, err := t.f.WriteAt(newPage, t.pageOffset(newID)); err != nil {
		return err
	}
	if oldNext >= 0 {
		if err := t.setPrevPtr(oldNext, newID); err != nil {
			return err
		}
	}

	// Insert newID into the leaf directory right after leafID.
	sepKey := make([]byte, t.cfg.KeyLen)
	copy(sepKey, newPage[pageHeader:pageHeader+t.cfg.KeyLen])
	t.leafSep[newID] = sepKey
	t.insertLeafDirAfter(leafID, newID)
	t.insertSeparator(path, sepKey, newID)

	// Retry the insert; it lands in one of the two half-full pages.
	return t.Insert(rec)
}

func (t *Tree) setPrevPtr(id, prev int64) error {
	page, err := t.loadPage(id)
	if err != nil {
		return err
	}
	setPagePrev(page, prev)
	t.cacheDirty = true
	return nil
}

func (t *Tree) insertLeafDirAfter(after, id int64) {
	for i, v := range t.leafDir {
		if v == after {
			t.leafDir = append(t.leafDir, 0)
			copy(t.leafDir[i+2:], t.leafDir[i+1:])
			t.leafDir[i+1] = id
			return
		}
	}
	t.leafDir = append(t.leafDir, id)
}

// pathStep records one node visited during a root-to-leaf descent and the
// child index taken.
type pathStep struct {
	n   *node
	idx int
}

// insertSeparator adds (sepKey -> newID) to the level-1 node on the path,
// splitting internal nodes at the median as needed.
func (t *Tree) insertSeparator(path []pathStep, sepKey []byte, newID int64) {
	leafStep := path[len(path)-1]
	n, idx := leafStep.n, leafStep.idx
	n.keys = insertKey(n.keys, idx, sepKey)
	n.leafIDs = insertID(n.leafIDs, idx+1, newID)

	// Propagate splits upward.
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		cur := path[lvl].n
		if cur.width() <= t.cfg.Fanout {
			return
		}
		mid := cur.width() / 2
		right := &node{level: cur.level}
		var upKey []byte
		if cur.level == 1 {
			upKey = cur.keys[mid-1]
			right.keys = append(right.keys, cur.keys[mid:]...)
			right.leafIDs = append(right.leafIDs, cur.leafIDs[mid:]...)
			cur.keys = cur.keys[:mid-1]
			cur.leafIDs = cur.leafIDs[:mid]
		} else {
			upKey = cur.keys[mid-1]
			right.keys = append(right.keys, cur.keys[mid:]...)
			right.children = append(right.children, cur.children[mid:]...)
			cur.keys = cur.keys[:mid-1]
			cur.children = cur.children[:mid]
		}
		if lvl == 0 {
			// New root.
			t.root = &node{
				level:    cur.level + 1,
				keys:     [][]byte{upKey},
				children: []*node{cur, right},
			}
			return
		}
		parent := path[lvl-1].n
		pidx := path[lvl-1].idx
		parent.keys = insertKey(parent.keys, pidx, upKey)
		parent.children = insertChild(parent.children, pidx+1, right)
	}
}

func insertKey(keys [][]byte, idx int, k []byte) [][]byte {
	keys = append(keys, nil)
	copy(keys[idx+1:], keys[idx:])
	keys[idx] = k
	return keys
}

func insertID(ids []int64, idx int, id int64) []int64 {
	ids = append(ids, 0)
	copy(ids[idx+1:], ids[idx:])
	ids[idx] = id
	return ids
}

func insertChild(ch []*node, idx int, n *node) []*node {
	ch = append(ch, nil)
	copy(ch[idx+1:], ch[idx:])
	ch[idx] = n
	return ch
}

// CheckInvariants validates the structural invariants; tests and the
// property suite call this after every mutation batch. It verifies:
// key order within and across leaves, leaf chain consistency, separator
// correctness, uniform leaf depth, and the record count.
func (t *Tree) CheckInvariants() error {
	if t.count == 0 {
		return nil
	}
	// Uniform depth + separator sanity.
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.width() == 0 {
			return errors.New("bptree: empty internal node")
		}
		if len(n.keys) != n.width()-1 {
			return fmt.Errorf("bptree: node level %d has %d keys for width %d", n.level, len(n.keys), n.width())
		}
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(n.keys[i-1], n.keys[i]) > 0 {
				return errors.New("bptree: separators out of order")
			}
		}
		if n.level > 1 {
			for _, c := range n.children {
				if c.level != n.level-1 {
					return errors.New("bptree: uneven levels")
				}
				if err := walk(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	// Chain + global order + count.
	var prev []byte
	var seen int64
	c, err := t.SeekFirst()
	if err != nil {
		return err
	}
	for c.Valid() {
		k := c.Key()
		if prev != nil && bytes.Compare(prev, k) > 0 {
			return errors.New("bptree: records out of order in chain")
		}
		prev = append(prev[:0], k...)
		seen++
		if err := c.Next(); err != nil {
			return err
		}
	}
	if seen != t.count {
		return fmt.Errorf("bptree: chain has %d records, count says %d", seen, t.count)
	}
	return nil
}
