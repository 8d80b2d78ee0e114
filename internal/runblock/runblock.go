// Package runblock is the block-compressed physical layout of sorted LSM
// run files. Sortable invSAX summaries make a run a sorted key file, and
// sorted keys are extremely delta-compressible: consecutive keys share long
// prefixes (front-coding strips them) and positions cluster (zigzag varint
// deltas shrink them). Records are packed into fixed-arity logical blocks,
// each carrying its first key, its record count, and its own CRC; a tiny
// directory (first key + file offset per block) plus a fixed-size footer at
// the end of the file let a reader binary-search the directory and decode
// only the blocks a probe actually touches — so the resident cost of an
// open run is the directory, not the keys.
//
// The format is append-only: blocks stream out first, the directory and
// footer last, so the writer never patches earlier bytes. It is also its
// file's one integrity layer, written straight to the OS file: the header's
// fields are fixed or cross-checked against the footer, each block's CRC
// covers exactly the payload one decode reads, and the footer carries a CRC
// of the directory and one of itself, so no byte of a run file goes
// unchecked. Every decode validates counts, offsets, prefix arithmetic,
// varint bounds, CRCs, and the refined (key, encoded position) sort order,
// and reports violations as errors wrapping storage.ErrCorruptData —
// hostile bytes must never panic or decode into silently wrong keys.
package runblock

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"

	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

// RecordSize is the logical record: interleaved key + little-endian
// position — identical to the uncompressed run record the LSM sorts.
const RecordSize = summary.KeySize + 8

// DefaultBlockRecords is the default block arity: 512 records ≈ 12 KiB of
// logical payload per block, inside the 4–16 KiB target that keeps one
// block one device-page-ish read while amortizing per-block overhead.
const DefaultBlockRecords = 512

// maxBlockRecords bounds the arity a footer may declare, so hostile bytes
// cannot make a reader allocate unbounded decode buffers.
const maxBlockRecords = 1 << 20

const (
	headerSize = 16
	footerSize = 88
	// blockHeadSize prefixes each physical block: payload length + CRC.
	blockHeadSize = 8
	// dirEntSize is one directory entry: first key, offset, record count.
	dirEntSize = summary.KeySize + 8 + 4
)

var (
	magicHeader = [4]byte{'C', 'C', 'R', 'B'}
	magicFooter = [8]byte{'C', 'C', 'R', 'B', 'e', 'n', 'd', '1'}
)

const version = 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt types every decode failure as on-disk corruption.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("runblock: "+format+": %w", append(args, storage.ErrCorruptData)...)
}

// recLess is the refined order every run is sorted under: key bytes first,
// ties broken by the lexicographic order of the position's little-endian
// encoding (reversing the bytes of the integer compares exactly that).
func recLess(ak summary.Key, ap int64, bk summary.Key, bp int64) bool {
	if c := ak.Compare(bk); c != 0 {
		return c < 0
	}
	return bits.ReverseBytes64(uint64(ap)) < bits.ReverseBytes64(uint64(bp))
}

// Block is one decoded block: parallel key/position arrays, the unit the
// cache holds and query paths scan.
type Block struct {
	Keys []summary.Key
	Pos  []int64
}

// blockBytes is the cache accounting charge for a decoded block of n records.
func blockBytes(n int) int64 { return int64(n)*RecordSize + 64 }

// scratch is what decoding one block needs besides the file: the block's
// physical bytes and, for a block nobody keeps, the decoded arrays. Pooled
// process-wide, so an idle reader holds none.
type scratch struct {
	raw []byte
	blk Block
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Writer streams sorted records into the block-compressed layout. Add in
// refined order, then Finish exactly once; the caller owns f (Finish does
// not sync or close it).
type Writer struct {
	f            storage.File
	w            *storage.SequentialWriter
	blockRecords int

	scratch  []byte // current block payload
	blockN   int
	firstKey summary.Key
	prevKey  summary.Key
	prevPos  int64

	dir    []byte // accumulated directory entries
	blocks int64
	count  int64
	minKey summary.Key
	maxKey summary.Key

	started  bool
	finished bool
	err      error
}

// NewWriter returns a writer emitting blocks of blockRecords records
// (DefaultBlockRecords when <= 0) to f, starting at offset 0.
func NewWriter(f storage.File, blockRecords int) *Writer {
	if blockRecords <= 0 {
		blockRecords = DefaultBlockRecords
	}
	if blockRecords > maxBlockRecords {
		blockRecords = maxBlockRecords
	}
	return &Writer{f: f, w: storage.NewSequentialWriter(f, 0, 0), blockRecords: blockRecords}
}

func (w *Writer) writeHeader() error {
	var h [headerSize]byte
	copy(h[:4], magicHeader[:])
	h[4] = version
	binary.LittleEndian.PutUint32(h[8:12], uint32(w.blockRecords))
	_, err := w.w.Write(h[:])
	return err
}

// Add appends one record. Records must arrive in refined order.
func (w *Writer) Add(key summary.Key, pos int64) error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		return fmt.Errorf("runblock: Add after Finish")
	}
	if !w.started {
		if err := w.writeHeader(); err != nil {
			w.err = err
			return err
		}
		w.started = true
		w.minKey = key
	} else if recLess(key, pos, w.prevKey, w.prevPos) {
		w.err = fmt.Errorf("runblock: records out of order")
		return w.err
	}
	if w.blockN == 0 {
		w.firstKey = key
		w.scratch = append(w.scratch[:0], key[:]...)
		w.scratch = binary.LittleEndian.AppendUint64(w.scratch, uint64(pos))
	} else {
		// Front-code the key against its predecessor: shared byte prefix
		// stripped, trailing zero bytes stripped (sparse configurations
		// leave most of the 128 bits zero).
		prefix := 0
		for prefix < summary.KeySize && key[prefix] == w.prevKey[prefix] {
			prefix++
		}
		end := summary.KeySize
		for end > prefix && key[end-1] == 0 {
			end--
		}
		w.scratch = append(w.scratch, byte(prefix), byte(end-prefix))
		w.scratch = append(w.scratch, key[prefix:end]...)
		delta := uint64(pos) - uint64(w.prevPos)
		w.scratch = binary.AppendVarint(w.scratch, int64(delta))
	}
	w.prevKey, w.prevPos = key, pos
	w.maxKey = key
	w.blockN++
	w.count++
	if w.blockN == w.blockRecords {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.blockN == 0 {
		return nil
	}
	var ent [dirEntSize]byte
	copy(ent[:summary.KeySize], w.firstKey[:])
	binary.LittleEndian.PutUint64(ent[summary.KeySize:], uint64(w.w.Offset()))
	binary.LittleEndian.PutUint32(ent[summary.KeySize+8:], uint32(w.blockN))
	w.dir = append(w.dir, ent[:]...)

	var head [blockHeadSize]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(w.scratch)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.Checksum(w.scratch, crcTable))
	if _, err := w.w.Write(head[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		w.err = err
		return err
	}
	w.blocks++
	w.blockN = 0
	w.scratch = w.scratch[:0]
	return nil
}

// Count returns the records added so far.
func (w *Writer) Count() int64 { return w.count }

// Finish flushes the tail block and writes the directory and footer. The
// file is complete (but not synced) when it returns.
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		return nil
	}
	if !w.started {
		if err := w.writeHeader(); err != nil {
			w.err = err
			return err
		}
		w.started = true
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	dirOff := w.w.Offset()
	if _, err := w.w.Write(w.dir); err != nil {
		w.err = err
		return err
	}
	var ft [footerSize]byte
	binary.LittleEndian.PutUint64(ft[0:8], uint64(dirOff))
	binary.LittleEndian.PutUint64(ft[8:16], uint64(len(w.dir)))
	binary.LittleEndian.PutUint64(ft[16:24], uint64(w.count))
	binary.LittleEndian.PutUint64(ft[24:32], uint64(w.blocks))
	copy(ft[32:48], w.minKey[:])
	copy(ft[48:64], w.maxKey[:])
	binary.LittleEndian.PutUint32(ft[64:68], uint32(w.blockRecords))
	binary.LittleEndian.PutUint32(ft[68:72], crc32.Checksum(w.dir, crcTable))
	binary.LittleEndian.PutUint32(ft[72:76], crc32.Checksum(ft[:72], crcTable))
	copy(ft[80:88], magicFooter[:])
	if _, err := w.w.Write(ft[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	w.finished = true
	return nil
}

// dirEnt is one in-memory directory entry.
type dirEnt struct {
	firstKey summary.Key
	off      int64 // physical offset of the block head
	count    int   // records in the block
	startRec int64 // global ordinal of the block's first record
}

// Reader is an open block-compressed run: the decoded directory plus the
// file handle, reading blocks on demand through an optional shared cache.
// The directory is immutable after OpenReader, so a Reader is safe for
// concurrent use (the underlying File must support concurrent ReadAt, as
// every storage.File here does).
type Reader struct {
	f            storage.File
	cache        *blockcache.Cache
	cacheID      uint64
	blockRecords int
	count        int64
	minKey       summary.Key
	maxKey       summary.Key
	dir          []dirEnt
	dirOff       int64
}

// OpenReader validates the footer and directory of f and returns a reader.
// The reader owns f (Close closes it). cache may be nil, in which case
// every Block call decodes from the file.
func OpenReader(f storage.File, cache *blockcache.Cache) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < headerSize+footerSize {
		return nil, errCorrupt("file too small (%d bytes)", size)
	}
	var hd [headerSize]byte
	if err := readFull(f, hd[:], 0); err != nil {
		return nil, err
	}
	if [4]byte(hd[:4]) != magicHeader {
		return nil, errCorrupt("bad header magic")
	}
	if hd[4] != version {
		return nil, errCorrupt("unsupported version %d", hd[4])
	}
	for _, b := range hd[5:8] {
		if b != 0 {
			return nil, errCorrupt("nonzero header reserved bytes")
		}
	}
	for _, b := range hd[12:16] {
		if b != 0 {
			return nil, errCorrupt("nonzero header reserved bytes")
		}
	}
	var ft [footerSize]byte
	if err := readFull(f, ft[:], size-footerSize); err != nil {
		return nil, err
	}
	if [8]byte(ft[80:88]) != magicFooter {
		return nil, errCorrupt("bad footer magic")
	}
	for _, b := range ft[76:80] {
		if b != 0 {
			return nil, errCorrupt("nonzero footer reserved bytes")
		}
	}
	if crc32.Checksum(ft[:72], crcTable) != binary.LittleEndian.Uint32(ft[72:76]) {
		return nil, errCorrupt("footer checksum mismatch")
	}
	r := &Reader{
		f:            f,
		cache:        cache,
		blockRecords: int(binary.LittleEndian.Uint32(ft[64:68])),
		count:        int64(binary.LittleEndian.Uint64(ft[16:24])),
		dirOff:       int64(binary.LittleEndian.Uint64(ft[0:8])),
	}
	copy(r.minKey[:], ft[32:48])
	copy(r.maxKey[:], ft[48:64])
	dirBytes := int64(binary.LittleEndian.Uint64(ft[8:16]))
	blocks := int64(binary.LittleEndian.Uint64(ft[24:32]))
	if r.blockRecords < 1 || r.blockRecords > maxBlockRecords {
		return nil, errCorrupt("implausible block arity %d", r.blockRecords)
	}
	if int(binary.LittleEndian.Uint32(hd[8:12])) != r.blockRecords {
		return nil, errCorrupt("header and footer disagree on block arity")
	}
	if r.count < 0 || blocks < 0 || blocks > (size/blockHeadSize)+1 {
		return nil, errCorrupt("implausible block count %d", blocks)
	}
	if dirBytes != blocks*dirEntSize {
		return nil, errCorrupt("directory is %d bytes, want %d for %d blocks", dirBytes, blocks*dirEntSize, blocks)
	}
	if r.dirOff < headerSize || r.dirOff+dirBytes+footerSize != size {
		return nil, errCorrupt("directory does not abut footer")
	}
	want := (r.count + int64(r.blockRecords) - 1) / int64(r.blockRecords)
	if blocks != want {
		return nil, errCorrupt("%d blocks for %d records of arity %d", blocks, r.count, r.blockRecords)
	}
	raw := make([]byte, dirBytes)
	if err := readFull(f, raw, r.dirOff); err != nil {
		return nil, err
	}
	if crc32.Checksum(raw, crcTable) != binary.LittleEndian.Uint32(ft[68:72]) {
		return nil, errCorrupt("directory checksum mismatch")
	}
	r.dir = make([]dirEnt, blocks)
	var startRec int64
	prevEnd := int64(headerSize)
	for i := range r.dir {
		ent := raw[int64(i)*dirEntSize:]
		e := &r.dir[i]
		copy(e.firstKey[:], ent[:summary.KeySize])
		e.off = int64(binary.LittleEndian.Uint64(ent[summary.KeySize:]))
		e.count = int(binary.LittleEndian.Uint32(ent[summary.KeySize+8:]))
		e.startRec = startRec
		if e.count < 1 || e.count > r.blockRecords {
			return nil, errCorrupt("block %d claims %d records", i, e.count)
		}
		if e.off < prevEnd || e.off >= r.dirOff {
			return nil, errCorrupt("block %d offset %d out of range", i, e.off)
		}
		if i > 0 && r.dir[i-1].firstKey.Compare(e.firstKey) > 0 {
			return nil, errCorrupt("directory keys out of order at block %d", i)
		}
		prevEnd = e.off + blockHeadSize
		startRec += int64(e.count)
	}
	if startRec != r.count {
		return nil, errCorrupt("directory holds %d records, footer says %d", startRec, r.count)
	}
	if r.count > 0 {
		if r.dir[0].firstKey != r.minKey {
			return nil, errCorrupt("footer min key does not match directory")
		}
		if r.minKey.Compare(r.maxKey) > 0 {
			return nil, errCorrupt("footer key range inverted")
		}
	}
	if cache != nil {
		r.cacheID = cache.NewFileID()
	}
	return r, nil
}

func readFull(f storage.File, p []byte, off int64) error {
	n, err := f.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil {
		err = errCorrupt("short read at %d", off)
	}
	return err
}

// Count returns the run's record count.
func (r *Reader) Count() int64 { return r.count }

// NumBlocks returns the number of blocks.
func (r *Reader) NumBlocks() int { return len(r.dir) }

// MinKey returns the run's smallest key (zero when empty).
func (r *Reader) MinKey() summary.Key { return r.minKey }

// MaxKey returns the run's largest key (zero when empty).
func (r *Reader) MaxKey() summary.Key { return r.maxKey }

// BlockStart returns the global ordinal of block b's first record.
func (r *Reader) BlockStart(b int) int64 { return r.dir[b].startRec }

// Close drops the reader's cached blocks and closes the file.
func (r *Reader) Close() error {
	if r.cache != nil {
		r.cache.DropFile(r.cacheID)
	}
	return r.f.Close()
}

// physEnd returns the exclusive physical end offset of block b.
func (r *Reader) physEnd(b int) int64 {
	if b+1 < len(r.dir) {
		return r.dir[b+1].off
	}
	return r.dirOff
}

// Block returns block b, consulting the shared cache first and caching a
// miss the LRU way — the read of a point lookup (Search, Range). The
// returned block is shared and must not be mutated.
func (r *Reader) Block(b int) (*Block, error) {
	if r.cache != nil {
		if v, ok := r.cache.Get(r.cacheID, int64(b)); ok {
			return v.(*Block), nil
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	blk, err := r.decodeBlock(b, sc)
	if err != nil {
		return nil, err
	}
	if r.cache != nil {
		r.cache.Put(r.cacheID, int64(b), blk, blockBytes(len(blk.Keys)))
	}
	return blk, nil
}

// Scan yields every block in order to fn: the read of a whole-run scan (the
// exact-search lower-bound pass, a coverage pass). A resident block is a
// cache hit that does not refresh it (blockcache.ScanGet), and a missing one
// is cached only where it fits without evicting (blockcache.ScanRoom) and is
// otherwise decoded into pooled scratch, so sweeping a run larger than the
// cache neither thrashes it, nor outranks what lookups cached, nor allocates.
// blk is shared, must not be mutated, and is valid only until fn returns.
//
// A non-nil skip is asked first, from the directory alone, about every block
// with a key range that holds all of its keys: from its first key to the
// next block's first key, or to the run's max key for the last. A block it
// rules out is not read, decoded or looked up in the cache. skip must not
// mutate the keys.
func (r *Reader) Scan(skip func(lo, hi *summary.Key) bool, fn func(blk *Block) error) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for b := range r.dir {
		if skip != nil && skip(&r.dir[b].firstKey, r.keyCeil(b)) {
			continue
		}
		blk, err := r.scanBlock(b, sc)
		if err != nil {
			return err
		}
		if err := fn(blk); err != nil {
			return err
		}
	}
	return nil
}

// keyCeil returns a key no smaller than any of block b's: the next block's
// first key, or the run's max key after the last block.
func (r *Reader) keyCeil(b int) *summary.Key {
	if b+1 < len(r.dir) {
		return &r.dir[b+1].firstKey
	}
	return &r.maxKey
}

func (r *Reader) scanBlock(b int, sc *scratch) (*Block, error) {
	if r.cache != nil {
		if v, ok := r.cache.ScanGet(r.cacheID, int64(b)); ok {
			return v.(*Block), nil
		}
		if size := blockBytes(r.dir[b].count); r.cache.ScanRoom(r.cacheID, int64(b), size) {
			blk, err := r.decodeBlock(b, sc)
			if err == nil {
				r.cache.ScanPut(r.cacheID, int64(b), blk, size)
			}
			return blk, err
		}
	}
	return &sc.blk, r.decodeBlockInto(b, &sc.blk, sc)
}

// decodeBlock decodes block b into arrays of its own: a block the cache may
// keep.
func (r *Reader) decodeBlock(b int, sc *scratch) (*Block, error) {
	blk := new(Block)
	if err := r.decodeBlockInto(b, blk, sc); err != nil {
		return nil, err
	}
	return blk, nil
}

// decodeBlockInto reads block b straight from the file through sc.raw and
// decodes it into blk (sc's own, or one to keep), reusing the capacity of
// both: nothing is allocated once they have grown to the block's size. blk
// is meaningless on error.
func (r *Reader) decodeBlockInto(b int, blk *Block, sc *scratch) error {
	e := &r.dir[b]
	size := int(r.physEnd(b) - e.off)
	if size < blockHeadSize {
		return errCorrupt("block %d region too small", b)
	}
	if cap(sc.raw) < size {
		sc.raw = make([]byte, size)
	}
	raw := sc.raw[:size]
	if err := readFull(r.f, raw, e.off); err != nil {
		return err
	}
	payloadLen := binary.LittleEndian.Uint32(raw[0:4])
	if int(payloadLen) != len(raw)-blockHeadSize {
		return errCorrupt("block %d payload length %d, region holds %d", b, payloadLen, len(raw)-blockHeadSize)
	}
	payload := raw[blockHeadSize:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(raw[4:8]) {
		return errCorrupt("block %d checksum mismatch", b)
	}
	if cap(blk.Keys) < e.count {
		blk.Keys, blk.Pos = make([]summary.Key, e.count), make([]int64, e.count)
	}
	keys, poss := blk.Keys[:e.count], blk.Pos[:e.count]
	var prevKey summary.Key
	var prevPos int64
	for i := 0; i < e.count; i++ {
		var key summary.Key
		var pos int64
		if i == 0 {
			if len(payload) < RecordSize {
				return errCorrupt("block %d truncated first record", b)
			}
			copy(key[:], payload[:summary.KeySize])
			pos = int64(binary.LittleEndian.Uint64(payload[summary.KeySize:RecordSize]))
			payload = payload[RecordSize:]
			if key != e.firstKey {
				return errCorrupt("block %d first key does not match directory", b)
			}
		} else {
			if len(payload) < 2 {
				return errCorrupt("block %d truncated record %d", b, i)
			}
			prefix, suffix := int(payload[0]), int(payload[1])
			payload = payload[2:]
			if prefix+suffix > summary.KeySize || suffix > len(payload) {
				return errCorrupt("block %d record %d prefix %d + suffix %d out of range", b, i, prefix, suffix)
			}
			copy(key[:prefix], prevKey[:prefix])
			copy(key[prefix:prefix+suffix], payload[:suffix])
			payload = payload[suffix:]
			delta, n := binary.Varint(payload)
			if n <= 0 {
				return errCorrupt("block %d record %d bad position varint", b, i)
			}
			payload = payload[n:]
			pos = int64(uint64(prevPos) + uint64(delta))
			if recLess(key, pos, prevKey, prevPos) {
				return errCorrupt("block %d records out of order at %d", b, i)
			}
		}
		keys[i], poss[i] = key, pos
		prevKey, prevPos = key, pos
	}
	if len(payload) != 0 {
		return errCorrupt("block %d has %d trailing bytes", b, len(payload))
	}
	blk.Keys, blk.Pos = keys, poss
	return nil
}

// blockFor returns the block containing global record ordinal rec.
func (r *Reader) blockFor(rec int64) int {
	lo, hi := 0, len(r.dir)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.dir[mid].startRec <= rec {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Search returns the insertion index of key: the smallest global record
// ordinal i with key <= keys[i] (r.Count() when every key is smaller) —
// the same quantity sort.Search over a whole-run key array yields. It
// decodes at most one block.
func (r *Reader) Search(key summary.Key) (int64, error) {
	if r.count == 0 {
		return 0, nil
	}
	// First block whose first key is >= key.
	lo, hi := 0, len(r.dir)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.dir[mid].firstKey.Less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		// Even the global first key is >= key.
		return 0, nil
	}
	// Block lo-1 is the last whose first key is < key: the insertion point
	// is inside it or exactly at its end (== start of block lo).
	b := lo - 1
	blk, err := r.Block(b)
	if err != nil {
		return 0, err
	}
	i, n := 0, len(blk.Keys)
	for i < n {
		mid := (i + n) / 2
		if blk.Keys[mid].Less(key) {
			i = mid + 1
		} else {
			n = mid
		}
	}
	return r.dir[b].startRec + int64(i), nil
}

// Range streams records [lo, hi) in order to fn, decoding only the blocks
// the range touches. Bounds are clamped to [0, Count()].
func (r *Reader) Range(lo, hi int64, fn func(key summary.Key, pos int64) error) error {
	if lo < 0 {
		lo = 0
	}
	if hi > r.count {
		hi = r.count
	}
	if lo >= hi {
		return nil
	}
	for b := r.blockFor(lo); b < len(r.dir); b++ {
		e := &r.dir[b]
		if e.startRec >= hi {
			break
		}
		blk, err := r.Block(b)
		if err != nil {
			return err
		}
		i0, i1 := int64(0), int64(len(blk.Keys))
		if s := lo - e.startRec; s > i0 {
			i0 = s
		}
		if s := hi - e.startRec; s < i1 {
			i1 = s
		}
		for i := i0; i < i1; i++ {
			if err := fn(blk.Keys[i], blk.Pos[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Verify decodes every block in order — bypassing the cache, so an open-
// time verification pass does not evict a live working set — and checks
// the cross-block refined order and the footer's key range. O(1) memory.
func (r *Reader) Verify() error {
	var prevKey summary.Key
	var prevPos int64
	var seen int64
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	blk := &sc.blk
	for b := range r.dir {
		if err := r.decodeBlockInto(b, blk, sc); err != nil {
			return err
		}
		if b > 0 && recLess(blk.Keys[0], blk.Pos[0], prevKey, prevPos) {
			return errCorrupt("blocks %d/%d out of order", b-1, b)
		}
		n := len(blk.Keys)
		prevKey, prevPos = blk.Keys[n-1], blk.Pos[n-1]
		seen += int64(n)
	}
	if seen != r.count {
		return errCorrupt("decoded %d records, footer says %d", seen, r.count)
	}
	if r.count > 0 && prevKey != r.maxKey {
		return errCorrupt("footer max key does not match last block")
	}
	return nil
}
