package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// ErrCorruptData is returned by every integrity-checked read path when the
// bytes on disk fail verification: a checksum-file block whose CRC does not
// match, a truncated or torn block, a raw record that disagrees with its
// recorded checksum, or a structurally impossible header. Callers match it
// with errors.Is; it is re-exported as coconut.ErrCorruptData.
var ErrCorruptData = errors.New("storage: corrupt data")

// crcTable is the Castagnoli (CRC32-C) polynomial table shared by the
// checksum-file and record-sums formats — the same polynomial the manifest
// and WAL layers use, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	checksumMagic   uint32 = 0x46424343 // "CCBF": Coconut Checksummed Block File
	checksumVersion uint32 = 1

	// ChecksumHeaderSize is the fixed physical header of a checksum file:
	// magic, version, block size, reserved (4 bytes each, little-endian).
	ChecksumHeaderSize = 16

	checksumCRCSize = 4
)

// ChecksumFile wraps an inner File with a block-checksummed physical
// layout while presenting the plain logical byte stream through the
// storage.File interface, so consumers keep addressing logical offsets.
//
// Physical layout:
//
//	[16-byte header][crc32c||payload][crc32c||payload]...[crc32c||tail]
//
// Every block carries a 4-byte CRC32-C of its payload. All blocks hold
// exactly BlockSize payload bytes except a possibly shorter final (tail)
// block. Block i starts at ChecksumHeaderSize + i*(4+BlockSize).
//
// Write support is deliberately narrow, matching how index artifacts are
// produced: sequential appends at the logical end of file (any length —
// the partial tail block is buffered in memory until it fills or Sync is
// called), and in-place rewrites of whole, block-aligned ranges that lie
// entirely within already-complete blocks (the B+-tree page update path).
// Any other write returns an error.
//
// ReadAt verifies the CRC of every block it touches and returns
// ErrCorruptData on mismatch — a flipped bit yields a typed error, never
// garbage bytes. Reads are safe to issue concurrently with each other;
// writes require external serialization against reads, which every caller
// in this codebase already provides (handles guard mutation with their own
// locks).
type ChecksumFile struct {
	inner File
	block int

	mu        sync.RWMutex
	full      int64  // complete blocks physically laid out
	tail      []byte // payload of the trailing partial block, buffered in memory
	tailDirty bool   // tail bytes newer than their physical image
	wbuf      []byte // scratch for block framing, guarded by mu
}

// readBufPool holds the buffers ReadAt reads framed blocks into when they
// span at most maxPooledRead bytes. A run block is the read this is for: at
// most 512 records of 32 B and a head, so at most 6 of the run files' 4 KiB
// blocks, 24 600 B framed — and an exact query behind an undersized block
// cache reads every one it does not find cached (28 of 40 per query in
// BenchmarkExactQueryAllocs/lsm-smallcache: 55 allocations and 253 KB per
// query without the pool, 27 and 27 KB with it). A bulk read (a sequential
// reader's megabyte) allocates as before: a buffer that size is not worth
// keeping around. Process-wide, so an idle file holds none.
var readBufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRead = 32 << 10

// CreateChecksumFile initializes inner (assumed freshly created / empty)
// as a checksum file with the given payload block size and returns the
// logical wrapper.
func CreateChecksumFile(inner File, blockSize int) (*ChecksumFile, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("storage: checksum file %q: invalid block size %d", inner.Name(), blockSize)
	}
	var hdr [ChecksumHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], checksumMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], checksumVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(blockSize))
	if _, err := inner.WriteAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("storage: checksum file %q: write header: %w", inner.Name(), err)
	}
	return &ChecksumFile{inner: inner, block: blockSize}, nil
}

// OpenChecksumFile validates inner's header and trailing block structure
// and returns the logical wrapper. The tail block (if any) is verified
// eagerly and buffered so later appends can extend it; full blocks are
// verified lazily by ReadAt (use VerifyChecksumBlocks for a full pass).
func OpenChecksumFile(inner File) (*ChecksumFile, error) {
	phys, err := inner.Size()
	if err != nil {
		return nil, fmt.Errorf("storage: checksum file %q: size: %w", inner.Name(), err)
	}
	if phys < ChecksumHeaderSize {
		return nil, fmt.Errorf("storage: checksum file %q: %d bytes is too short for a header: %w", inner.Name(), phys, ErrCorruptData)
	}
	var hdr [ChecksumHeaderSize]byte
	if n, err := inner.ReadAt(hdr[:], 0); n != len(hdr) {
		return nil, fmt.Errorf("storage: checksum file %q: read header: %w", inner.Name(), readFailure(err))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != checksumMagic {
		return nil, fmt.Errorf("storage: checksum file %q: bad magic %#x: %w", inner.Name(), m, ErrCorruptData)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != checksumVersion {
		return nil, fmt.Errorf("storage: checksum file %q: unsupported version %d: %w", inner.Name(), v, ErrCorruptData)
	}
	block := binary.LittleEndian.Uint32(hdr[8:12])
	if block == 0 || block > 1<<30 {
		return nil, fmt.Errorf("storage: checksum file %q: invalid block size %d: %w", inner.Name(), block, ErrCorruptData)
	}
	if r := binary.LittleEndian.Uint32(hdr[12:16]); r != 0 {
		return nil, fmt.Errorf("storage: checksum file %q: nonzero reserved header field %#x: %w", inner.Name(), r, ErrCorruptData)
	}
	c := &ChecksumFile{inner: inner, block: int(block)}
	stride := int64(checksumCRCSize + c.block)
	body := phys - ChecksumHeaderSize
	c.full = body / stride
	rem := body % stride
	if rem > 0 {
		if rem <= checksumCRCSize {
			return nil, fmt.Errorf("storage: checksum file %q: torn trailing block (%d stray bytes): %w", inner.Name(), rem, ErrCorruptData)
		}
		buf := make([]byte, rem)
		if n, err := inner.ReadAt(buf, c.phys(c.full)); n != len(buf) {
			return nil, fmt.Errorf("storage: checksum file %q: read tail block: %w", inner.Name(), readFailure(err))
		}
		want := binary.LittleEndian.Uint32(buf[:checksumCRCSize])
		payload := buf[checksumCRCSize:]
		if crc32.Checksum(payload, crcTable) != want {
			return nil, fmt.Errorf("storage: checksum file %q: tail block crc mismatch: %w", inner.Name(), ErrCorruptData)
		}
		c.tail = append(c.tail, payload...)
	}
	return c, nil
}

// BlockSize returns the payload bytes carried per checksummed block.
func (c *ChecksumFile) BlockSize() int { return c.block }

// phys maps a block index to its physical offset in the inner file.
func (c *ChecksumFile) phys(i int64) int64 {
	return ChecksumHeaderSize + i*int64(checksumCRCSize+c.block)
}

// readFailure classifies an inner-read error for wrapping: EOF-shaped
// failures mean the physical file is shorter than its own structure claims
// (corruption); anything else is a device error passed through untouched
// so retry/injection semantics survive.
func readFailure(err error) error {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("truncated: %w", ErrCorruptData)
	}
	return err
}

func (c *ChecksumFile) Name() string { return c.inner.Name() }

// Size returns the logical (payload) size.
func (c *ChecksumFile) Size() (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.full*int64(c.block) + int64(len(c.tail)), nil
}

// ReadAt reads logical bytes, verifying the CRC of every physical block it
// touches. A mismatch returns ErrCorruptData and no payload bytes.
func (c *ChecksumFile) ReadAt(p []byte, off int64) (int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("storage: checksum file %q: negative offset %d", c.inner.Name(), off)
	}
	size := c.full*int64(c.block) + int64(len(c.tail))
	if off >= size {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > size-off {
		n = int(size - off)
	}
	if n == 0 {
		return 0, nil
	}
	bsz := int64(c.block)
	stride := int64(checksumCRCSize + c.block)
	b0 := off / bsz
	bLast := (off + int64(n) - 1) / bsz
	if b0 < c.full {
		fullHi := bLast
		if fullHi >= c.full {
			fullHi = c.full - 1
		}
		// p receives verified payload only; the framed blocks pass through buf.
		var buf []byte
		if need := int((fullHi - b0 + 1) * stride); need <= maxPooledRead {
			bp := readBufPool.Get().(*[]byte)
			defer readBufPool.Put(bp)
			if cap(*bp) < need {
				*bp = make([]byte, need)
			}
			buf = (*bp)[:need]
		} else {
			buf = make([]byte, need)
		}
		if rn, err := c.inner.ReadAt(buf, c.phys(b0)); rn != len(buf) {
			return 0, fmt.Errorf("storage: checksum file %q: read blocks [%d,%d]: %w", c.inner.Name(), b0, fullHi, readFailure(err))
		}
		for i := b0; i <= fullHi; i++ {
			blk := buf[(i-b0)*stride : (i-b0+1)*stride]
			want := binary.LittleEndian.Uint32(blk[:checksumCRCSize])
			payload := blk[checksumCRCSize:]
			if crc32.Checksum(payload, crcTable) != want {
				return 0, fmt.Errorf("storage: checksum file %q: block %d (physical offset %d) crc mismatch: %w", c.inner.Name(), i, c.phys(i), ErrCorruptData)
			}
			lo, hi := max(i*bsz, off), min((i+1)*bsz, off+int64(n))
			copy(p[lo-off:hi-off], payload[lo-i*bsz:hi-i*bsz])
		}
	}
	if bLast >= c.full {
		tailStart := c.full * bsz
		lo, hi := max(tailStart, off), min(tailStart+int64(len(c.tail)), off+int64(n))
		copy(p[lo-off:hi-off], c.tail[lo-tailStart:hi-tailStart])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt accepts exactly two shapes of write: an append starting at the
// logical end of file (any length), or an in-place rewrite of whole
// blocks that already exist. Everything else errors.
func (c *ChecksumFile) WriteAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := c.full*int64(c.block) + int64(len(c.tail))
	switch {
	case off == size:
		return c.appendLocked(p)
	case off >= 0 && off%int64(c.block) == 0 && len(p)%c.block == 0 && off+int64(len(p)) <= c.full*int64(c.block):
		return c.rewriteLocked(p, off)
	default:
		return 0, fmt.Errorf("storage: checksum file %q: unsupported write (off=%d len=%d logical size=%d block=%d)", c.inner.Name(), off, len(p), size, c.block)
	}
}

func (c *ChecksumFile) appendLocked(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		if len(c.tail) == c.block {
			if err := c.writeBlockLocked(c.full, c.tail); err != nil {
				return written, err
			}
			c.full++
			c.tail = c.tail[:0]
			c.tailDirty = false
		}
		m := min(c.block-len(c.tail), len(p))
		c.tail = append(c.tail, p[:m]...)
		c.tailDirty = true
		p = p[m:]
		written += m
	}
	if len(c.tail) == c.block {
		if err := c.writeBlockLocked(c.full, c.tail); err != nil {
			return written, err
		}
		c.full++
		c.tail = c.tail[:0]
		c.tailDirty = false
	}
	return written, nil
}

func (c *ChecksumFile) rewriteLocked(p []byte, off int64) (int, error) {
	written := 0
	for i := off / int64(c.block); len(p) > 0; i++ {
		if err := c.writeBlockLocked(i, p[:c.block]); err != nil {
			return written, err
		}
		p = p[c.block:]
		written += c.block
	}
	return written, nil
}

// writeBlockLocked frames payload with its CRC and writes block i in
// place.
func (c *ChecksumFile) writeBlockLocked(i int64, payload []byte) error {
	need := checksumCRCSize + len(payload)
	if cap(c.wbuf) < need {
		c.wbuf = make([]byte, need)
	}
	buf := c.wbuf[:need]
	binary.LittleEndian.PutUint32(buf[:checksumCRCSize], crc32.Checksum(payload, crcTable))
	copy(buf[checksumCRCSize:], payload)
	if _, err := c.inner.WriteAt(buf, c.phys(i)); err != nil {
		return fmt.Errorf("storage: checksum file %q: write block %d: %w", c.inner.Name(), i, err)
	}
	return nil
}

// flushTailLocked writes the buffered partial tail block (if dirty).
func (c *ChecksumFile) flushTailLocked() error {
	if !c.tailDirty || len(c.tail) == 0 {
		c.tailDirty = false
		return nil
	}
	if err := c.writeBlockLocked(c.full, c.tail); err != nil {
		return err
	}
	c.tailDirty = false
	return nil
}

// Truncate supports shrinking to a whole-block logical boundary (or zero);
// index artifacts never truncate mid-block.
func (c *ChecksumFile) Truncate(size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	logical := c.full*int64(c.block) + int64(len(c.tail))
	switch {
	case size == logical:
		return nil
	case size == 0:
		if err := c.inner.Truncate(ChecksumHeaderSize); err != nil {
			return err
		}
		c.full, c.tail, c.tailDirty = 0, c.tail[:0], false
		return nil
	case size > 0 && size < logical && size%int64(c.block) == 0:
		newFull := size / int64(c.block)
		if err := c.inner.Truncate(c.phys(newFull)); err != nil {
			return err
		}
		c.full, c.tail, c.tailDirty = newFull, c.tail[:0], false
		return nil
	default:
		return fmt.Errorf("storage: checksum file %q: unsupported truncate to %d (logical size %d, block %d)", c.inner.Name(), size, logical, c.block)
	}
}

// Sync persists the buffered tail block and fsyncs the inner file. The
// tail stays buffered so appends can keep extending it.
func (c *ChecksumFile) Sync() error {
	c.mu.Lock()
	if err := c.flushTailLocked(); err != nil {
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	return c.inner.Sync()
}

// Close flushes the buffered tail block and closes the inner file (without
// fsync, matching File semantics — call Sync first for durability).
func (c *ChecksumFile) Close() error {
	c.mu.Lock()
	err := c.flushTailLocked()
	c.mu.Unlock()
	if cerr := c.inner.Close(); err == nil {
		err = cerr
	}
	return err
}

// VerifyChecksumBlocks reads every block of an (already open) checksum
// file and verifies its CRC, returning the number of blocks checked. The
// first failure is returned with its block index and physical offset; the
// error matches ErrCorruptData for structural and checksum failures.
func VerifyChecksumBlocks(f File) (int64, error) {
	c, err := OpenChecksumFile(f)
	if err != nil {
		return 0, err
	}
	stride := int64(checksumCRCSize + c.block)
	buf := make([]byte, stride)
	for i := int64(0); i < c.full; i++ {
		if n, err := f.ReadAt(buf, c.phys(i)); n != len(buf) {
			return i, fmt.Errorf("storage: checksum file %q: read block %d: %w", f.Name(), i, readFailure(err))
		}
		want := binary.LittleEndian.Uint32(buf[:checksumCRCSize])
		if crc32.Checksum(buf[checksumCRCSize:], crcTable) != want {
			return i, fmt.Errorf("storage: checksum file %q: block %d (physical offset %d) crc mismatch: %w", f.Name(), i, c.phys(i), ErrCorruptData)
		}
	}
	blocks := c.full
	if len(c.tail) > 0 {
		blocks++ // tail was verified by OpenChecksumFile
	}
	return blocks, nil
}
