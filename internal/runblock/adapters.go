package runblock

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// FileWriter adapts a Writer to the storage.File surface the external
// sorter writes its final output through (extsort's WrapOut hook): a
// strictly sequential stream of fixed 24-byte records arriving via
// WriteAt is cut into records and fed to the block compressor. Close (or
// Sync) finishes the compressed file — tail block, directory, footer —
// and then delegates to the inner handle, matching extsort's contract
// that the wrapper's Close runs in place of the inner file's.
type FileWriter struct {
	inner    storage.File
	w        *Writer
	logical  int64 // logical (uncompressed) bytes accepted so far
	tail     []byte
	finished bool
	closed   bool
}

// NewFileWriter wraps inner, the freshly created run file, for use as an
// extsort WrapOut target, emitting blocks of blockRecords records.
func NewFileWriter(inner storage.File, blockRecords int) *FileWriter {
	return &FileWriter{inner: inner, w: NewWriter(inner, blockRecords)}
}

// Count returns the records written so far (complete records only).
func (fw *FileWriter) Count() int64 { return fw.w.Count() }

// WriteAt accepts the next chunk of the logical record stream. Writes
// must be strictly sequential; record boundaries may fall anywhere.
func (fw *FileWriter) WriteAt(p []byte, off int64) (int, error) {
	if fw.finished {
		return 0, fmt.Errorf("runblock: write after finish")
	}
	if off != fw.logical {
		return 0, fmt.Errorf("runblock: non-sequential write at %d, want %d", off, fw.logical)
	}
	n := len(p)
	data := p
	if len(fw.tail) > 0 {
		need := RecordSize - len(fw.tail)
		if need > len(data) {
			need = len(data)
		}
		fw.tail = append(fw.tail, data[:need]...)
		data = data[need:]
		if len(fw.tail) == RecordSize {
			if err := fw.addRecord(fw.tail); err != nil {
				return 0, err
			}
			fw.tail = fw.tail[:0]
		}
	}
	for len(data) >= RecordSize {
		if err := fw.addRecord(data[:RecordSize]); err != nil {
			return 0, err
		}
		data = data[RecordSize:]
	}
	fw.tail = append(fw.tail, data...)
	fw.logical += int64(n)
	return n, nil
}

func (fw *FileWriter) addRecord(rec []byte) error {
	var k summary.Key
	copy(k[:], rec[:summary.KeySize])
	return fw.w.Add(k, int64(binary.LittleEndian.Uint64(rec[summary.KeySize:])))
}

// finish completes the compressed layout exactly once.
func (fw *FileWriter) finish() error {
	if fw.finished {
		return fw.w.err
	}
	if len(fw.tail) != 0 {
		return fmt.Errorf("runblock: %d trailing bytes do not form a record", len(fw.tail))
	}
	fw.finished = true
	return fw.w.Finish()
}

// Sync finishes the compressed layout and fsyncs the inner file.
func (fw *FileWriter) Sync() error {
	if err := fw.finish(); err != nil {
		return err
	}
	return fw.inner.Sync()
}

// Close finishes the compressed layout and closes the inner file.
func (fw *FileWriter) Close() error {
	if fw.closed {
		return nil
	}
	fw.closed = true
	err := fw.finish()
	if cerr := fw.inner.Close(); err == nil {
		err = cerr
	}
	return err
}

// Name returns the inner file's name.
func (fw *FileWriter) Name() string { return fw.inner.Name() }

// Size returns the logical (uncompressed) byte count accepted so far.
func (fw *FileWriter) Size() (int64, error) { return fw.logical, nil }

// ReadAt is not supported on the write adapter.
func (fw *FileWriter) ReadAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("runblock: FileWriter is write-only")
}

// Truncate is not supported: the compressed stream is append-only.
func (fw *FileWriter) Truncate(size int64) error {
	return fmt.Errorf("runblock: FileWriter does not support truncate")
}

// FileReader adapts an open compressed run to the storage.File surface
// the external sorter reads merge inputs through (extsort's WrapIn hook):
// ReadAt serves the logical uncompressed 24-byte record stream, decoding
// blocks on demand. It memoizes the most recently decoded block — the
// sorter reads each input once, sequentially — and deliberately bypasses
// any shared block cache so one-shot merge traffic never evicts the hot
// query working set. Not safe for concurrent use (extsort reads each
// input from a single goroutine).
type FileReader struct {
	r      *Reader
	sc     scratch
	blkIdx int
}

// NewFileReader opens inner, a run file, as a compressed run and serves
// its logical record stream, checking each block's CRC as it decodes.
// Close closes inner.
func NewFileReader(inner storage.File) (*FileReader, error) {
	r, err := OpenReader(inner, nil)
	if err != nil {
		return nil, err
	}
	return &FileReader{r: r, blkIdx: -1}, nil
}

// ReadAt fills p with logical record-stream bytes starting at off.
func (fr *FileReader) ReadAt(p []byte, off int64) (int, error) {
	logical := fr.r.Count() * RecordSize
	if off < 0 {
		return 0, fmt.Errorf("runblock: negative offset %d", off)
	}
	n := 0
	for n < len(p) && off < logical {
		rec := off / RecordSize
		skip := int(off % RecordSize)
		b := fr.r.blockFor(rec)
		if fr.blkIdx != b {
			fr.blkIdx = -1
			if err := fr.r.decodeBlockInto(b, &fr.sc.blk, &fr.sc); err != nil {
				return n, err
			}
			fr.blkIdx = b
		}
		i := int(rec - fr.r.dir[b].startRec)
		var buf [RecordSize]byte
		copy(buf[:summary.KeySize], fr.sc.blk.Keys[i][:])
		binary.LittleEndian.PutUint64(buf[summary.KeySize:], uint64(fr.sc.blk.Pos[i]))
		c := copy(p[n:], buf[skip:])
		n += c
		off += int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size returns the logical (uncompressed) stream length.
func (fr *FileReader) Size() (int64, error) { return fr.r.Count() * RecordSize, nil }

// Name returns the underlying file's name.
func (fr *FileReader) Name() string { return fr.r.f.Name() }

// Close closes the underlying file.
func (fr *FileReader) Close() error { return fr.r.Close() }

// Sync delegates to the underlying file.
func (fr *FileReader) Sync() error { return fr.r.f.Sync() }

// WriteAt is not supported on the read adapter.
func (fr *FileReader) WriteAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("runblock: FileReader is read-only")
}

// Truncate is not supported on the read adapter.
func (fr *FileReader) Truncate(size int64) error {
	return fmt.Errorf("runblock: FileReader is read-only")
}
