package runblock

import (
	"encoding/binary"
	"fmt"

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
