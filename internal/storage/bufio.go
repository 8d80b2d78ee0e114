package storage

import (
	"fmt"
	"io"
)

// DefaultBufferSize is the buffer used by SequentialReader/Writer when the
// caller does not specify one. It approximates one large disk transfer.
const DefaultBufferSize = 1 << 20 // 1 MiB

// SequentialWriter appends to a File through a fixed-size buffer, turning
// many small logical writes into few large sequential device writes — the
// access pattern every bottom-up bulk loader in this repository relies on.
type SequentialWriter struct {
	f   File
	buf []byte
	n   int
	off int64
	err error
}

// NewSequentialWriter returns a writer appending to f starting at offset
// off, with the given buffer size (DefaultBufferSize when size <= 0).
func NewSequentialWriter(f File, off int64, size int) *SequentialWriter {
	if size <= 0 {
		size = DefaultBufferSize
	}
	return &SequentialWriter{f: f, buf: make([]byte, size), off: off}
}

// Write appends p. It only errors if a buffer flush fails.
func (w *SequentialWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	total := 0
	for len(p) > 0 {
		if w.n == len(w.buf) {
			if err := w.Flush(); err != nil {
				return total, err
			}
		}
		c := copy(w.buf[w.n:], p)
		w.n += c
		p = p[c:]
		total += c
	}
	return total, nil
}

// Flush writes buffered bytes to the device.
func (w *SequentialWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.n == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.buf[:w.n], w.off); err != nil {
		w.err = fmt.Errorf("storage: flush: %w", err)
		return w.err
	}
	w.off += int64(w.n)
	w.n = 0
	return nil
}

// Offset returns the file offset the next appended byte will land at.
func (w *SequentialWriter) Offset() int64 { return w.off + int64(w.n) }

// SequentialReader scans a File forward through a fixed-size buffer.
// It implements io.Reader.
type SequentialReader struct {
	f     File
	buf   []byte
	r, n  int
	off   int64
	limit int64 // exclusive end offset, -1 for EOF-bounded
	err   error
}

// NewSequentialReader returns a reader scanning f from offset off up to
// off+length (length < 0 means until EOF), with the given buffer size
// (DefaultBufferSize when size <= 0), clipped to the length.
func NewSequentialReader(f File, off, length int64, size int) *SequentialReader {
	if size <= 0 {
		size = DefaultBufferSize
	}
	limit := int64(-1)
	if length >= 0 {
		limit = off + length
		size = int(min(int64(size), max(length, 1)))
	}
	return &SequentialReader{f: f, buf: make([]byte, size), off: off, limit: limit}
}

func (r *SequentialReader) fill() error {
	if r.err != nil {
		return r.err
	}
	want := len(r.buf)
	if r.limit >= 0 {
		remain := r.limit - r.off
		if remain <= 0 {
			r.err = io.EOF
			return r.err
		}
		if int64(want) > remain {
			want = int(remain)
		}
	}
	n, err := r.f.ReadAt(r.buf[:want], r.off)
	r.off += int64(n)
	r.r, r.n = 0, n
	if n > 0 {
		return nil // serve what we got; err resurfaces on the next fill
	}
	if err == nil {
		err = io.EOF
	}
	r.err = err
	return r.err
}

// Read implements io.Reader.
func (r *SequentialReader) Read(p []byte) (int, error) {
	if r.r == r.n {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.buf[r.r:r.n])
	r.r += n
	return n, nil
}

// WriteFileAll writes data to name on fs as a single sequential stream,
// creating the file.
func WriteFileAll(fs FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteAt(data, 0); err != nil {
		return err
	}
	return nil
}

// WriteFileAtomic commits data to name through a write-temp-fsync-rename
// sequence: the bytes are written to a sibling temporary file, synced to
// stable storage, and the temporary is renamed over name in one atomic
// step (OSFS also fsyncs the directory). A power loss at any point leaves
// either the previous version of name or the complete new one — never a
// torn write — at the cost of briefly holding both copies on the device.
func WriteFileAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.WriteAt(data, 0)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = fs.Remove(tmp)
		return werr
	}
	if err := fs.Rename(tmp, name); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return nil
}

// ReadFileAll reads the entire content of name from fs.
func ReadFileAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if int64(n) == size {
		return buf, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}
