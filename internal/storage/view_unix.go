//go:build unix

package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// mapping is an osFile's read-only MAP_SHARED view of itself, made on the
// first View and remade, larger, when a View reaches past it and the file
// has grown (LSM appends; a partition child reading the file its parent
// appends to). Extents are mapped past the end of the file so that growth
// seldom needs a new one, and a superseded extent stays mapped — slices of
// it are still out — until the handle is closed and the last pin released.
type mapping struct {
	cur atomic.Pointer[extent] // nil until the first View and after unmap

	mu      sync.Mutex
	extents [][]byte // every live mapping, the current one last
	pins    int
	closed  bool
	failed  bool // mmap refused once: the handle reads through ReadAt for good
}

// extent is a mapping of the file from offset 0 and the prefix of it known
// to be backed by the file: its size at the last fstat.
type extent struct {
	data  []byte
	valid int64
}

func (f *osFile) PinViews() bool {
	m := &f.views
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.failed {
		return false
	}
	m.pins++
	return true
}

func (f *osFile) UnpinViews() {
	m := &f.views
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pins--; m.pins == 0 && m.closed {
		m.unmapLocked()
	}
}

func (f *osFile) View(off int64, n int) ([]byte, error) {
	e := f.views.cur.Load()
	if e == nil || off+int64(n) > e.valid {
		var err error
		if e, err = f.growView(off, n); e == nil {
			return nil, err
		}
	}
	f.trk.noteRead(off, n)
	return e.data[off : off+int64(n) : off+int64(n)], nil
}

// growView is View's slow path: the range is past what is known to be
// backed, so the file is measured again and, when it has outgrown the
// extent, mapped again at twice its size.
func (f *osFile) growView(off int64, n int) (*extent, error) {
	m := &f.views
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("storage: view of %q: %w", f.name, os.ErrClosed)
	}
	if m.failed {
		return nil, nil
	}
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if off < 0 || off+int64(n) > size {
		f.trk.noteRead(off, int(min(size-off, int64(n)))) // the short read's bytes
		return nil, io.ErrUnexpectedEOF
	}
	var data []byte
	if old := m.cur.Load(); old != nil && size <= int64(len(old.data)) {
		data = old.data
	} else {
		if data, err = syscall.Mmap(int(f.f.Fd()), 0, int(2*size), syscall.PROT_READ, syscall.MAP_SHARED); err != nil {
			m.failed = true
			m.cur.Store(nil)
			return nil, nil
		}
		m.extents = append(m.extents, data)
	}
	e := &extent{data: data, valid: size}
	m.cur.Store(e)
	return e, nil
}

// shrink caps what the mapping holds to be backed by the file at size, after
// a Truncate through this handle.
func (m *mapping) shrink(size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.cur.Load(); e != nil && e.valid > size {
		m.cur.Store(&extent{data: e.data, valid: size})
	}
}

// close marks the handle; the mapping goes now, or with the last pin.
func (m *mapping) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed = true; m.pins == 0 {
		m.unmapLocked()
	}
}

func (m *mapping) unmapLocked() {
	m.cur.Store(nil)
	for _, data := range m.extents {
		_ = syscall.Munmap(data) // nothing to do about it, nothing reads it again
	}
	m.extents = nil
}
