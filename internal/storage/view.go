package storage

import (
	"fmt"
	"io"
	"runtime/debug"
)

// Viewer is the optional zero-copy read capability of a File: byte ranges
// served as slices of a read-only shared mapping instead of copied out by
// ReadAt. OSFS files offer it on unix; MemFS and FaultFS files do not (their
// bytes are rewritten in place, and fault injection counts ReadAts), and a
// wrapper that does not forward these methods hides it. Callers go through
// PinViews, which owns the pin and fault discipline below.
type Viewer interface {
	// PinViews keeps the mapping, and every slice View hands out, valid until
	// the matching UnpinViews — across a Close of the handle too, which only
	// unmaps once the last pin is gone. It reports false, and takes no pin,
	// when the handle offers no views: closed, or its mmap failed once.
	PinViews() bool
	UnpinViews()
	// View returns the n bytes at off, accounted exactly as the ReadAt it
	// replaces. It may only be called under a pin. A range past the end of
	// the file is io.ErrUnexpectedEOF; a nil slice with a nil error means
	// the handle cannot map (for good) and the caller reads instead. A page
	// the kernel cannot fill (the file truncated underneath, a device error)
	// faults when it is touched, not here.
	View(off int64, n int) ([]byte, error)
}

// Views is one scan's read access to a file: zero-copy while the file
// offers views, through ReadAt otherwise.
type Views struct {
	f    File
	v    Viewer // nil: every Read copies
	prev bool   // the goroutine's SetPanicOnFault setting before the pin
}

// PinViews opens one scan over f on the calling goroutine, which must
// release it: defer PinViews(f).Release(&err). Between the two, a fault on a
// mapped page panics instead of killing the process, and Release reports it.
func PinViews(f File) Views {
	if v, ok := f.(Viewer); ok && v.PinViews() {
		return Views{f: f, v: v, prev: debug.SetPanicOnFault(true)}
	}
	return Views{f: f}
}

// Read returns the len(buf) bytes at off: a view when the file offers one —
// buf untouched, the slice valid until Release — else buf, filled by ReadAt.
// A short read is io.ErrUnexpectedEOF either way.
func (p Views) Read(off int64, buf []byte) ([]byte, error) { return p.ReadGrow(off, len(buf), &buf) }

// ReadGrow is Read of the n bytes at off into *buf, which it makes, or
// grows, to n bytes only when the file serves no view: a scan over a mapped
// file allocates no read buffer at all.
func (p Views) ReadGrow(off int64, n int, buf *[]byte) ([]byte, error) {
	if p.v != nil {
		if b, err := p.v.View(off, n); b != nil || err != nil {
			return b, err
		}
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if m, err := p.f.ReadAt(b, off); m != n {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// Release ends the scan; it must be the deferred call itself. A fault taken
// on a view since PinViews becomes *errp, wrapping io.ErrUnexpectedEOF —
// what ReadAt reports for the truncation that most often causes it.
func (p Views) Release(errp *error) {
	if p.v == nil {
		return
	}
	debug.SetPanicOnFault(p.prev)
	r := recover()
	p.v.UnpinViews()
	if r == nil {
		return
	}
	fault, ok := r.(interface {
		error
		Addr() uintptr // only the runtime's fault errors carry one
	})
	if !ok {
		panic(r)
	}
	*errp = fmt.Errorf("storage: %q: mapped read faulted at %#x (%v): %w", p.f.Name(), fault.Addr(), fault, io.ErrUnexpectedEOF)
}
