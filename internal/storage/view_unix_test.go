//go:build unix

package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// viewFile writes size patterned bytes to name on a fresh OSFS and reopens it.
func viewFile(t *testing.T, size int) (*OSFS, File, []byte) {
	t.Helper()
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := WriteFileAll(fs, "raw", data); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("raw")
	if err != nil {
		t.Fatal(err)
	}
	fs.Stats().Reset()
	return fs, f, data
}

// mapped reports whether this process maps the named file (Linux only: it
// answers false, and the callers' positive checks are skipped, elsewhere).
func mapped(path string) (yes, known bool) {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return false, false
	}
	return strings.Contains(string(maps), path), true
}

// TestViewsMatchReadAt: the same trace of reads — in-range, sequential and
// random, one reaching past the end of the file — through views and through a
// wrapper that hides them returns the same bytes and errors and leaves the
// same counters.
func TestViewsMatchReadAt(t *testing.T) {
	type read struct{ off, n int64 }
	trace := []read{{0, 100}, {100, 50}, {4096, 4096}, {10, 1}, {11, 9000}, {19990, 10}, {19990, 11}, {30000, 8}, {0, 20000}}
	replay := func(hide bool) (out [][]byte, errs []error, snap Snapshot) {
		fs, f, _ := viewFile(t, 20000)
		defer f.Close()
		if hide {
			f = struct{ File }{f}
		}
		var fault error
		v := PinViews(f)
		defer v.Release(&fault)
		for _, r := range trace {
			b, err := v.Read(r.off, make([]byte, r.n))
			out, errs = append(out, bytes.Clone(b)), append(errs, err)
		}
		return out, errs, fs.Stats().Snapshot()
	}
	viewed, verrs, vsnap := replay(false)
	copied, cerrs, csnap := replay(true)
	for i := range trace {
		if !bytes.Equal(viewed[i], copied[i]) || !errors.Is(verrs[i], cerrs[i]) {
			t.Errorf("read %v: view (%d bytes, %v), ReadAt (%d bytes, %v)", trace[i], len(viewed[i]), verrs[i], len(copied[i]), cerrs[i])
		}
	}
	if !errors.Is(verrs[6], io.ErrUnexpectedEOF) || !errors.Is(verrs[7], io.ErrUnexpectedEOF) {
		t.Errorf("views past the end: %v, %v, want io.ErrUnexpectedEOF", verrs[6], verrs[7])
	}
	if vsnap != csnap || vsnap.BytesRead == 0 {
		t.Errorf("counters differ: views %v, ReadAt %v", vsnap, csnap)
	}
}

// TestViewGrowthKeepsOldSlices: a view past the mapped size finds bytes
// appended since — within the extent's headroom and past it — and slices handed
// out before stay readable; a Truncate through the handle is honoured.
func TestViewGrowthKeepsOldSlices(t *testing.T) {
	_, f, data := viewFile(t, 5000)
	defer f.Close()
	var fault error
	v := PinViews(f)
	defer v.Release(&fault)
	first, err := v.Read(0, make([]byte, 5000))
	if err != nil {
		t.Fatal(err)
	}
	for size := int64(5000); size < 200000; size *= 3 { // 2x headroom: every other step remaps
		more := bytes.Repeat([]byte{byte(size)}, int(2*size))
		if _, err := f.WriteAt(more, size); err != nil {
			t.Fatal(err)
		}
		got, err := v.Read(size, make([]byte, len(more)))
		if err != nil || !bytes.Equal(got, more) {
			t.Fatalf("view of bytes appended at %d: %v", size, err)
		}
	}
	if !bytes.Equal(first, data) {
		t.Fatal("a slice of a superseded extent changed")
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(90, make([]byte, 20)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("view past a Truncate: %v, want io.ErrUnexpectedEOF", err)
	}
	if fault != nil {
		t.Fatal(fault)
	}
}

// TestViewPinOutlivesClose: Close under a pin leaves the mapping — slices
// stay readable — and refuses new pins; the last unpin unmaps.
func TestViewPinOutlivesClose(t *testing.T) {
	fs, f, data := viewFile(t, 10000)
	path := filepath.Join(fs.Root(), "raw")
	var fault error
	v := PinViews(f)
	b, err := v.Read(0, make([]byte, len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if yes, known := mapped(path); known && !yes {
		t.Fatal("Close unmapped a pinned file")
	}
	if !bytes.Equal(b, data) {
		t.Fatal("view changed across Close")
	}
	if f.(Viewer).PinViews() {
		t.Fatal("a closed handle gave out a pin")
	}
	if _, err := v.Read(0, make([]byte, 20000)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("growing a closed handle's mapping: %v, want os.ErrClosed", err)
	}
	v.Release(&fault)
	if yes, _ := mapped(path); yes || fault != nil {
		t.Fatalf("after the last unpin: still mapped %v, fault %v", yes, fault)
	}
}

// TestViewFaultIsAnError: a page that cannot be filled — the file truncated
// by someone else — is an error from Release, wrapping io.ErrUnexpectedEOF,
// and other panics pass through it.
func TestViewFaultIsAnError(t *testing.T) {
	fs, f, _ := viewFile(t, 1<<16)
	defer f.Close()
	scan := func() (sum int, err error) {
		v := PinViews(f)
		defer v.Release(&err)
		b, err := v.Read(1<<15, make([]byte, 1<<15))
		if err != nil {
			return 0, err
		}
		for _, c := range b {
			sum += int(c)
		}
		return sum, nil
	}
	if _, err := scan(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(fs.Root(), "raw"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := scan(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("scan of a truncated mapping: %v, want io.ErrUnexpectedEOF", err)
	}
	defer func() {
		if r := recover(); r != "not a fault" {
			t.Fatalf("recovered %v, want the scan's own panic", r)
		}
		if !f.(Viewer).PinViews() {
			t.Fatal("the panicking scan's pin was not returned")
		}
		f.(Viewer).UnpinViews()
	}()
	var err error
	defer PinViews(f).Release(&err)
	panic("not a fault")
}
