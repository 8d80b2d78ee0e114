package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// OSFS is a VFS backed by a directory on the host file system. It provides
// the same I/O accounting as MemFS so that experiments and examples can run
// against real files with identical instrumentation.
type OSFS struct {
	root  string
	stats Stats
}

// NewOSFS returns a VFS rooted at dir, creating it if needed.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir %q: %w", dir, err)
	}
	return &OSFS{root: dir}, nil
}

// Root returns the backing directory.
func (fs *OSFS) Root() string { return fs.root }

// Stats returns the file system's accumulated I/O statistics.
func (fs *OSFS) Stats() *Stats { return &fs.stats }

func (fs *OSFS) path(name string) string { return filepath.Join(fs.root, name) }

// Create creates or truncates the named file.
func (fs *OSFS) Create(name string) (File, error) {
	f, err := os.Create(fs.path(name))
	if err != nil {
		return nil, fmt.Errorf("storage: create %q: %w", name, err)
	}
	return &osFile{f: f, name: name, trk: newTracker(&fs.stats)}, nil
}

// Open opens an existing file for reading and writing.
func (fs *OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(fs.path(name), os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("storage: open %q: %w", name, ErrNotExist)
		}
		return nil, fmt.Errorf("storage: open %q: %w", name, err)
	}
	return &osFile{f: f, name: name, trk: newTracker(&fs.stats)}, nil
}

// Remove deletes the named file.
func (fs *OSFS) Remove(name string) error {
	if err := os.Remove(fs.path(name)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("storage: remove %q: %w", name, ErrNotExist)
		}
		return fmt.Errorf("storage: remove %q: %w", name, err)
	}
	return nil
}

// Rename atomically moves oldname to newname via the OS rename system
// call, displacing any existing file at newname, then fsyncs the directory
// so the rename itself is durable. On POSIX file systems rename is atomic,
// which makes write-temp-then-rename a crash-safe commit.
func (fs *OSFS) Rename(oldname, newname string) error {
	if err := os.Rename(fs.path(oldname), fs.path(newname)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("storage: rename %q: %w", oldname, ErrNotExist)
		}
		return fmt.Errorf("storage: rename %q: %w", oldname, err)
	}
	d, err := os.Open(fs.root)
	if err != nil {
		return fmt.Errorf("storage: rename %q: syncing directory: %w", oldname, err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("storage: rename %q: syncing directory: %w", oldname, serr)
	}
	return nil
}

// Exists reports whether the named file exists.
func (fs *OSFS) Exists(name string) bool {
	_, err := os.Stat(fs.path(name))
	return err == nil
}

// Names returns every regular file in the backing directory, sorted — the
// same listing MemFS.Names provides, used by the backend parity tests.
func (fs *OSFS) Names() []string {
	entries, err := os.ReadDir(fs.root)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

type osFile struct {
	f     *os.File
	name  string
	trk   tracker
	views mapping // behind the Viewer methods, where the platform has them
}

func (f *osFile) Name() string { return f.name }

func (f *osFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	f.trk.noteRead(off, n)
	return n, err
}

func (f *osFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.f.WriteAt(p, off)
	f.trk.noteWrite(off, n)
	return n, err
}

func (f *osFile) Size() (int64, error) {
	info, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (f *osFile) Truncate(size int64) error {
	err := f.f.Truncate(size)
	f.views.shrink(size)
	return err
}

// Sync flushes the file to stable storage via fsync.
func (f *osFile) Sync() error { return f.f.Sync() }

func (f *osFile) Close() error {
	f.views.close()
	return f.f.Close()
}
