package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// RetryPolicy bounds how a RetryFS reacts to transient read failures.
type RetryPolicy struct {
	// Retries is the number of re-attempts after the first failed read.
	Retries int
	// Backoff is the delay before the first retry, doubling each attempt.
	Backoff time.Duration
}

// RetryFS wraps an FS with a bounded-retry policy on ReadAt: a transient
// device error (an injected EIO, a flaky NFS mount) is retried with
// exponential backoff instead of failing the query outright. Deterministic
// failures are never retried — ErrNotExist, ErrCorruptData (re-reading rot
// cannot help; surface it), ErrCrashed, and EOF-shaped short reads all
// pass straight through. Once the retry budget is exhausted the error
// becomes sticky on that file handle: subsequent reads fail immediately
// rather than re-paying the backoff, so a dead device degrades fast and
// loud.
//
// Writes are not retried: every write path in this codebase is already
// transactional (raw-log + manifest commits), so a failed write is surfaced to
// the caller's recovery logic instead of being papered over.
type RetryFS struct {
	inner  FS
	policy RetryPolicy
	sleep  func(time.Duration) // test seam; time.Sleep in production
}

// NewRetryFS wraps inner with the given policy.
func NewRetryFS(inner FS, policy RetryPolicy) *RetryFS {
	if policy.Retries < 0 {
		policy.Retries = 0
	}
	if policy.Backoff <= 0 {
		policy.Backoff = time.Millisecond
	}
	return &RetryFS{inner: inner, policy: policy, sleep: time.Sleep}
}

// retryableRead reports whether a failed read is worth re-attempting.
func retryableRead(err error) bool {
	return !(errors.Is(err, ErrNotExist) ||
		errors.Is(err, ErrCorruptData) ||
		errors.Is(err, ErrCrashed) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF))
}

func (r *RetryFS) Create(name string) (File, error) {
	f, err := r.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &retryFile{fs: r, inner: f}, nil
}

func (r *RetryFS) Open(name string) (File, error) {
	f, err := r.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &retryFile{fs: r, inner: f}, nil
}

func (r *RetryFS) Remove(name string) error     { return r.inner.Remove(name) }
func (r *RetryFS) Rename(old, new string) error { return r.inner.Rename(old, new) }
func (r *RetryFS) Exists(name string) bool      { return r.inner.Exists(name) }
func (r *RetryFS) Stats() *Stats                { return r.inner.Stats() }

type retryFile struct {
	fs    *RetryFS
	inner File

	mu     sync.Mutex
	sticky error
}

func (f *retryFile) Name() string { return f.inner.Name() }

func (f *retryFile) stuck() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sticky
}

// PinViews, UnpinViews and View forward the inner file's views, when it has
// any: a view cannot fail transiently, so there is nothing to retry, but a
// handle whose reads are spent serves no views either.
func (f *retryFile) PinViews() bool {
	v, ok := f.inner.(Viewer)
	return ok && v.PinViews()
}

func (f *retryFile) UnpinViews() { f.inner.(Viewer).UnpinViews() }

func (f *retryFile) View(off int64, n int) ([]byte, error) {
	if err := f.stuck(); err != nil {
		return nil, err
	}
	return f.inner.(Viewer).View(off, n)
}

func (f *retryFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.stuck(); err != nil {
		return 0, err
	}
	n, err := f.inner.ReadAt(p, off)
	if err == nil || !retryableRead(err) {
		return n, err
	}
	delay := f.fs.policy.Backoff
	for attempt := 0; attempt < f.fs.policy.Retries; attempt++ {
		f.fs.sleep(delay)
		delay *= 2
		n, err = f.inner.ReadAt(p, off)
		if err == nil || !retryableRead(err) {
			return n, err
		}
	}
	err = fmt.Errorf("storage: read %q: %d retries exhausted: %w", f.inner.Name(), f.fs.policy.Retries, err)
	f.mu.Lock()
	f.sticky = err
	f.mu.Unlock()
	return 0, err
}

func (f *retryFile) WriteAt(p []byte, off int64) (int, error) { return f.inner.WriteAt(p, off) }
func (f *retryFile) Size() (int64, error)                     { return f.inner.Size() }
func (f *retryFile) Truncate(size int64) error                { return f.inner.Truncate(size) }
func (f *retryFile) Sync() error                              { return f.inner.Sync() }
func (f *retryFile) Close() error                             { return f.inner.Close() }
