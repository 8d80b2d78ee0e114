// Package storage provides the storage engine underneath every index in
// this repository: a small virtual file system (VFS) abstraction with two
// backends (an in-memory simulated disk and the host OS file system), full
// I/O accounting, and an explicit HDD cost model.
//
// The Coconut paper's analysis is phrased in the disk access model
// (Aggarwal & Vitter): what matters is how many block transfers an
// algorithm performs and whether they are sequential or random. The VFS
// classifies every read/write as sequential (contiguous with the previous
// access to the same file) or random (requiring a seek), so experiments can
// report the exact quantities the paper reasons about — deterministically
// and at laptop scale — alongside wall-clock time.
package storage

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// File is the random-access file handle used by all indexes.
//
// Implementations classify each access as sequential or random with respect
// to the previous access on the same handle and update the owning FS's
// Stats.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Size returns the current length of the file in bytes.
	Size() (int64, error)
	// Truncate changes the size of the file.
	Truncate(size int64) error
	// Sync flushes the file's contents to stable storage (fsync). The
	// durable-lifecycle commit protocol syncs every file before a manifest
	// references it, so a power loss cannot leave a committed manifest
	// pointing at unwritten bytes.
	Sync() error
}

// FS is the virtual file system interface.
type FS interface {
	// Create creates (or truncates) a file.
	Create(name string) (File, error)
	// Open opens an existing file for reading and writing.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically replaces newname with oldname (POSIX rename
	// semantics: if newname exists it is displaced in one step, and a crash
	// leaves either the old or the new content under newname, never a mix).
	// It is the commit primitive for crash-safe metadata updates.
	Rename(oldname, newname string) error
	// Exists reports whether a file exists.
	Exists(name string) bool
	// Stats returns the accumulated I/O statistics of this file system.
	Stats() *Stats
}

// ErrNotExist is returned when opening or removing a missing file.
var ErrNotExist = errors.New("storage: file does not exist")

// Stats accumulates I/O counters. All fields are safe for concurrent use.
//
// A "random" operation is one whose start offset differs from the end
// offset of the previous operation on the same file handle (i.e., the disk
// arm would have to seek). Sequential operations continue where the last
// one ended.
type Stats struct {
	RandReads    atomic.Int64
	SeqReads     atomic.Int64
	RandWrites   atomic.Int64
	SeqWrites    atomic.Int64
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// Snapshot is an immutable copy of Stats, convenient for diffing before and
// after a phase of an experiment.
type Snapshot struct {
	RandReads    int64
	SeqReads     int64
	RandWrites   int64
	SeqWrites    int64
	BytesRead    int64
	BytesWritten int64
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		RandReads:    s.RandReads.Load(),
		SeqReads:     s.SeqReads.Load(),
		RandWrites:   s.RandWrites.Load(),
		SeqWrites:    s.SeqWrites.Load(),
		BytesRead:    s.BytesRead.Load(),
		BytesWritten: s.BytesWritten.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.RandReads.Store(0)
	s.SeqReads.Store(0)
	s.RandWrites.Store(0)
	s.SeqWrites.Store(0)
	s.BytesRead.Store(0)
	s.BytesWritten.Store(0)
}

// Sub returns the component-wise difference a-b.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		RandReads:    a.RandReads - b.RandReads,
		SeqReads:     a.SeqReads - b.SeqReads,
		RandWrites:   a.RandWrites - b.RandWrites,
		SeqWrites:    a.SeqWrites - b.SeqWrites,
		BytesRead:    a.BytesRead - b.BytesRead,
		BytesWritten: a.BytesWritten - b.BytesWritten,
	}
}

// Seeks returns the total number of random (seek-requiring) operations.
func (a Snapshot) Seeks() int64 { return a.RandReads + a.RandWrites }

// Ops returns the total number of I/O operations.
func (a Snapshot) Ops() int64 {
	return a.RandReads + a.SeqReads + a.RandWrites + a.SeqWrites
}

func (a Snapshot) String() string {
	return fmt.Sprintf("reads(rand=%d seq=%d) writes(rand=%d seq=%d) bytes(r=%d w=%d)",
		a.RandReads, a.SeqReads, a.RandWrites, a.SeqWrites, a.BytesRead, a.BytesWritten)
}

// CostModel charges simulated time to an I/O trace: every random operation
// pays one seek, and all bytes pay the device bandwidth. This is the
// standard first-order model of a spinning disk and is what makes the
// O(N) random I/Os vs O(N/B) sequential I/Os asymmetry of the paper visible
// without a 10 TB RAID array.
type CostModel struct {
	// Seek is the latency charged per random operation.
	Seek time.Duration
	// ReadBandwidth is the sequential read throughput in bytes/second.
	ReadBandwidth float64
	// WriteBandwidth is the sequential write throughput in bytes/second.
	WriteBandwidth float64
}

// DefaultHDD approximates the paper's 7200 RPM SATA drives.
func DefaultHDD() CostModel {
	return CostModel{
		Seek:           8 * time.Millisecond,
		ReadBandwidth:  150e6,
		WriteBandwidth: 150e6,
	}
}

// DefaultSSD approximates a SATA SSD (for ablations on device type).
func DefaultSSD() CostModel {
	return CostModel{
		Seek:           80 * time.Microsecond,
		ReadBandwidth:  500e6,
		WriteBandwidth: 450e6,
	}
}

// Time returns the simulated elapsed time for the I/O in snap.
func (c CostModel) Time(snap Snapshot) time.Duration {
	d := time.Duration(snap.Seeks()) * c.Seek
	if c.ReadBandwidth > 0 {
		d += time.Duration(float64(snap.BytesRead) / c.ReadBandwidth * float64(time.Second))
	}
	if c.WriteBandwidth > 0 {
		d += time.Duration(float64(snap.BytesWritten) / c.WriteBandwidth * float64(time.Second))
	}
	return d
}

// tracker classifies accesses on a single file handle and feeds Stats.
type tracker struct {
	stats *Stats
	// nextRead/nextWrite hold one more than the offset at which the next
	// read/write would be sequential; zero, no access yet, matches no
	// offset, so the first access on a handle always counts as a seek (the
	// arm has to position itself somewhere). They are tracked separately: a
	// builder that appends to a file while a scanner reads it should not see
	// every operation as a seek caused by the other stream. One Swap per
	// access classifies any single stream exactly and keeps concurrent
	// streams on one handle off a lock.
	nextRead  atomic.Int64
	nextWrite atomic.Int64
}

func newTracker(stats *Stats) tracker { return tracker{stats: stats} }

func (t *tracker) noteRead(off int64, n int) {
	if n <= 0 {
		return
	}
	if t.nextRead.Swap(off+int64(n)+1) == off+1 {
		t.stats.SeqReads.Add(1)
	} else {
		t.stats.RandReads.Add(1)
	}
	t.stats.BytesRead.Add(int64(n))
}

func (t *tracker) noteWrite(off int64, n int) {
	if n <= 0 {
		return
	}
	if t.nextWrite.Swap(off+int64(n)+1) == off+1 {
		t.stats.SeqWrites.Add(1)
	} else {
		t.stats.RandWrites.Add(1)
	}
	t.stats.BytesWritten.Add(int64(n))
}
