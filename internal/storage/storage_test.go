package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"
)

// fsFactories lets every test run against both backends.
func fsFactories(t *testing.T) map[string]func() FS {
	return map[string]func() FS{
		"mem": func() FS { return NewMemFS() },
		"os": func() FS {
			fs, err := NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			f, err := fs.Create("a.bin")
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("hello, storage engine")
			if _, err := f.WriteAt(payload, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			g, err := fs.Open("a.bin")
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			got := make([]byte, len(payload))
			if _, err := g.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("round trip mismatch: %q", got)
			}
			size, err := g.Size()
			if err != nil {
				t.Fatal(err)
			}
			if size != int64(len(payload)) {
				t.Fatalf("size %d, want %d", size, len(payload))
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("want ErrNotExist, got %v", err)
			}
			if err := fs.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("want ErrNotExist on remove, got %v", err)
			}
			if fs.Exists("nope") {
				t.Fatal("Exists must be false for missing file")
			}
		})
	}
}

func TestRemove(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			f, err := fs.Create("x")
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			if !fs.Exists("x") {
				t.Fatal("file should exist")
			}
			if err := fs.Remove("x"); err != nil {
				t.Fatal(err)
			}
			if fs.Exists("x") {
				t.Fatal("file should be gone")
			}
		})
	}
}

func TestTruncateGrowShrink(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			f, err := fs.Create("t")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{1, 2, 3, 4}, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(2); err != nil {
				t.Fatal(err)
			}
			if size, _ := f.Size(); size != 2 {
				t.Fatalf("size after shrink = %d", size)
			}
			if err := f.Truncate(8); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			want := []byte{1, 2, 0, 0, 0, 0, 0, 0}
			if !bytes.Equal(buf, want) {
				t.Fatalf("grown content %v, want %v", buf, want)
			}
		})
	}
}

func TestReadPastEOF(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			f, _ := fs.Create("e")
			defer f.Close()
			f.WriteAt([]byte{9, 9}, 0)
			buf := make([]byte, 4)
			n, err := f.ReadAt(buf, 0)
			if n != 2 || err != io.EOF {
				t.Fatalf("partial read: n=%d err=%v", n, err)
			}
			n, err = f.ReadAt(buf, 100)
			if n != 0 || err != io.EOF {
				t.Fatalf("read past EOF: n=%d err=%v", n, err)
			}
		})
	}
}

func TestSeqVsRandClassification(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("c")
	defer f.Close()
	chunk := make([]byte, 100)

	// Three appends in a row: first is "random" (first touch), rest sequential.
	f.WriteAt(chunk, 0)
	f.WriteAt(chunk, 100)
	f.WriteAt(chunk, 200)
	snap := fs.Stats().Snapshot()
	if snap.SeqWrites != 2 || snap.RandWrites != 1 {
		t.Fatalf("writes misclassified: %+v", snap)
	}

	// Jump backwards: random write.
	f.WriteAt(chunk, 0)
	snap = fs.Stats().Snapshot()
	if snap.RandWrites != 2 {
		t.Fatalf("backward write should be random: %+v", snap)
	}

	// Sequential scan.
	f.ReadAt(chunk, 0)
	f.ReadAt(chunk, 100)
	f.ReadAt(chunk, 200)
	snap = fs.Stats().Snapshot()
	if snap.RandReads != 1 || snap.SeqReads != 2 {
		t.Fatalf("reads misclassified: %+v", snap)
	}

	if snap.BytesWritten != 400 || snap.BytesRead != 300 {
		t.Fatalf("byte counts wrong: %+v", snap)
	}
}

func TestReadsAndWritesTrackedIndependently(t *testing.T) {
	// A builder appending while a scanner reads should not turn everything
	// into seeks.
	fs := NewMemFS()
	f, _ := fs.Create("i")
	defer f.Close()
	buf := make([]byte, 10)
	for i := 0; i < 5; i++ {
		f.WriteAt(buf, int64(i*10))
		if i > 0 {
			f.ReadAt(buf, int64((i-1)*10))
		}
	}
	snap := fs.Stats().Snapshot()
	if snap.RandWrites != 1 || snap.SeqWrites != 4 {
		t.Fatalf("interleaved writes misclassified: %+v", snap)
	}
	if snap.RandReads != 1 || snap.SeqReads != 3 {
		t.Fatalf("interleaved reads misclassified: %+v", snap)
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{Seek: 10 * time.Millisecond, ReadBandwidth: 1e6, WriteBandwidth: 1e6}
	snap := Snapshot{RandReads: 2, SeqReads: 10, BytesRead: 2e6, BytesWritten: 1e6}
	got := cm.Time(snap)
	want := 20*time.Millisecond + 2*time.Second + 1*time.Second
	if got != want {
		t.Fatalf("cost %v, want %v", got, want)
	}
	if snap.Seeks() != 2 {
		t.Fatalf("Seeks() = %d", snap.Seeks())
	}
	if snap.Ops() != 12 {
		t.Fatalf("Ops() = %d", snap.Ops())
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{RandReads: 5, SeqReads: 7, BytesRead: 100}
	b := Snapshot{RandReads: 2, SeqReads: 3, BytesRead: 40}
	d := a.Sub(b)
	if d.RandReads != 3 || d.SeqReads != 4 || d.BytesRead != 60 {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

func TestStatsReset(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("r")
	f.WriteAt([]byte{1}, 0)
	f.Close()
	fs.Stats().Reset()
	if snap := fs.Stats().Snapshot(); snap.Ops() != 0 || snap.BytesWritten != 0 {
		t.Fatalf("reset failed: %+v", snap)
	}
}

func TestFaultInjection(t *testing.T) {
	fs := NewMemFS()
	boom := errors.New("boom")
	var writes int
	fs.SetFault(func(op Op, name string, off int64, n int) error {
		if op == OpWrite {
			writes++
			if writes > 2 {
				return boom
			}
		}
		return nil
	})
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{2}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{3}, 2); !errors.Is(err, boom) {
		t.Fatalf("expected injected fault, got %v", err)
	}
	fs.SetFault(nil)
	if _, err := f.WriteAt([]byte{3}, 2); err != nil {
		t.Fatalf("fault should be cleared: %v", err)
	}
}

func TestSequentialWriterReader(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			f, _ := fs.Create("s")
			defer f.Close()
			w := NewSequentialWriter(f, 0, 64)
			rng := rand.New(rand.NewSource(1))
			var want []byte
			for i := 0; i < 50; i++ {
				chunk := make([]byte, rng.Intn(50))
				rng.Read(chunk)
				want = append(want, chunk...)
				if _, err := w.Write(chunk); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if w.Offset() != int64(len(want)) {
				t.Fatalf("offset %d, want %d", w.Offset(), len(want))
			}

			r := NewSequentialReader(f, 0, -1, 64)
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sequential round trip mismatch: %d vs %d bytes", len(got), len(want))
			}
		})
	}
}

func TestSequentialWriterBuffersWrites(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("b")
	defer f.Close()
	w := NewSequentialWriter(f, 0, 1024)
	one := []byte{0xAB}
	for i := 0; i < 1000; i++ {
		w.Write(one)
	}
	w.Flush()
	snap := fs.Stats().Snapshot()
	if snap.Ops() != 1 {
		t.Fatalf("1000 byte-writes should collapse into 1 device write, got %d ops", snap.Ops())
	}
}

func TestSequentialReaderBounded(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("lim")
	defer f.Close()
	f.WriteAt([]byte("0123456789"), 0)
	r := NewSequentialReader(f, 2, 5, 4)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "23456" {
		t.Fatalf("bounded read = %q", got)
	}
}

func TestWriteReadFileAll(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			data := []byte("all at once")
			if err := WriteFileAll(fs, "w", data); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFileAll(fs, "w")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("mismatch: %q", got)
			}
		})
	}
}

func TestMemFSTotalSize(t *testing.T) {
	fs := NewMemFS()
	WriteFileAll(fs, "a", make([]byte, 100))
	WriteFileAll(fs, "b", make([]byte, 50))
	if got := fs.TotalSize(); got != 150 {
		t.Fatalf("TotalSize = %d", got)
	}
	if got := fs.FileSize("a"); got != 100 {
		t.Fatalf("FileSize(a) = %d", got)
	}
	if got := fs.FileSize("zzz"); got != 0 {
		t.Fatalf("FileSize(missing) = %d", got)
	}
}

func TestConcurrentMemFSAccess(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("conc")
	defer f.Close()
	data := make([]byte, 1<<16)
	f.WriteAt(data, 0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 128)
			for i := 0; i < 200; i++ {
				off := int64(rng.Intn(1 << 15))
				if seed%2 == 0 {
					f.ReadAt(buf, off)
				} else {
					f.WriteAt(buf, off)
				}
			}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestTrackerTraceReplay replays one fixed single-stream trace of reads and
// writes — sequential stretches, seeks, rewinds, short reads at the end of the
// file, empty operations — on both backends and compares the counters with
// the numbers the mutex-guarded tracker (before the atomic Swap) produced for
// the same trace.
func TestTrackerTraceReplay(t *testing.T) {
	want := Snapshot{RandReads: 1452, SeqReads: 1253, RandWrites: 606, SeqWrites: 642, BytesRead: 671865, BytesWritten: 318955}
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			f, err := fs.Create("trace")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rng := rand.New(rand.NewSource(24))
			buf := make([]byte, 512)
			var rOff, wOff, size int64
			for i := 0; i < 4000; i++ {
				n := rng.Intn(len(buf)) // 0: an empty operation, not noted
				write := rng.Intn(3) == 0
				off := &rOff
				if write {
					off = &wOff
				}
				switch rng.Intn(4) {
				case 0: // seek
					*off = rng.Int63n(size + 1)
				case 1: // rewind
					*off = 0
				} // else continue where the stream left off
				if write {
					if _, err := f.WriteAt(buf[:n], *off); err != nil {
						t.Fatal(err)
					}
					*off += int64(n)
					size = max(size, *off)
				} else {
					got, _ := f.ReadAt(buf[:n], *off) // short at the end of the file
					*off += int64(got)
				}
			}
			if got := fs.Stats().Snapshot(); got != want {
				t.Fatalf("stats %+v, want %+v", got, want)
			}
		})
	}
}
