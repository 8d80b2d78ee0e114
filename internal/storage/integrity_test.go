package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// writeChecksummed builds a checksum file on fs with the given block size
// and payload, appending in the given chunk sizes, syncing, and closing.
func writeChecksummed(t *testing.T, fs FS, name string, block int, payload []byte, chunk int) {
	t.Helper()
	inner, err := fs.Create(name)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cf, err := CreateChecksumFile(inner, block)
	if err != nil {
		t.Fatalf("CreateChecksumFile: %v", err)
	}
	for off := 0; off < len(payload); off += chunk {
		end := min(off+chunk, len(payload))
		if n, err := cf.WriteAt(payload[off:end], int64(off)); err != nil || n != end-off {
			t.Fatalf("append at %d: n=%d err=%v", off, n, err)
		}
	}
	if err := cf.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := cf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestChecksumFileRoundTrip(t *testing.T) {
	for _, tc := range []struct{ block, size, chunk int }{
		{16, 0, 7},   // empty file
		{16, 16, 16}, // exactly one block
		{16, 100, 7}, // ragged appends, partial tail
		{64, 64 * 5, 64},
		{33, 1000, 501}, // chunks spanning several blocks
	} {
		name := fmt.Sprintf("b%d_s%d_c%d", tc.block, tc.size, tc.chunk)
		t.Run(name, func(t *testing.T) {
			fs := NewMemFS()
			payload := make([]byte, tc.size)
			for i := range payload {
				payload[i] = byte(i * 31)
			}
			writeChecksummed(t, fs, "f", tc.block, payload, tc.chunk)

			inner, err := fs.Open("f")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			cf, err := OpenChecksumFile(inner)
			if err != nil {
				t.Fatalf("OpenChecksumFile: %v", err)
			}
			if cf.BlockSize() != tc.block {
				t.Fatalf("block size %d, want %d", cf.BlockSize(), tc.block)
			}
			if size, _ := cf.Size(); size != int64(tc.size) {
				t.Fatalf("logical size %d, want %d", size, tc.size)
			}
			// Whole-file read plus a sweep of unaligned windows.
			got := make([]byte, tc.size)
			if tc.size > 0 {
				if n, err := cf.ReadAt(got, 0); err != nil || n != tc.size {
					t.Fatalf("read all: n=%d err=%v", n, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatal("payload mismatch on full read")
				}
			}
			for off := 0; off < tc.size; off += 13 {
				win := make([]byte, min(29, tc.size-off))
				if n, err := cf.ReadAt(win, int64(off)); err != nil || n != len(win) {
					t.Fatalf("read [%d,+%d): n=%d err=%v", off, len(win), n, err)
				}
				if !bytes.Equal(win, payload[off:off+len(win)]) {
					t.Fatalf("payload mismatch at window %d", off)
				}
			}
			// Reading past EOF yields io.EOF, short reads report it too.
			if _, err := cf.ReadAt(make([]byte, 1), int64(tc.size)); err != io.EOF {
				t.Fatalf("read at EOF: %v, want io.EOF", err)
			}
			if blocks, err := VerifyChecksumBlocks(inner); err != nil {
				t.Fatalf("VerifyChecksumBlocks: blocks=%d err=%v", blocks, err)
			}
			cf.Close()
		})
	}
}

func TestChecksumFileDetectsRot(t *testing.T) {
	const block, size = 32, 200
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Rot every byte position in turn (header, CRCs, payloads, tail) and
	// assert the read path yields ErrCorruptData — never wrong bytes.
	pristineFS := NewMemFS()
	writeChecksummed(t, pristineFS, "f", block, payload, 17)
	pristine, err := ReadFileAll(pristineFS, "f")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(pristine); off++ {
		fs := NewMemFS()
		if err := WriteFileAll(fs, "f", pristine); err != nil {
			t.Fatal(err)
		}
		ff := NewFaultFS(fs)
		if err := ff.Rot("f", int64(off), 1); err != nil {
			t.Fatalf("rot at %d: %v", off, err)
		}
		inner, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		cf, err := OpenChecksumFile(inner)
		if err != nil {
			if !errors.Is(err, ErrCorruptData) {
				t.Fatalf("rot at %d: open error %v is not ErrCorruptData", off, err)
			}
			inner.Close()
			continue
		}
		got := make([]byte, size)
		n, err := cf.ReadAt(got, 0)
		switch {
		case err == nil && n == size:
			if !bytes.Equal(got, payload) {
				t.Fatalf("rot at %d: silent wrong answer", off)
			}
			t.Fatalf("rot at %d: read succeeded with matching bytes — rot not applied?", off)
		case errors.Is(err, ErrCorruptData):
			// detected, as required
		default:
			t.Fatalf("rot at %d: unexpected error %v", off, err)
		}
		if _, err := VerifyChecksumBlocks(inner); !errors.Is(err, ErrCorruptData) {
			t.Fatalf("rot at %d: VerifyChecksumBlocks error %v is not ErrCorruptData", off, err)
		}
		cf.Close()
	}
}

// TestChecksumFileReadBuffer reads on both sides of maxPooledRead: same
// bytes and the same rot detection through the pooled and the allocated
// buffer, and no allocation on the pooled side.
func TestChecksumFileReadBuffer(t *testing.T) {
	const block = 4096
	pooled := maxPooledRead / (block + checksumCRCSize) // blocks the largest pooled read spans
	payload := make([]byte, (pooled+3)*block)
	for i := range payload {
		payload[i] = byte(i * 131 >> 3)
	}
	fs := NewMemFS()
	writeChecksummed(t, fs, "f", block, payload, 10000)
	inner, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	cf, err := OpenChecksumFile(inner)
	if err != nil {
		t.Fatal(err)
	}
	// From the middle of block 1: spans blocks [1, nBlocks].
	read := func(nBlocks int) ([]byte, error) {
		p := make([]byte, (nBlocks-1)*block)
		_, err := cf.ReadAt(p, block+block/2)
		return p, err
	}
	for _, n := range []int{1, pooled, pooled + 1, pooled + 2} {
		got, err := read(n)
		if err != nil || !bytes.Equal(got, payload[block+block/2:][:len(got)]) {
			t.Fatalf("read spanning %d blocks: err %v, bytes equal %v", n, err, err == nil)
		}
	}
	p := make([]byte, (pooled-1)*block)
	if a := testing.AllocsPerRun(50, func() { cf.ReadAt(p, block+block/2) }); a != 0 {
		t.Errorf("read spanning %d blocks (%d framed bytes, pooled) allocates %v times", pooled, pooled*(block+checksumCRCSize), a)
	}
	p = make([]byte, pooled*block)
	if a := testing.AllocsPerRun(50, func() { cf.ReadAt(p, block+block/2) }); a != 1 {
		t.Errorf("read spanning %d blocks (over maxPooledRead) allocates %v times, want its one buffer", pooled+1, a)
	}
	// Rot is detected through either buffer, and only by reads that touch it.
	if err := NewFaultFS(fs).Rot("f", cf.phys(int64(pooled))+checksumCRCSize+7, 1); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{pooled, pooled + 1} {
		if _, err := read(n); !errors.Is(err, ErrCorruptData) {
			t.Fatalf("rot in block %d, read spanning blocks [1, %d]: %v", pooled, n, err)
		}
	}
	if _, err := read(pooled - 1); err != nil {
		t.Fatalf("read short of the rot: %v", err)
	}
}

func TestChecksumFileRewriteAndAlignment(t *testing.T) {
	fs := NewMemFS()
	const block = 16
	payload := bytes.Repeat([]byte{1}, block*3)
	writeChecksummed(t, fs, "f", block, payload, len(payload))
	inner, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	cf, err := OpenChecksumFile(inner)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-block rewrite succeeds and reads back verified.
	newBlock := bytes.Repeat([]byte{9}, block)
	if _, err := cf.WriteAt(newBlock, block); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got := make([]byte, block)
	if _, err := cf.ReadAt(got, block); err != nil || !bytes.Equal(got, newBlock) {
		t.Fatalf("read back rewrite: %v", err)
	}
	// Misaligned or mid-file writes are rejected.
	for _, bad := range []struct {
		off int64
		n   int
	}{{1, block}, {block, block - 1}, {int64(block * 10), block}} {
		if _, err := cf.WriteAt(make([]byte, bad.n), bad.off); err == nil {
			t.Fatalf("write off=%d len=%d unexpectedly succeeded", bad.off, bad.n)
		}
	}
	cf.Close()
}

func TestChecksumFileTornTail(t *testing.T) {
	// A file cut mid-block (1..4 stray bytes after the last full block)
	// must open as corrupt, not as a shorter valid file.
	fs := NewMemFS()
	payload := bytes.Repeat([]byte{7}, 40)
	writeChecksummed(t, fs, "f", 16, payload, 40)
	data, err := ReadFileAll(fs, "f")
	if err != nil {
		t.Fatal(err)
	}
	full := ChecksumHeaderSize + (4 + 16) // one full block
	for cut := full + 1; cut <= full+4; cut++ {
		fs2 := NewMemFS()
		if err := WriteFileAll(fs2, "f", data[:cut]); err != nil {
			t.Fatal(err)
		}
		inner, err := fs2.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenChecksumFile(inner); !errors.Is(err, ErrCorruptData) {
			t.Fatalf("cut=%d: open error %v is not ErrCorruptData", cut, err)
		}
		inner.Close()
	}
}

func TestRecordSumsLifecycle(t *testing.T) {
	fs := NewMemFS()
	const recSize = 8
	raw := func() File {
		f, err := fs.Open("raw")
		if err != nil {
			t.Fatalf("open raw: %v", err)
		}
		return f
	}
	// Build over 10 records.
	f, err := fs.Create("raw")
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, recSize) }
	for i := 0; i < 10; i++ {
		if _, err := f.WriteAt(rec(i), int64(i*recSize)); err != nil {
			t.Fatal(err)
		}
	}
	f.Sync()
	f.Close()
	rs, err := BuildRecordSums(fs, "raw", recSize)
	if err != nil {
		t.Fatalf("BuildRecordSums: %v", err)
	}
	if rs.Records() != 10 {
		t.Fatalf("records %d, want 10", rs.Records())
	}
	for i := 0; i < 10; i++ {
		if err := rs.Verify(int64(i), rec(i)); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	if err := rs.Verify(3, rec(4)); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("wrong bytes verify error %v, want ErrCorruptData", err)
	}
	if err := rs.Verify(10, rec(0)); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("out-of-range verify error %v, want ErrCorruptData", err)
	}
	// Reopen, extend the raw file, reconcile, flush, reopen again.
	rs2, err := OpenRecordSums(fs, "raw", recSize)
	if err != nil {
		t.Fatalf("OpenRecordSums: %v", err)
	}
	f = raw()
	for i := 10; i < 14; i++ {
		if _, err := f.WriteAt(rec(i), int64(i*recSize)); err != nil {
			t.Fatal(err)
		}
	}
	f.Sync()
	if err := rs2.Reconcile(f, 14); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	f.Close()
	if err := rs2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n, err := VerifyRecordSums(fs, "raw", recSize); err != nil || n != 14 {
		t.Fatalf("VerifyRecordSums: n=%d err=%v", n, err)
	}
	// Rot one raw byte: VerifyRecordSums and Verify must both catch it.
	ff := NewFaultFS(fs)
	if err := ff.Rot("raw", 5*recSize+2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyRecordSums(fs, "raw", recSize); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("rotted raw: VerifyRecordSums error %v, want ErrCorruptData", err)
	}
	// A torn sidecar tail (crashed flush) is dropped and reconciled.
	side := RecordSumsName("raw")
	data, err := ReadFileAll(fs, side)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAll(fs, side, data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}
	rs3, err := OpenRecordSums(fs, "raw", recSize)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	if rs3.Records() != 13 {
		t.Fatalf("after torn tail: records %d, want 13", rs3.Records())
	}
	// A mangled header is typed corruption.
	if err := WriteFileAll(fs, side, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRecordSums(fs, "raw", recSize); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("mangled header error %v, want ErrCorruptData", err)
	}
	// A missing sidecar is ErrNotExist so callers can rebuild.
	if err := fs.Remove(side); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRecordSums(fs, "raw", recSize); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing sidecar error %v, want ErrNotExist", err)
	}
}

// TestRecordSumsFillMatchesBuild: a sidecar filled range by range — the way
// a build's summarization workers fill it, concurrently over disjoint
// blocks — flushes to exactly the file BuildRecordSums writes: over a clean
// raw file, with a torn trailing partial record, and over a stale sidecar
// left by a longer dataset.
func TestRecordSumsFillMatchesBuild(t *testing.T) {
	const recSize, records = 24, 1000
	for _, tc := range []struct {
		name  string
		torn  int // stray bytes after the last whole record
		stale int // entries of a sidecar already on disk
	}{{"clean", 0, 0}, {"torn-tail", 7, 0}, {"stale-longer-sidecar", 0, records + 50}} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewMemFS()
			data := make([]byte, records*recSize+tc.torn)
			for i := range data {
				data[i] = byte(i*7 + i>>8)
			}
			if err := WriteFileAll(fs, "raw", data); err != nil {
				t.Fatal(err)
			}
			if tc.stale > 0 {
				if err := WriteFileAll(fs, "longer", make([]byte, tc.stale*recSize)); err != nil {
					t.Fatal(err)
				}
				if _, err := BuildRecordSums(fs, "longer", recSize); err != nil {
					t.Fatal(err)
				}
				if err := fs.Rename(RecordSumsName("longer"), RecordSumsName("raw")); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := fs.Open("raw")
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			rs, err := NewRecordSums(fs, "raw", recSize, raw)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Records() != records {
				t.Fatalf("table sized for %d records, want %d", rs.Records(), records)
			}
			const block = 96 // records per Fill, as uneven as a last pipeline block
			var wg sync.WaitGroup
			for base := 0; base < records; base += block {
				wg.Add(1)
				go func(base int) {
					defer wg.Done()
					end := min(base+block, records)
					rs.Fill(int64(base), data[base*recSize:end*recSize])
				}(base)
			}
			wg.Wait()
			if err := rs.Flush(); err != nil {
				t.Fatal(err)
			}
			fused, err := ReadFileAll(fs, RecordSumsName("raw"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := BuildRecordSums(fs, "raw", recSize); err != nil {
				t.Fatal(err)
			}
			want, err := ReadFileAll(fs, RecordSumsName("raw"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fused, want) {
				t.Fatalf("fused sidecar (%d bytes) differs from BuildRecordSums's (%d bytes)", len(fused), len(want))
			}
			if len(want) != RecordSumsHeaderSize+4*records {
				t.Fatalf("sidecar is %d bytes, want %d", len(want), RecordSumsHeaderSize+4*records)
			}
			if n, err := VerifyRecordSums(fs, "raw", recSize); err != nil || n != records {
				t.Fatalf("VerifyRecordSums: n=%d err=%v", n, err)
			}
		})
	}
}

func TestRetryFSRecoversTransientAndSticksAfterExhaustion(t *testing.T) {
	mem := NewMemFS()
	if err := WriteFileAll(mem, "f", bytes.Repeat([]byte{5}, 64)); err != nil {
		t.Fatal(err)
	}
	ff := NewFaultFS(mem)
	ff.SetCounted(OpRead)

	var slept []time.Duration
	rfs := NewRetryFS(ff, RetryPolicy{Retries: 3, Backoff: time.Millisecond})
	rfs.sleep = func(d time.Duration) { slept = append(slept, d) }

	f, err := rfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	// One injected EIO: the first read fails, the retry succeeds.
	ff.FailAt(ff.OpCount() + 1)
	buf := make([]byte, 8)
	if n, err := f.ReadAt(buf, 0); err != nil || n != 8 {
		t.Fatalf("read with transient fault: n=%d err=%v", n, err)
	}
	if len(slept) != 1 || slept[0] != time.Millisecond {
		t.Fatalf("backoff sleeps %v, want [1ms]", slept)
	}
	// EOF-shaped and corruption errors are never retried.
	slept = nil
	if _, err := f.ReadAt(make([]byte, 8), 1000); err != io.EOF {
		t.Fatalf("EOF read: %v", err)
	}
	if len(slept) != 0 {
		t.Fatalf("EOF read slept %v, want none", slept)
	}
	// A persistent fault exhausts the budget with doubling backoff and the
	// handle goes sticky: the next read fails without touching the device.
	ff.Crash()
	_, err = f.ReadAt(buf, 0)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashed read error %v, want ErrCrashed", err)
	}
	if len(slept) != 0 {
		t.Fatalf("ErrCrashed retried: slept %v", slept)
	}
	// ErrCrashed is non-retryable; use a second FaultFS layer for a
	// generic persistent error instead.
	mem2 := NewMemFS()
	if err := WriteFileAll(mem2, "g", bytes.Repeat([]byte{6}, 16)); err != nil {
		t.Fatal(err)
	}
	persistent := &alwaysFailFS{inner: mem2}
	rfs2 := NewRetryFS(persistent, RetryPolicy{Retries: 2, Backoff: time.Millisecond})
	slept = nil
	rfs2.sleep = func(d time.Duration) { slept = append(slept, d) }
	g, err := rfs2.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.ReadAt(buf, 0)
	if err == nil || !errors.Is(err, errAlwaysFail) {
		t.Fatalf("exhausted read error %v, want wrapped errAlwaysFail", err)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoff %v, want %v", slept, want)
	}
	slept = nil
	if _, err2 := g.ReadAt(buf, 0); !errors.Is(err2, errAlwaysFail) || len(slept) != 0 {
		t.Fatalf("sticky read: err=%v slept=%v, want immediate same error", err2, slept)
	}
}

var errAlwaysFail = errors.New("device gone")

// alwaysFailFS fails every ReadAt with a generic (retryable) error.
type alwaysFailFS struct{ inner FS }

func (a *alwaysFailFS) Create(name string) (File, error) {
	f, err := a.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &alwaysFailFile{f}, nil
}
func (a *alwaysFailFS) Open(name string) (File, error) {
	f, err := a.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &alwaysFailFile{f}, nil
}
func (a *alwaysFailFS) Remove(name string) error { return a.inner.Remove(name) }
func (a *alwaysFailFS) Rename(o, n string) error { return a.inner.Rename(o, n) }
func (a *alwaysFailFS) Exists(name string) bool  { return a.inner.Exists(name) }
func (a *alwaysFailFS) Stats() *Stats            { return a.inner.Stats() }

type alwaysFailFile struct{ File }

func (f *alwaysFailFile) ReadAt(p []byte, off int64) (int, error) { return 0, errAlwaysFail }

func TestFaultFSRotOverOSFS(t *testing.T) {
	// The generalized FaultFS must drive rot injection over a real
	// directory exactly as over MemFS.
	osfs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 128)
	writeChecksummed(t, osfs, "f", 32, payload, 50)
	ff := NewFaultFS(osfs)
	if rots := ff.Rots(); len(rots) != 0 {
		t.Fatalf("fresh harness has rot events: %v", rots)
	}
	if err := ff.Rot("f", ChecksumHeaderSize+4+3, 2); err != nil {
		t.Fatal(err)
	}
	rots := ff.Rots()
	if len(rots) != 1 || rots[0].Name != "f" || rots[0].N != 2 {
		t.Fatalf("rot log %v", rots)
	}
	inner, err := osfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if _, err := VerifyChecksumBlocks(inner); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("rot over OSFS: %v, want ErrCorruptData", err)
	}
	// Crash recovery still works over a non-mem inner: durable snapshot
	// carries the rot, Recover yields a MemFS image of it.
	rec := ff.Recover(0)
	recData, err := ReadFileAll(rec, "f")
	if err != nil {
		t.Fatal(err)
	}
	liveData, err := ReadFileAll(osfs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recData, liveData) {
		t.Fatal("recovered image does not match synced live image")
	}
	// Out-of-range rot is rejected.
	if err := ff.Rot("f", int64(len(liveData)), 1); err == nil {
		t.Fatal("out-of-range rot succeeded")
	}
	if err := ff.Rot("missing", 0, 1); err == nil {
		t.Fatal("rot of missing file succeeded")
	}
}

// FuzzChecksumFile hammers the checksum-file decoder with arbitrary
// physical bytes: opening and fully reading must yield a typed error or
// consistent data — never a panic, never a read past the claimed size.
func FuzzChecksumFile(f *testing.F) {
	seedFS := NewMemFS()
	inner, _ := seedFS.Create("seed")
	cf, _ := CreateChecksumFile(inner, 16)
	cf.WriteAt(bytes.Repeat([]byte{42}, 40), 0)
	cf.Sync()
	cf.Close()
	seed, _ := ReadFileAll(seedFS, "seed")
	f.Add(seed)
	f.Add(seed[:ChecksumHeaderSize])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := NewMemFS()
		if err := WriteFileAll(fs, "f", data); err != nil {
			t.Skip()
		}
		file, err := fs.Open("f")
		if err != nil {
			t.Skip()
		}
		defer file.Close()
		cf, err := OpenChecksumFile(file)
		if err != nil {
			return // typed rejection is fine
		}
		size, err := cf.Size()
		if err != nil || size < 0 {
			t.Fatalf("size=%d err=%v", size, err)
		}
		buf := make([]byte, size)
		if n, err := cf.ReadAt(buf, 0); err != nil && !errors.Is(err, ErrCorruptData) && err != io.EOF {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		_, verr := VerifyChecksumBlocks(file)
		if verr != nil && !errors.Is(verr, ErrCorruptData) {
			t.Fatalf("verify: %v", verr)
		}
	})
}
