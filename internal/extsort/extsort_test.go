package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// makeRecords returns n records at positions 0..n-1 whose keys share their
// first 15 bytes and take one of 16 values in the last, so most keys tie,
// in random order. Every fourth position has a twin 256 above it, its equal
// in the low byte: under the record order's little-endian tie-break the
// twin sorts first, the reverse of the integers.
func makeRecords(rng *rand.Rand, n int) []summary.Record {
	recs := make([]summary.Record, n)
	for i := range recs {
		recs[i].Key[summary.KeySize-1] = byte(rng.Intn(16))
		recs[i].Pos = int64(i)
		if i%4 == 1 {
			recs[i].Pos = int64(i-1) + 256
		}
	}
	rng.Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// encodeAll encodes recs back to back, as Sort's byte stream holds them.
func encodeAll(recs []summary.Record) []byte {
	out := make([]byte, 0, len(recs)*recordSize)
	for _, r := range recs {
		out = append(out, r.Key[:]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Pos))
	}
	return out
}

// bytewise is the reference: recs sorted by bytes.Compare on their
// encodings.
func bytewise(recs []summary.Record) []summary.Record {
	out := slices.Clone(recs)
	slices.SortFunc(out, func(a, b summary.Record) int {
		return bytes.Compare(encodeAll([]summary.Record{a}), encodeAll([]summary.Record{b}))
	})
	return out
}

func sortCfg(fs storage.FS, budgetRecs int64) Config {
	return Config{FS: fs, MemBudget: budgetRecs * recordSize}
}

// sorted sorts recs under cfg and reads the stream to its end.
func sorted(t *testing.T, cfg Config, recs []summary.Record) []summary.Record {
	t.Helper()
	src := summary.SliceReader(slices.Clone(recs))
	r, n, err := Sorted(cfg, &src)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n != int64(len(recs)) || r.Len() != len(recs) {
		t.Fatalf("Sorted counted %d records, Len %d, want %d", n, r.Len(), len(recs))
	}
	out, err := readAll(r, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len %d after the stream's end", r.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// readAll reads src to its end through a buffer of bufLen records.
func readAll(src summary.RecordReader, bufLen int) ([]summary.Record, error) {
	var out []summary.Record
	buf := make([]summary.Record, bufLen)
	for {
		n, err := src.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestSortMatchesStdlibSort: the typed sort's stream is the bytewise
// sort of the encoded records, at Workers 1, 2 and 4, in one chunk and
// through run files and a multi-pass merge — so a key tie goes to the
// position whose little-endian bytes are less, 256 before 1 — and every
// worker count creates the files its path needs, none for one chunk.
func TestSortMatchesStdlibSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := makeRecords(rng, 3000)
	want := bytewise(recs)
	if slices.IsSortedFunc(want, func(a, b summary.Record) int {
		if c := a.Key.Compare(b.Key); c != 0 {
			return c
		}
		return int(a.Pos - b.Pos)
	}) {
		t.Fatal("the records sort the same by integer positions: the test cannot tell the orders apart")
	}
	for _, budget := range []int64{64, 1 << 16} {
		for _, workers := range []int{1, 2, 4} {
			fs := storage.NewMemFS()
			var created atomic.Int64 // concurrent run writers create files
			fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
				if op == storage.OpCreate {
					created.Add(1)
				}
				return nil
			})
			cfg := sortCfg(fs, budget)
			cfg.Workers = workers
			if got := sorted(t, cfg, recs); !slices.Equal(got, want) {
				t.Fatalf("budget=%d workers=%d: the stream is not the bytewise sort", budget, workers)
			}
			if oneChunk := budget > 3000*2; oneChunk != (created.Load() == 0) {
				t.Fatalf("budget=%d workers=%d: created %d files", budget, workers, created.Load())
			}
			if names := fs.Names(); len(names) != 0 {
				t.Fatalf("budget=%d workers=%d: left %v", budget, workers, names)
			}
		}
	}
}

// TestFanInChargesWhatARunHolds: a merge of fanIn(share) runs holds, for
// each, its decoded block and the batch summary.Merge reads from it — 15 KiB
// — and besides them its output writer and a compressed block: within share
// whenever the fan-in is above its floor of two, and one run more would not
// fit.
func TestFanInChargesWhatARunHolds(t *testing.T) {
	if want := int64(runblock.DefaultBlockRecords+summary.MergeBatch) * summary.RecordSize; runBytes != want || runBytes != 15<<10 {
		t.Fatalf("an open run is charged %d bytes, holds %d", runBytes, want)
	}
	held := func(k int) int64 { return mergeBytes + int64(k)*runBytes }
	for _, share := range []int64{0, 4 * recordSize, 16 << 10, held(2) - 1, held(2), held(3) - 1, held(3), 1 << 20, 64 << 20} {
		k := fanIn(share)
		switch {
		case k < 2:
			t.Errorf("share %d: fan-in %d, below two", share, k)
		case k > 2 && held(k) > share:
			t.Errorf("share %d: fan-in %d holds %d bytes", share, k, held(k))
		case held(k+1) <= share:
			t.Errorf("share %d: fan-in %d, but %d runs fit", share, k, k+1)
		}
	}
	// The default 64 MiB budget, and a 1 MiB one, which charging a run block
	// alone gave fan-ins of 5459 and 84.
	if k, l := fanIn(64<<20), fanIn(1<<20); k != 4366 || l != 65 {
		t.Fatalf("fan-ins %d and %d at 64 MiB and 1 MiB, want 4366 and 65", k, l)
	}
}

// TestSortDeterministicAcrossWorkers: the stream is the same for any
// worker count, so chunk boundaries, the slices a lone chunk is sorted in,
// and merge grouping must not show through: through run files and a
// multi-pass merge under a tiny budget, through run formation with chunks
// larger than the first chunk's starting buffer, and through the one-chunk
// path — an empty input, one record, fewer records than workers.
func TestSortDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		budgetRecs int64
	}{
		{"multi-pass", 3000, 64},
		{"one chunk", 3000, 1 << 16},
		{"empty", 0, 1 << 16},
		{"one record", 1, 1 << 16},
		{"fewer than workers", 5, 1 << 16},
		// Chunks of 1.68 MB at 2 workers and 1.26 MB at 3, past
		// firstChunkMin, so the first chunk's buffer grows before it is
		// recycled. The input is 4.9 chunks at 2 workers and 6.5 at 3, so
		// the first buffer is refilled.
		{"chunks past firstChunkMin", 340000, 210000},
	}
	for _, tc := range cases {
		recs := makeRecords(rand.New(rand.NewSource(9)), tc.n)
		want := slices.Clone(recs)
		slices.SortFunc(want, summary.CompareRecords)
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := sortCfg(storage.NewMemFS(), tc.budgetRecs)
			cfg.Workers = workers
			if got := sorted(t, cfg, recs); !slices.Equal(got, want) {
				t.Fatalf("%s, workers=%d: the stream is not the sorted input", tc.name, workers)
			}
		}
	}
}

func TestSortPropertyBased(t *testing.T) {
	f := func(seed int64, nSmall uint16, budgetFactor uint8) bool {
		n := int(nSmall%600) + 1
		recs := makeRecords(rand.New(rand.NewSource(seed)), n)
		src := summary.SliceReader(slices.Clone(recs))
		r, got, err := Sorted(sortCfg(storage.NewMemFS(), int64(budgetFactor%50+4)), &src)
		if err != nil || got != int64(n) {
			return false
		}
		defer r.Close()
		out, err := readAll(r, 100)
		return err == nil && slices.Equal(out, bytewise(recs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSpillRunsAreRunblockRuns: a spilled run is a runblock run, the format
// of an LSM run — a one-generation multi-chunk sort spills 2 runs, run 0
// opens and verifies as a runblock run and holds the sorted first chunk, no
// spill is fsynced, and Close removes the runs. One byte of a spill rotted
// before the merge opens it fails the sort with storage.ErrCorruptData,
// naming the run, and leaves nothing behind.
func TestSpillRunsAreRunblockRuns(t *testing.T) {
	recs := makeRecords(rand.New(rand.NewSource(3)), 128)
	first := slices.Clone(recs[:64])
	slices.SortFunc(first, summary.CompareRecords)
	for _, rot := range []bool{false, true} {
		mem := storage.NewMemFS()
		fs := storage.NewFaultFS(mem)
		var syncs atomic.Int64
		var rotErr error
		fs.SetHook(func(op storage.Op, name string) {
			switch {
			case op == storage.OpSync:
				syncs.Add(1)
			case op == storage.OpOpen && rot && name == "extsort.run.1" && len(fs.Rots()) == 0:
				run1, err := storage.ReadFileAll(mem, name)
				if rotErr = err; err == nil {
					rotErr = fs.Rot(name, int64(len(run1)/3), 1)
				}
			}
		})
		cfg := sortCfg(fs, 64)
		cfg.Workers = 1
		src := summary.SliceReader(slices.Clone(recs))
		r, _, err := Sorted(cfg, &src)
		if rotErr != nil {
			t.Fatal(rotErr)
		}
		if rot {
			if !errors.Is(err, storage.ErrCorruptData) || !strings.Contains(err.Error(), "extsort.run.1") {
				t.Fatalf("a rotted spill: error %v, want ErrCorruptData naming the run", err)
			}
			if names := mem.Names(); len(names) != 0 {
				t.Fatalf("the failed sort left %v", names)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if runs := len(mem.Names()); runs != 2 {
			t.Fatalf("%d runs of 64 records hold 128, want 2", runs)
		}
		f, err := fs.Open("extsort.run.0")
		if err != nil {
			t.Fatal(err)
		}
		rb, err := runblock.OpenReader(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rb.Verify(); err != nil {
			t.Fatal(err)
		}
		var run0 []summary.Record
		if err := rb.Range(0, rb.Count(), func(key summary.Key, pos int64) error {
			run0 = append(run0, summary.Record{Key: key, Pos: pos})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		rb.Close()
		if !slices.Equal(run0, first) {
			t.Fatal("run 0 is not the sorted first chunk")
		}
		if _, err := readAll(r, 50); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if names := mem.Names(); len(names) != 0 {
			t.Fatalf("Close left %v", names)
		}
		if n := syncs.Load(); n != 0 {
			t.Fatalf("the spills were fsynced %d times", n)
		}
	}
}

// TestSortIOIsSequential: spills are written and read back sequentially —
// seeks happen once per opened stream (runs × merge passes), never per
// record — with runs that span several blocks.
func TestSortIOIsSequential(t *testing.T) {
	fs := storage.NewMemFS()
	const n = 4000
	cfg := sortCfg(fs, 1024)
	// Pin one worker: this test measures the per-stream I/O pattern of the
	// core algorithm, and the seek budget below assumes the single-worker
	// run/merge plan (more workers mean more, shorter streams).
	cfg.Workers = 1
	// Random keys, which front-coding barely shrinks: a run of 1024 records
	// is larger than the spill writer's buffer, and so written in several
	// writes.
	rng := rand.New(rand.NewSource(6))
	src := summary.SliceReader(makeRecords(rng, n))
	for i := range src {
		rng.Read(src[i].Key[:])
	}
	r, _, err := Sorted(cfg, &src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fs.Names() {
		rr, err := runblock.OpenRecords(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		if blocks := (rr.Len() + runblock.DefaultBlockRecords - 1) / runblock.DefaultBlockRecords; blocks < 2 {
			t.Fatalf("%s holds %d records, %d block(s): the test needs runs of several", name, rr.Len(), blocks)
		}
		rr.Close()
	}
	if _, err := readAll(r, 100); err != nil {
		t.Fatal(err)
	}
	r.Close()
	snap := fs.Stats().Snapshot()
	// External sort is the sequential-I/O workhorse: seeks happen once per
	// opened stream (runs × merge passes), never per record. With 4000
	// records, anything near O(N) seeks would indicate a broken pattern.
	if snap.Seeks() > int64(n/10) {
		t.Fatalf("too many seeks for an external sort: %+v", snap)
	}
	if snap.SeqWrites == 0 || snap.SeqReads == 0 {
		t.Fatalf("expected sequential traffic: %+v", snap)
	}
}

// TestSortWorkersZeroIsGOMAXPROCS: Workers = 0 means runtime.GOMAXPROCS(0),
// not runtime.NumCPU() — the chunks, and so the runs, of a sort under a
// budget it does not fit are those of Workers = GOMAXPROCS. GOMAXPROCS is
// set above NumCPU for the test, so the two readings differ on any machine.
func TestSortWorkersZeroIsGOMAXPROCS(t *testing.T) {
	procs := runtime.NumCPU() + 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	recs := makeRecords(rand.New(rand.NewSource(15)), 2000)
	runs := func(workers int) (created []string) {
		fs := storage.NewMemFS()
		var mu sync.Mutex // concurrent run writers create files
		fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpCreate {
				mu.Lock()
				created = append(created, name)
				mu.Unlock()
			}
			return nil
		})
		cfg := sortCfg(fs, 256)
		cfg.Workers = workers
		sorted(t, cfg, recs)
		sort.Strings(created) // concurrent run writers create in any order
		return created
	}
	zero, procsRuns, cpus := runs(0), runs(procs), runs(procs-1)
	if len(zero) < 3 || strings.Join(zero, " ") != strings.Join(procsRuns, " ") {
		t.Fatalf("Workers=0 created %v, Workers=GOMAXPROCS=%d created %v", zero, procs, procsRuns)
	}
	if strings.Join(zero, " ") == strings.Join(cpus, " ") {
		t.Fatalf("Workers=0 and Workers=NumCPU=%d created the same files %v: the test cannot tell them apart", procs-1, zero)
	}
}

// TestSortCleansTemporariesOnFault: after a failed sort nothing may
// remain on the device — no runs, no merge intermediates — and the error
// keeps its cause, wherever in run formation, the merge generations or the
// final merge the fault strikes.
func TestSortCleansTemporariesOnFault(t *testing.T) {
	boom := errors.New("injected device failure")
	recs := makeRecords(rand.New(rand.NewSource(10)), 3000)
	for _, workers := range []int{1, 4} {
		for _, failAt := range []int{1, 5, 20, 50, 120, 200, 400} {
			fs := storage.NewMemFS()
			var writes atomic.Int64
			fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
				if op == storage.OpWrite && writes.Add(1) == int64(failAt) {
					return boom
				}
				return nil
			})
			cfg := sortCfg(fs, 64)
			cfg.Workers = workers
			src := summary.SliceReader(slices.Clone(recs))
			r, _, err := Sorted(cfg, &src)
			if err == nil {
				_, err = readAll(r, 100)
				r.Close()
			}
			if writes.Load() < int64(failAt) {
				if err != nil {
					t.Fatalf("workers=%d failAt=%d: fault never fired yet the sort failed: %v", workers, failAt, err)
				}
				continue // the sort finished before the Nth write
			}
			if !errors.Is(err, boom) {
				t.Fatalf("workers=%d failAt=%d: error %v, want the injected cause", workers, failAt, err)
			}
			if got := fs.TotalSize(); got != 0 {
				t.Fatalf("workers=%d failAt=%d: %d bytes of temporaries leaked", workers, failAt, got)
			}
		}
	}
}

// TestSortFaultPropagates: a failing input fails the sort with its
// cause, in the first chunk and past it.
func TestSortFaultPropagates(t *testing.T) {
	boom := errors.New("injected input failure")
	for _, after := range []int{0, 500} {
		fs := storage.NewMemFS()
		src := failingReader{summary.SliceReader(makeRecords(rand.New(rand.NewSource(2)), after)), boom}
		if _, _, err := Sorted(sortCfg(fs, 64), &src); !errors.Is(err, boom) {
			t.Fatalf("after %d records: error %v, want the injected cause", after, err)
		}
		if names := fs.Names(); len(names) != 0 {
			t.Fatalf("after %d records: left %v", after, names)
		}
	}
}

// failingReader reads its records, then fails with err.
type failingReader struct {
	summary.SliceReader
	err error
}

func (f *failingReader) Read(p []summary.Record) (int, error) {
	if n, _ := f.SliceReader.Read(p); n > 0 {
		return n, nil
	}
	return 0, f.err
}

// TestSortOneChunkWritesOnce: the stream of an input that fits one
// chunk is sorted in memory and creates no file.
func TestSortOneChunkWritesOnce(t *testing.T) {
	recs := makeRecords(rand.New(rand.NewSource(13)), 50)
	for _, workers := range []int{1, 4} {
		fs := storage.NewMemFS()
		var created atomic.Int64
		fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpCreate {
				created.Add(1)
			}
			return nil
		})
		cfg := sortCfg(fs, 1<<20)
		cfg.Workers = workers
		sorted(t, cfg, recs)
		if created.Load() != 0 || fs.Stats().Snapshot().BytesWritten != 0 {
			t.Fatalf("workers=%d: the stream of one chunk created %d files", workers, created.Load())
		}
	}
}

// TestSortExactlyOneFullChunk: an input that exactly fills the one-worker
// chunk is found to end only on the next read, after its chunk became a
// run; that lone run is a merge of one stream, like any final pass.
func TestSortExactlyOneFullChunk(t *testing.T) {
	fs := storage.NewMemFS()
	cfg := sortCfg(fs, 64)
	cfg.Workers = 1
	recs := makeRecords(rand.New(rand.NewSource(14)), 64)
	if got := sorted(t, cfg, recs); !slices.Equal(got, bytewise(recs)) {
		t.Fatal("the stream is not the sorted input")
	}
	if names := fs.Names(); len(names) != 0 {
		t.Fatalf("files left behind: %v", names)
	}
}

// TestSortedStreamShares reads the stream of a multi-pass sort the way the
// partition layer hands it to its children: as consecutive While shares
// split at key boundaries, each read through small buffers and with the Len
// it is given. The shares
// concatenate to the sorted input and each holds exactly the records below
// its boundary; the final merge's runs stay on the device until Close,
// which removes them; and a read fault in the final merge surfaces through
// the stream with its cause, after which Close still leaves nothing behind.
func TestSortedStreamShares(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	recs := make([]summary.Record, 3000)
	for i := range recs {
		rng.Read(recs[i].Key[:])
		recs[i].Pos = int64(i)
	}
	want := bytewise(recs)
	bounds := []summary.Key{want[700].Key, want[2100].Key}
	for _, workers := range []int{1, 4} {
		fs := storage.NewMemFS()
		cfg := sortCfg(fs, 64)
		cfg.Workers = workers
		src := summary.SliceReader(slices.Clone(recs))
		r, n, err := Sorted(cfg, &src)
		if err != nil || n != 3000 {
			t.Fatalf("workers=%d: sorted %d records: %v", workers, n, err)
		}
		if len(fs.Names()) < 2 {
			t.Fatalf("workers=%d: the final merge reads %v, want several runs", workers, fs.Names())
		}
		var all []summary.Record
		for i := 0; i <= len(bounds); i++ {
			keep := func(rec summary.Record) bool { return i == len(bounds) || rec.Key.Less(bounds[i]) }
			w := r.While(keep, 1000+i)
			if w.Len() != 1000+i {
				t.Fatalf("workers=%d: share %d has Len %d, want the %d it was given", workers, i, w.Len(), 1000+i)
			}
			share, err := readAll(w, 7+i)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range share {
				if !keep(rec) {
					t.Fatalf("workers=%d: share %d holds a record past its boundary", workers, i)
				}
			}
			all = append(all, share...)
			if r.Len() != len(want)-len(all) {
				t.Fatalf("workers=%d: Len %d after %d of %d records", workers, r.Len(), len(all), len(want))
			}
		}
		if !slices.Equal(all, want) {
			t.Fatalf("workers=%d: the shares are not the sorted input", workers)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if names := fs.Names(); len(names) != 0 {
			t.Fatalf("workers=%d: Close left %v", workers, names)
		}

		boom := errors.New("injected run read failure")
		src = summary.SliceReader(slices.Clone(recs))
		r, _, err = Sorted(cfg, &src)
		if err != nil {
			t.Fatal(err)
		}
		fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpRead && off > 0 {
				return boom
			}
			return nil
		})
		if _, err := readAll(r, 100); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: stream error %v, want the injected cause", workers, err)
		}
		fs.SetFault(nil)
		r.Close()
		if names := fs.Names(); len(names) != 0 {
			t.Fatalf("workers=%d: Close after a failed read left %v", workers, names)
		}
	}
}

// sortBytes runs Sort over the encoded recs under cfg and returns the output
// file, checking that it is the only file left.
func sortBytes(t *testing.T, cfg Config, recs []summary.Record) []byte {
	t.Helper()
	cfg.RecordSize, cfg.Compare = recordSize, CompareKeyPrefix(summary.KeySize)
	n, err := Sort(cfg, bytes.NewReader(encodeAll(recs)), "out")
	if err != nil || n != int64(len(recs)) {
		t.Fatalf("sorted %d of %d records: %v", n, len(recs), err)
	}
	out, err := storage.ReadFileAll(cfg.FS, "out")
	if err != nil {
		t.Fatal(err)
	}
	if names := cfg.FS.(*storage.MemFS).Names(); len(names) != 1 {
		t.Fatalf("left %v", names)
	}
	return out
}

// TestSortSmallInMemoryPath: Sort, the byte adapter, writes the encoded
// typed sort of an input that fits one chunk, at any worker count.
func TestSortSmallInMemoryPath(t *testing.T) {
	recs := makeRecords(rand.New(rand.NewSource(1)), 10)
	for _, workers := range []int{1, 4} {
		cfg := sortCfg(storage.NewMemFS(), 1<<16)
		cfg.Workers = workers
		if out := sortBytes(t, cfg, recs); !bytes.Equal(out, encodeAll(bytewise(recs))) {
			t.Fatalf("workers=%d: the output is not the encoded sort", workers)
		}
	}
}

// TestSortManyRunsAndMultiPassMerge: Sort through runs and a multi-pass
// merge writes the encoded typed sort — whatever Compare says — and removes
// its temporaries.
func TestSortManyRunsAndMultiPassMerge(t *testing.T) {
	recs := makeRecords(rand.New(rand.NewSource(2)), 5000)
	for _, workers := range []int{1, 4} {
		cfg := sortCfg(storage.NewMemFS(), 64)
		cfg.Workers = workers
		if out := sortBytes(t, cfg, recs); !bytes.Equal(out, encodeAll(bytewise(recs))) {
			t.Fatalf("workers=%d: the output is not the encoded sort", workers)
		}
	}
}

// TestSortEmptyInput: Sort of no records writes an empty output; it
// refuses a record size other than 24 bytes, an input that ends inside a
// record and a nil FS.
func TestSortEmptyInput(t *testing.T) {
	if out := sortBytes(t, sortCfg(storage.NewMemFS(), 64), nil); len(out) != 0 {
		t.Fatalf("an empty input wrote %d bytes", len(out))
	}
	in := encodeAll(makeRecords(rand.New(rand.NewSource(3)), 10))
	for _, size := range []int{0, 16, recordSize + 1} {
		cfg := sortCfg(storage.NewMemFS(), 64)
		cfg.RecordSize = size
		if _, err := Sort(cfg, bytes.NewReader(in), "out"); err == nil {
			t.Fatalf("record size %d: want an error", size)
		}
	}
	cfg := sortCfg(storage.NewMemFS(), 64)
	cfg.RecordSize = recordSize
	if _, err := Sort(cfg, bytes.NewReader(in[:len(in)-5]), "out"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a torn input: error %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := Sort(Config{RecordSize: recordSize}, bytes.NewReader(nil), "out"); err == nil {
		t.Fatal("a nil FS: want an error")
	}
}

// TestSortFailurePreservesExistingOutput: a failed Sort must not delete a
// pre-existing file at outName that the failing invocation never wrote —
// e.g. a retry over a previous good result that dies during run formation.
func TestSortFailurePreservesExistingOutput(t *testing.T) {
	fs := storage.NewMemFS()
	prev := []byte("previous good result")
	if err := storage.WriteFileAll(fs, "out", prev); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected device failure")
	in := encodeAll(makeRecords(rand.New(rand.NewSource(12)), 500))
	faults := []storage.FaultFn{
		// Die during run formation: outName is never touched.
		func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpCreate && name != "out" {
				return boom
			}
			return nil
		},
		// Die on the final pass's own Create of outName: everything before
		// succeeded, but the output was still never truncated.
		func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpCreate && name == "out" {
				return boom
			}
			return nil
		},
	}
	for i, fault := range faults {
		fs.SetFault(fault)
		cfg := sortCfg(fs, 64)
		cfg.RecordSize = recordSize
		if _, err := Sort(cfg, bytes.NewReader(in), "out"); !errors.Is(err, boom) {
			t.Fatalf("fault %d: expected injected fault, got %v", i, err)
		}
		fs.SetFault(nil)
		got, err := storage.ReadFileAll(fs, "out")
		if err != nil {
			t.Fatalf("fault %d: pre-existing output deleted by failed Sort: %v", i, err)
		}
		if !bytes.Equal(got, prev) {
			t.Fatalf("fault %d: pre-existing output modified by failed Sort", i)
		}
	}
}

// TestSortInMemory: the in-memory sort of one chunk, cut into any number
// of parts sorted apart and merged as the stream is read, yields the
// bytewise sort of the encoded records, counts them in Len and touches no
// file.
func TestSortInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 300} {
		recs := makeRecords(rng, n)
		want := bytewise(recs)
		for _, parts := range []int{1, 2, 3, 8} {
			fs := storage.NewMemFS()
			r := sortChunk(slices.Clone(recs), parts)
			if r.Len() != n {
				t.Fatalf("n=%d parts=%d: Len %d", n, parts, r.Len())
			}
			got, err := readAll(r, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d parts=%d: the stream is not the bytewise sort", n, parts)
			}
			if names := fs.Names(); len(names) != 0 {
				t.Fatalf("n=%d parts=%d: created %v", n, parts, names)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	src := summary.SliceReader(nil)
	if _, _, err := Sorted(Config{}, &src); err == nil {
		t.Fatal("expected validation error for zero config")
	}
	for _, budget := range []int64{-1, 0, 1} {
		cfg := Config{FS: storage.NewMemFS(), MemBudget: budget}
		if got := sorted(t, cfg, makeRecords(rand.New(rand.NewSource(4)), 10)); len(got) != 10 {
			t.Fatalf("budget %d: sorted %d records", budget, len(got))
		}
	}
}
