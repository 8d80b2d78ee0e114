package extsort

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/coconut-db/coconut/internal/storage"
)

const recSize = 16

// makeRecords builds n random 16-byte records with an 8-byte big-endian key
// and an 8-byte payload.
func makeRecords(rng *rand.Rand, n int) []byte {
	out := make([]byte, n*recSize)
	rng.Read(out)
	return out
}

func sortCfg(fs storage.FS, budget int64) Config {
	return Config{
		FS:         fs,
		RecordSize: recSize,
		Compare:    CompareKeyPrefix(8),
		MemBudget:  budget,
		BufSize:    64,
	}
}

// multisetHash returns an order-independent fingerprint of the records.
func multisetHash(data []byte) [32]byte {
	var acc [32]byte
	for i := 0; i+recSize <= len(data); i += recSize {
		h := sha256.Sum256(data[i : i+recSize])
		for j := range acc {
			acc[j] += h[j]
		}
	}
	return acc
}

func checkSorted(t *testing.T, data []byte, cmp Compare) {
	t.Helper()
	for i := recSize; i+recSize <= len(data); i += recSize {
		if cmp(data[i-recSize:i], data[i:i+recSize]) > 0 {
			t.Fatalf("records %d and %d out of order", i/recSize-1, i/recSize)
		}
	}
}

func TestSortSmallInMemoryPath(t *testing.T) {
	fs := storage.NewMemFS()
	rng := rand.New(rand.NewSource(1))
	in := makeRecords(rng, 10)
	n, err := Sort(sortCfg(fs, 1<<20), bytes.NewReader(in), "out")
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("sorted %d records, want 10", n)
	}
	out, err := storage.ReadFileAll(fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, out, CompareKeyPrefix(8))
	if multisetHash(in) != multisetHash(out) {
		t.Fatal("output is not a permutation of input")
	}
}

func TestSortManyRunsAndMultiPassMerge(t *testing.T) {
	fs := storage.NewMemFS()
	rng := rand.New(rand.NewSource(2))
	const n = 5000
	in := makeRecords(rng, n)
	// Tiny budget: 64-record runs, fan-in limited by 64-byte buffers.
	cfg := sortCfg(fs, 64*recSize)
	got, err := Sort(cfg, bytes.NewReader(in), "out")
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("sorted %d records, want %d", got, n)
	}
	out, err := storage.ReadFileAll(fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("output %d bytes, want %d", len(out), len(in))
	}
	checkSorted(t, out, cfg.Compare)
	if multisetHash(in) != multisetHash(out) {
		t.Fatal("output is not a permutation of input")
	}
	// Temp files must be cleaned up.
	if fs.Exists("extsort.run.0") || fs.Exists("extsort.merge.0.0") {
		t.Fatal("temporary files left behind")
	}
}

func TestSortEmptyInput(t *testing.T) {
	fs := storage.NewMemFS()
	n, err := Sort(sortCfg(fs, 1024), bytes.NewReader(nil), "out")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("sorted %d records, want 0", n)
	}
	out, err := storage.ReadFileAll(fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("expected empty output file")
	}
}

func TestSortPropertyBased(t *testing.T) {
	f := func(seed int64, nSmall uint16, budgetFactor uint8) bool {
		n := int(nSmall%600) + 1
		budget := int64(recSize) * int64(budgetFactor%50+4)
		fs := storage.NewMemFS()
		rng := rand.New(rand.NewSource(seed))
		in := makeRecords(rng, n)
		got, err := Sort(sortCfg(fs, budget), bytes.NewReader(in), "out")
		if err != nil || got != int64(n) {
			return false
		}
		out, err := storage.ReadFileAll(fs, "out")
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := recSize; i+recSize <= len(out); i += recSize {
			if bytes.Compare(out[i-recSize : i][:8], out[i : i+recSize][:8]) > 0 {
				return false
			}
		}
		return multisetHash(in) == multisetHash(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSortMatchesStdlibSort(t *testing.T) {
	fs := storage.NewMemFS()
	rng := rand.New(rand.NewSource(5))
	const n = 1000
	in := makeRecords(rng, n)

	want := make([]byte, len(in))
	copy(want, in)
	// Reference: stdlib sort of record slices (by the full record so the
	// expected output is unique even with duplicate keys).
	refCmp := func(a, b []byte) int { return bytes.Compare(a, b) }
	recs := make([][]byte, n)
	for i := 0; i < n; i++ {
		recs[i] = want[i*recSize : (i+1)*recSize]
	}
	sort.SliceStable(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
	ref := make([]byte, 0, len(in))
	for _, r := range recs {
		ref = append(ref, r...)
	}

	cfg := sortCfg(fs, 128*recSize)
	cfg.Compare = refCmp
	if _, err := Sort(cfg, bytes.NewReader(in), "out"); err != nil {
		t.Fatal(err)
	}
	out, _ := storage.ReadFileAll(fs, "out")
	if !bytes.Equal(out, ref) {
		t.Fatal("external sort output differs from stdlib reference")
	}
}

func TestSortIOIsSequential(t *testing.T) {
	fs := storage.NewMemFS()
	rng := rand.New(rand.NewSource(6))
	const n = 4000
	in := makeRecords(rng, n)
	cfg := sortCfg(fs, 256*recSize)
	cfg.BufSize = 1024
	// Pin one worker: this test measures the per-stream I/O pattern of the
	// core algorithm, and the seek budget below assumes the single-worker
	// run/merge plan (more workers mean more, shorter streams).
	cfg.Workers = 1
	if _, err := Sort(cfg, bytes.NewReader(in), "out"); err != nil {
		t.Fatal(err)
	}
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

func TestSortFaultPropagates(t *testing.T) {
	fs := storage.NewMemFS()
	boom := io.ErrClosedPipe
	// Sort writes its runs from several workers at once.
	var writes atomic.Int64
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		if op == storage.OpWrite && writes.Add(1) > 3 {
			return boom
		}
		return nil
	})
	rng := rand.New(rand.NewSource(7))
	in := makeRecords(rng, 3000)
	if _, err := Sort(sortCfg(fs, 64*recSize), bytes.NewReader(in), "out"); err == nil {
		t.Fatal("expected injected fault to propagate")
	}
}

// TestSortDeterministicAcrossWorkers: the acceptance bar for the parallel
// pipeline is byte-identical output, Sort's file and Sorted's stream alike,
// for any worker count, including with heavy comparator ties (records sharing a key
// prefix but differing in the payload), so chunk boundaries, the slices a
// lone chunk is sorted in, and merge grouping must not show through. The
// cases run through run files and a multi-pass merge under a tiny budget,
// through run formation with chunks larger than the first chunk's starting
// buffer, and through the one-chunk path: a full chunk, an empty input, one
// record, fewer records than workers, and materialized-size records.
func TestSortDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name       string
		n, size    int
		budgetRecs int64
		// oneChunkUpTo is the largest Workers at which the input fits one
		// chunk: 8 for every worker count, 0 for none.
		oneChunkUpTo int
	}{
		{"multi-pass", 3000, recSize, 64, 0},
		{"one chunk", 3000, recSize, 1 << 16, 8},
		{"empty", 0, recSize, 1 << 16, 8},
		{"one record", 1, recSize, 1 << 16, 8},
		{"fewer than workers", 5, recSize, 1 << 16, 8},
		{"materialized", 700, 8 + 8 + 64*8, 1 << 16, 8},
		// Chunks of 1.68 MB at 2 workers and 1.26 MB at 3, past
		// firstChunkMin, so the first chunk's buffer grows before it is
		// recycled; 24 does not divide a page, so a buffer recycled past
		// the chunk length would cut a record. The input is 4.9 chunks at
		// 2 workers and 6.5 at 3, so the first buffer is refilled.
		{"chunks past firstChunkMin", 340000, 24, 210000, 0},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(9))
		in := make([]byte, tc.n*tc.size)
		rng.Read(in)
		for i := 0; i < tc.n; i++ {
			copy(in[i*tc.size:], []byte{0, 0, 0, 0, 0, 0, 0, byte(rng.Intn(16))})
		}
		sorted := append([]byte(nil), in...)
		SortInMemory(sorted, tc.size, totalOrder(CompareKeyPrefix(8)))
		var ref []byte
		for _, workers := range []int{1, 2, 3, 8} {
			fs := storage.NewMemFS()
			var created atomic.Int64 // concurrent run writers create files
			fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
				if op == storage.OpCreate {
					created.Add(1)
				}
				return nil
			})
			cfg := sortCfg(fs, tc.budgetRecs*int64(tc.size))
			cfg.RecordSize, cfg.Workers = tc.size, workers
			got, err := Sort(cfg, bytes.NewReader(in), "out")
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", tc.name, workers, err)
			}
			if got != int64(tc.n) {
				t.Fatalf("%s, workers=%d: sorted %d records, want %d", tc.name, workers, got, tc.n)
			}
			if oneChunk := workers <= tc.oneChunkUpTo; oneChunk != (created.Load() == 1) {
				t.Fatalf("%s, workers=%d: created %d files", tc.name, workers, created.Load())
			}
			out, err := storage.ReadFileAll(fs, "out")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, sorted) {
				t.Fatalf("%s, workers=%d: output is not the sorted input", tc.name, workers)
			}
			if ref == nil {
				ref = out
			} else if !bytes.Equal(ref, out) {
				t.Fatalf("%s, workers=%d: output differs from workers=1", tc.name, workers)
			}
			r, n, err := Sorted(cfg, bytes.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := io.ReadAll(r)
			if err != nil || n != int64(tc.n) || !bytes.Equal(streamed, sorted) {
				t.Fatalf("%s, workers=%d: Sorted streamed %d bytes of %d records (%v), not the sorted input", tc.name, workers, len(streamed), n, err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSortWorkersZeroIsGOMAXPROCS: Workers = 0 means runtime.GOMAXPROCS(0),
// not runtime.NumCPU() — the chunks, and so the runs, of a sort under a
// budget it does not fit are those of Workers = GOMAXPROCS. GOMAXPROCS is
// set above NumCPU for the test, so the two readings differ on any machine.
func TestSortWorkersZeroIsGOMAXPROCS(t *testing.T) {
	procs := runtime.NumCPU() + 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rng := rand.New(rand.NewSource(15))
	in := makeRecords(rng, 2000)
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
		cfg := sortCfg(fs, 256*recSize)
		cfg.Workers = workers
		if _, err := Sort(cfg, bytes.NewReader(in), "out"); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
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

// TestSortCleansTemporariesOnFault is the regression test for the mergeAll
// leak: intermediate .merge.<gen>.<i> files produced before a later merge
// in the same generation failed used to survive the error. After a failed
// Sort nothing may remain on the device — no runs, no merge intermediates,
// no partial output (the input lives outside the FS).
func TestSortCleansTemporariesOnFault(t *testing.T) {
	boom := errors.New("injected device failure")
	rng := rand.New(rand.NewSource(10))
	in := makeRecords(rng, 3000)
	for _, workers := range []int{1, 4} {
		// The write counts sweep every phase: run formation, each merge
		// generation (the small budget forces several), and the final merge.
		for _, failAt := range []int{1, 5, 20, 50, 120, 200, 400} {
			fs := storage.NewMemFS()
			var writes atomic.Int64
			fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
				if op == storage.OpWrite && writes.Add(1) == int64(failAt) {
					return boom
				}
				return nil
			})
			cfg := sortCfg(fs, 64*recSize)
			cfg.Workers = workers
			_, err := Sort(cfg, bytes.NewReader(in), "out")
			if writes.Load() < int64(failAt) {
				if err != nil {
					t.Fatalf("workers=%d failAt=%d: fault never fired yet sort failed: %v", workers, failAt, err)
				}
				continue // sort finished before the Nth write
			}
			if err == nil {
				t.Fatalf("workers=%d failAt=%d: fault consumed but Sort reported success", workers, failAt)
			}
			if !errors.Is(err, boom) {
				t.Fatalf("workers=%d failAt=%d: error lost its cause: %v", workers, failAt, err)
			}
			if got := fs.TotalSize(); got != 0 {
				t.Fatalf("workers=%d failAt=%d: %d bytes of temporaries leaked after failed Sort", workers, failAt, got)
			}
		}
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
	rng := rand.New(rand.NewSource(12))
	in := makeRecords(rng, 500)
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
		if _, err := Sort(sortCfg(fs, 64*recSize), bytes.NewReader(in), "out"); !errors.Is(err, boom) {
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

// TestSortOneChunkWritesOnce: an input that fits one chunk is sorted in
// memory and written once, straight to the output: no run file is created
// and the bytes written are the output's alone. Sorted's stream of it
// writes nothing at all.
func TestSortOneChunkWritesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := makeRecords(rng, 50)
	for _, workers := range []int{1, 4} {
		fs := storage.NewMemFS()
		var created []string
		fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpCreate {
				created = append(created, name)
			}
			return nil
		})
		cfg := sortCfg(fs, 1<<20)
		cfg.Workers = workers
		r, _, err := Sorted(cfg, bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if len(created) != 0 || fs.Stats().Snapshot().BytesWritten != 0 {
			t.Fatalf("workers=%d: the stream of one chunk created %v", workers, created)
		}
		if _, err := Sort(cfg, bytes.NewReader(in), "out"); err != nil {
			t.Fatal(err)
		}
		out, err := storage.ReadFileAll(fs, "out")
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, out, cfg.Compare)
		if multisetHash(in) != multisetHash(out) {
			t.Fatalf("workers=%d: output is not a permutation of input", workers)
		}
		if len(created) != 1 || created[0] != "out" {
			t.Fatalf("workers=%d: created %v, want the output alone", workers, created)
		}
		if w := fs.Stats().Snapshot().BytesWritten; w != int64(len(in)) {
			t.Fatalf("workers=%d: wrote %d bytes for a %d-byte output", workers, w, len(in))
		}
		if !bytes.Equal(streamed, out) {
			t.Fatalf("workers=%d: the stream's %d bytes are not the output", workers, len(streamed))
		}
	}
}

// TestSortExactlyOneFullChunk: an input that exactly fills the one-worker
// chunk is found to end only on the next read, after its chunk became a
// run; that lone run is a merge of one stream, like any final pass.
func TestSortExactlyOneFullChunk(t *testing.T) {
	fs := storage.NewMemFS()
	rng := rand.New(rand.NewSource(14))
	cfg := sortCfg(fs, 64*recSize)
	cfg.Workers = 1
	in := makeRecords(rng, 64)
	if n, err := Sort(cfg, bytes.NewReader(in), "out"); err != nil || n != 64 {
		t.Fatalf("sorted %d records: %v", n, err)
	}
	out, err := storage.ReadFileAll(fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, out, cfg.Compare)
	if multisetHash(in) != multisetHash(out) {
		t.Fatal("output is not the sorted input")
	}
	if names := fs.Names(); len(names) != 1 {
		t.Fatalf("files left behind: %v", names)
	}
}

func TestSortInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := makeRecords(rng, 300)
	SortInMemory(data, recSize, CompareKeyPrefix(8))
	checkSorted(t, data, CompareKeyPrefix(8))
}

func TestValidate(t *testing.T) {
	if _, err := Sort(Config{}, bytes.NewReader(nil), "out"); err == nil {
		t.Fatal("expected validation error for zero config")
	}
	fs := storage.NewMemFS()
	if _, err := Sort(Config{FS: fs, RecordSize: 8}, bytes.NewReader(nil), "out"); err == nil {
		t.Fatal("expected validation error for nil comparator")
	}
}

// TestSortedStreamShares reads the stream of a multi-pass sort the way the
// partition layer hands it to its children: as consecutive While shares
// split at key boundaries, each read through buffers that end inside
// records. The shares concatenate to the sorted input and each holds
// exactly the records below its boundary; the final merge's runs stay on the
// device until Close, which removes them; and a read fault in the final
// merge surfaces through the stream with its cause, after which Close still
// leaves nothing behind.
func TestSortedStreamShares(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	in := makeRecords(rng, 3000)
	sorted := append([]byte(nil), in...)
	SortInMemory(sorted, recSize, totalOrder(CompareKeyPrefix(8)))
	bounds := [][]byte{sorted[700*recSize : 700*recSize+8], sorted[2100*recSize : 2100*recSize+8]}
	for _, workers := range []int{1, 4} {
		fs := storage.NewMemFS()
		cfg := sortCfg(fs, 64*recSize)
		cfg.Workers = workers
		r, n, err := Sorted(cfg, bytes.NewReader(in))
		if err != nil || n != 3000 {
			t.Fatalf("workers=%d: sorted %d records: %v", workers, n, err)
		}
		if len(fs.Names()) < 2 {
			t.Fatalf("workers=%d: the final merge reads %v, want several runs", workers, fs.Names())
		}
		var all []byte
		for i := 0; i <= len(bounds); i++ {
			keep := func(rec []byte) bool { return i == len(bounds) || bytes.Compare(rec[:8], bounds[i]) < 0 }
			var share []byte
			buf := make([]byte, 7+i*recSize)
			for {
				m, err := r.While(keep).Read(buf)
				share = append(share, buf[:m]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(share)%recSize != 0 {
				t.Fatalf("workers=%d: share %d ends inside a record", workers, i)
			}
			for off := 0; off < len(share); off += recSize {
				if !keep(share[off:]) {
					t.Fatalf("workers=%d: share %d holds a record past its boundary", workers, i)
				}
			}
			all = append(all, share...)
		}
		if !bytes.Equal(all, sorted) {
			t.Fatalf("workers=%d: the shares are not the sorted input", workers)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if names := fs.Names(); len(names) != 0 {
			t.Fatalf("workers=%d: Close left %v", workers, names)
		}

		boom := errors.New("injected run read failure")
		r, _, err = Sorted(cfg, bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpRead && off > 0 {
				return boom
			}
			return nil
		})
		if _, err := io.ReadAll(r); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: stream error %v, want the injected cause", workers, err)
		}
		fs.SetFault(nil)
		r.Close()
		if names := fs.Names(); len(names) != 0 {
			t.Fatalf("workers=%d: Close after a failed read left %v", workers, names)
		}
	}
}
