package lsm

// Tests for the background compaction scheduler: determinism of the
// quiesced on-disk state across compaction-worker counts, crash-safe fault
// handling (errors surface, no leaked temporaries), backpressure, and a
// -race stress mix of appends, flushes, and queries over live compactions.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// buildStreamed builds an index over the shared dataset and streams extra
// batches through Append (+ periodic Flush) so many flushes and multi-tier
// compactions happen, then quiesces with Sync. background/workers select
// the compaction mode under test.
func buildStreamed(t *testing.T, background bool, compactionWorkers int) (*Index, *storage.MemFS) {
	t.Helper()
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(Options{
		FS:      fs,
		Name:    "lsm",
		S:       tSummarizer(t),
		RawName: "raw",
		// Tiny memtable: every 50-series batch flushes several times, and
		// fanout 2 cascades compactions across multiple tiers.
		MemBudgetBytes:       32 * recordSize,
		Fanout:               2,
		Workers:              2,
		QueryWorkers:         1, // whole Results are compared; visit counts need a serial scan
		BackgroundCompaction: background,
		CompactionWorkers:    compactionWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := dataset.Generate(gen, 400, tLen, 7)
	for lo := 0; lo < len(stream); lo += 50 {
		if err := ix.Insert(context.Background(), stream[lo:lo+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	return ix, fs
}

// fsState captures the quiesced on-disk state: every file name and its
// exact bytes.
func fsState(t *testing.T, fs *storage.MemFS) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range fs.Names() {
		b, err := storage.ReadFileAll(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestBackgroundCompactionDeterministic: after Sync, the on-disk runs (and
// the in-memory run metadata) must be byte-identical whether compactions
// ran synchronously, on one background worker, or on four — scheduling must
// be invisible at quiescence points.
func TestBackgroundCompactionDeterministic(t *testing.T) {
	ixSync, fsSync := buildStreamed(t, false, 0)
	defer ixSync.Close()
	ref := fsState(t, fsSync)

	for _, workers := range []int{1, 4} {
		ix, fs := buildStreamed(t, true, workers)
		got := fsState(t, fs)
		if len(got) != len(ref) {
			t.Fatalf("compaction-workers=%d: %d files, synchronous left %d\n got: %v\nwant: %v",
				workers, len(got), len(ref), fs.Names(), fsSync.Names())
		}
		for name, want := range ref {
			if !bytes.Equal(got[name], want) {
				t.Fatalf("compaction-workers=%d: file %q differs from synchronous state", workers, name)
			}
		}
		if ix.Shape().Runs != ixSync.Shape().Runs {
			t.Fatalf("compaction-workers=%d: %d runs vs %d synchronous", workers, ix.Shape().Runs, ixSync.Shape().Runs)
		}
		for i := range ix.runs {
			r, w := ix.runs[i], ixSync.runs[i]
			if r.name != w.name || r.tier != w.tier || r.count != w.count || r.seq != w.seq || r.tierSeq != w.tierSeq {
				t.Fatalf("compaction-workers=%d: run %d metadata %+v vs synchronous %+v", workers, i, r, w)
			}
		}
		// Same answers too.
		q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 9)[0]
		a, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ixSync.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Pos != b.Pos || a.Dist != b.Dist {
			t.Fatalf("compaction-workers=%d: answer (%d, %v) vs synchronous (%d, %v)",
				workers, a.Pos, a.Dist, b.Pos, b.Dist)
		}
		ix.Close()
	}
}

// TestBackgroundCompactionFaultSurfaced: a write failure inside a
// background compaction must surface on a subsequent Append/Flush/Sync and
// on Close, leave no .compact temporaries or partial compaction outputs
// behind, and keep the input runs (no data loss).
func TestBackgroundCompactionFaultSurfaced(t *testing.T) {
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected compaction failure")
	ix, err := Build(Options{
		FS:                   fs,
		Name:                 "lsm",
		S:                    tSummarizer(t),
		RawName:              "raw",
		MemBudgetBytes:       32 * recordSize,
		Fanout:               2,
		BackgroundCompaction: true,
		CompactionWorkers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fail every write touching a compaction output (or its temps) from now
	// on; flush runs (lsm.run.*) and the raw file stay healthy.
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		if op == storage.OpWrite && strings.Contains(name, ".cmp.") {
			return boom
		}
		return nil
	})
	stream := dataset.Generate(gen, 300, tLen, 7)
	var opErr error
	for lo := 0; lo < len(stream); lo += 50 {
		if opErr = ix.Insert(context.Background(), stream[lo:lo+50]); opErr != nil {
			break
		}
	}
	if opErr == nil {
		opErr = ix.Sync()
	}
	if !errors.Is(opErr, boom) {
		t.Fatalf("background failure did not surface on Append/Sync: %v", opErr)
	}
	// Sticky: the handle refuses further writes with the same error.
	if err := ix.Insert(context.Background(), stream[:1]); !errors.Is(err, boom) {
		t.Fatalf("error not sticky on Append: %v", err)
	}
	// Close surfaces it too (and still shuts the pool down cleanly).
	if err := ix.Close(); !errors.Is(err, boom) {
		t.Fatalf("error not surfaced on Close: %v", err)
	}
	// No leaked temporaries, no partial compaction outputs: extsort removes
	// its .compact intermediates and the partial output on error.
	for _, name := range fs.Names() {
		if strings.Contains(name, ".compact") || strings.Contains(name, ".cmp.") {
			t.Fatalf("leaked compaction temporary %q (files: %v)", name, fs.Names())
		}
	}
	// The claimed input runs are still on disk: nothing was lost.
	fs.SetFault(nil)
	var onDisk int64
	for _, r := range ix.runs {
		f, err := fs.Open(r.name)
		if err != nil {
			t.Fatalf("input run %q lost after failed compaction: %v", r.name, err)
		}
		rb, err := runblock.OpenReader(f, nil)
		if err != nil {
			t.Fatalf("input run %q unreadable after failed compaction: %v", r.name, err)
		}
		onDisk += rb.Count()
		rb.Close()
	}
	if want := ix.count - int64(len(ix.mem)); onDisk != want {
		t.Fatalf("flushed records on disk = %d, want %d", onDisk, want)
	}
}

// TestBackgroundBackpressure: with a tiny MaxPendingRuns, a fast appender
// must never observe more than MaxPendingRuns+1 tier-0 runs (the +1 is the
// just-flushed run the waiter itself added).
func TestBackgroundBackpressure(t *testing.T) {
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	const fanout = 2
	ix, err := Build(Options{
		FS:                   fs,
		Name:                 "lsm",
		S:                    tSummarizer(t),
		RawName:              "raw",
		MemBudgetBytes:       32 * recordSize,
		Fanout:               fanout,
		BackgroundCompaction: true,
		CompactionWorkers:    1,
		MaxPendingRuns:       fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	done := make(chan struct{})
	var maxTier0 int
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			ix.mu.RLock()
			n := 0
			for _, r := range ix.runs {
				if r.tier == 0 {
					n++
				}
			}
			ix.mu.RUnlock()
			if n > maxTier0 {
				maxTier0 = n
			}
			select {
			case <-done:
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	stream := dataset.Generate(gen, 600, tLen, 7)
	for lo := 0; lo < len(stream); lo += 50 {
		if err := ix.Insert(context.Background(), stream[lo:lo+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	close(done)
	sampler.Wait()
	if maxTier0 > fanout+1 {
		t.Fatalf("backpressure breached: observed %d tier-0 runs, cap %d", maxTier0, fanout)
	}
}

// TestConcurrentAppendersUnderBackpressure: two appenders racing through
// the backpressure wait (which releases the handle lock mid-batch) must
// never write to the same raw-file position — the regression case for the
// stale position counter across cond.Wait. After quiescing, every indexed
// position must be unique and the record count conserved.
func TestConcurrentAppendersUnderBackpressure(t *testing.T) {
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	const fanout = 2
	ix, err := Build(Options{
		FS:                   fs,
		Name:                 "lsm",
		S:                    tSummarizer(t),
		RawName:              "raw",
		MemBudgetBytes:       16 * recordSize, // tiny memtable: flush mid-batch
		Fanout:               fanout,
		BackgroundCompaction: true,
		CompactionWorkers:    1,
		MaxPendingRuns:       fanout, // tight cap: waits happen constantly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	const perAppender = 300
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			stream := dataset.Generate(gen, perAppender, tLen, int64(100+a))
			for lo := 0; lo < len(stream); lo += 50 {
				if err := ix.Insert(context.Background(), stream[lo:lo+50]); err != nil {
					errs <- err
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	want := int64(tCount + 2*perAppender)
	if got := ix.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	// The raw file must have grown by exactly the appended records (no
	// overwrites), and every indexed position must be unique.
	if sz := fs.FileSize("raw"); sz != want*int64(series.EncodedSize(tLen)) {
		t.Fatalf("raw file holds %d bytes, want %d", sz, want*int64(series.EncodedSize(tLen)))
	}
	seen := map[int64]bool{}
	var total int64
	ix.mu.RLock()
	for _, r := range ix.runs {
		total += r.count
		err := r.rb.Range(0, r.count, func(_ summary.Key, p int64) error {
			if seen[p] {
				return fmt.Errorf("position %d indexed twice — records were overwritten", p)
			}
			seen[p] = true
			return nil
		})
		if err != nil {
			ix.mu.RUnlock()
			t.Fatal(err)
		}
	}
	for _, e := range ix.mem {
		if seen[e.pos] {
			ix.mu.RUnlock()
			t.Fatalf("memtable position %d duplicates a run record", e.pos)
		}
		seen[e.pos] = true
		total++
	}
	ix.mu.RUnlock()
	if total != want {
		t.Fatalf("records across runs+memtable = %d, want %d", total, want)
	}
}

// TestConcurrentQueriesWithBackgroundCompaction is the -race stress mix:
// queries of both flavors overlap with an appender whose batches force
// flushes and multi-tier background compactions, plus Flush and Sync calls
// from a third goroutine. Run with -race.
func TestConcurrentQueriesWithBackgroundCompaction(t *testing.T) {
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 8, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(Options{
		FS:                   fs,
		Name:                 "lsm",
		S:                    s,
		RawName:              "raw",
		MemBudgetBytes:       4 << 10,
		Fanout:               2,
		Workers:              2,
		QueryWorkers:         4,
		BackgroundCompaction: true,
		CompactionWorkers:    3,
	})
	if err != nil {
		t.Fatal(err)
	}

	qs := dataset.Queries(gen, 5, tLen, 47)
	stream := dataset.Generate(gen, 600, tLen, 53)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := qs[g%len(qs)]
			for it := 0; it < 4; it++ {
				if it%2 == 0 {
					if _, err := ix.ExactSearch(context.Background(), q, 0); err != nil {
						errs <- err
						return
					}
				} else if _, err := ix.ApproxSearch(context.Background(), q, 0); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 0; lo < len(stream); lo += 100 {
			if err := ix.Insert(context.Background(), stream[lo:lo+100]); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := ix.Flush(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Count(); got != tCount+int64(len(stream)) {
		t.Fatalf("Count = %d after concurrent appends, want %d", got, tCount+int64(len(stream)))
	}
	// Every appended series must be findable once the dust settles, and the
	// quiesced state must behave like a freshly consistent index.
	res, err := ix.ExactSearch(context.Background(), stream[123], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 {
		t.Fatalf("appended series lost during concurrent load: dist=%v", res.Dist)
	}
	var held int64
	ix.mu.RLock()
	for _, r := range ix.runs {
		held += r.count
	}
	held += int64(len(ix.mem))
	ix.mu.RUnlock()
	if held != tCount+int64(len(stream)) {
		t.Fatalf("records across runs+memtable = %d, want %d", held, tCount+int64(len(stream)))
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}
