package lsm

// Tests for inline compaction under failure: a merge that fails inside an
// Insert leaves the batch applied and durable, the group's inputs intact
// and no temporaries behind, and the next Flush/Sync retries it to the
// same on-disk state a never-faulted index reaches.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// buildStreamed builds an index over the shared dataset and streams extra
// batches through Insert so many flushes and multi-tier compactions
// happen, then flushes the tail with Sync.
func buildStreamed(t *testing.T) (*lone, *storage.MemFS) {
	t.Helper()
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	ix, err := buildLone(Options{
		FS:      fs,
		Name:    "lsm",
		S:       tSummarizer(t),
		RawName: "raw",
		// Smallest memtable (16 records): every 50-series batch flushes
		// three times, and the 25 flushes cascade compactions into tier 2.
		MemBudgetBytes: 16 * summary.RecordSize,
		Workers:        2,
		QueryWorkers:   1, // whole Results are compared; visit counts need a serial scan
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

// fsState captures the on-disk state: every file name and its exact bytes.
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

// runFiles is the subset of an on-disk state that holds records: flushed
// and compacted runs, and the raw dataset.
func runFiles(st map[string][]byte) map[string][]byte {
	out := map[string][]byte{}
	for name, b := range st {
		if strings.Contains(name, ".run.") || strings.Contains(name, ".cmp.") || name == "raw" {
			out[name] = b
		}
	}
	return out
}

// buildFaultable builds the index the compaction-fault tests share: the
// smallest memtable (16 records), so a few hundred inserts flush many times
// and make groups ready on several tiers.
func buildFaultable(t *testing.T) (*lone, *storage.MemFS) {
	t.Helper()
	fs := storage.NewMemFS()
	if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	ix, err := buildLone(Options{
		FS:             fs,
		Name:           "lsm",
		S:              tSummarizer(t),
		RawName:        "raw",
		MemBudgetBytes: 16 * summary.RecordSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, fs
}

// failMerges makes every write to a compaction output (or its
// temporaries) fail with the returned error; flush runs (lsm.run.*) and
// the raw file stay healthy.
func failMerges(fs *storage.MemFS) error {
	boom := errors.New("injected compaction failure")
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		if op == storage.OpWrite && strings.Contains(name, ".cmp.") {
			return boom
		}
		return nil
	})
	return boom
}

// requireNoCompactionTemps fails if a compaction temporary or a partial
// compaction output is left on fs.
func requireNoCompactionTemps(t *testing.T, fs *storage.MemFS) {
	t.Helper()
	for _, name := range fs.Names() {
		if strings.Contains(name, ".compact") || strings.Contains(name, ".cmp.") {
			t.Fatalf("leaked compaction temporary %q (files: %v)", name, fs.Names())
		}
	}
}

// requireRunFiles fails unless the run files on fs are exactly want.
func requireRunFiles(t *testing.T, fs *storage.MemFS, want map[string][]byte) {
	t.Helper()
	got := runFiles(fsState(t, fs))
	if len(got) != len(want) {
		t.Fatalf("%d run files, a never-faulted index has %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("run file %q differs from the never-faulted index's", name)
		}
	}
}

// TestCompactionFaultRetried: with every write to a compaction output
// failing, an Insert whose flushes make groups ready still applies the
// whole batch and returns nil; Sync, which promises the compacted state,
// returns the merge error; no compaction temporary or partial output is
// left and every input run stays readable. Once the fault clears, Sync
// lands every deferred merge and the run files are byte-identical to an
// index that was never faulted.
func TestCompactionFaultRetried(t *testing.T) {
	build := func() (*lone, *storage.MemFS) { return buildFaultable(t) }
	stream := dataset.Generate(dataset.NewRandomWalk(), 300, tLen, 7)

	ref, refFS := build()
	if err := ref.Insert(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	if err := ref.Sync(); err != nil {
		t.Fatal(err)
	}
	want := runFiles(fsState(t, refFS))
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	ix, fs := build()
	defer ix.Close()
	boom := errors.New("injected compaction failure")
	// Fail every write touching a compaction output (or its temporaries);
	// flush runs (lsm.run.*) and the raw file stay healthy.
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		if op == storage.OpWrite && strings.Contains(name, ".cmp.") {
			return boom
		}
		return nil
	})
	before := ix.Count()
	if err := ix.Insert(context.Background(), stream); err != nil {
		t.Fatalf("Insert failed on a compaction fault: %v", err)
	}
	if got := ix.Count(); got != before+int64(len(stream)) {
		t.Fatalf("Count = %d after Insert, want %d", got, before+int64(len(stream)))
	}
	if err := ix.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync over a failing merge: %v, want the injected error", err)
	}
	// The failed merge removes its partial output, and writes nothing else.
	for _, name := range fs.Names() {
		if strings.Contains(name, ".compact") || strings.Contains(name, ".cmp.") {
			t.Fatalf("leaked compaction temporary %q (files: %v)", name, fs.Names())
		}
	}
	// The group inputs are still on disk and whole: nothing was lost.
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
		if err := rb.Verify(); err != nil {
			t.Fatalf("input run %q corrupt after failed compaction: %v", r.name, err)
		}
		onDisk += rb.Count()
		rb.Close()
	}
	if want := ix.Count() - int64(len(ix.mem)); onDisk != want {
		t.Fatalf("flushed records on disk = %d, want %d", onDisk, want)
	}

	fs.SetFault(nil)
	if err := ix.Sync(); err != nil {
		t.Fatalf("Sync after the fault cleared: %v", err)
	}
	got := runFiles(fsState(t, fs))
	if len(got) != len(want) {
		t.Fatalf("%d run files after the retry, a never-faulted index has %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("run file %q differs from the never-faulted index's", name)
		}
	}
}

// TestCompactionFaultInsertRecords pins the merge-failure semantics on the
// partition layer's write path: InsertRecords whose flushes make groups
// ready applies the whole batch and returns nil while every merge fails;
// Flush returns the merge error and leaves no temporaries; once the fault
// clears, Flush lands the deferred merges and the run files are
// byte-identical to a never-faulted index fed the same records.
func TestCompactionFaultInsertRecords(t *testing.T) {
	stream := dataset.Generate(dataset.NewRandomWalk(), 300, tLen, 11)

	ref, refFS := buildFaultable(t)
	if err := ref.Insert(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	want := runFiles(fsState(t, refFS))
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	ix, fs := buildFaultable(t)
	defer ix.Close()
	boom := failMerges(fs)
	before := ix.Count()
	if err := ix.Insert(context.Background(), stream); err != nil {
		t.Fatalf("InsertRecords failed on a compaction fault: %v", err)
	}
	if got := ix.Count(); got != before+int64(len(stream)) {
		t.Fatalf("Count = %d after InsertRecords, want %d", got, before+int64(len(stream)))
	}
	if err := ix.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush over a failing merge: %v, want the injected error", err)
	}
	requireNoCompactionTemps(t, fs)

	fs.SetFault(nil)
	if err := ix.Flush(); err != nil {
		t.Fatalf("Flush after the fault cleared: %v", err)
	}
	requireRunFiles(t, fs, want)
}

// TestCompactionFaultCloseThenReopen: Close, which promises the compacted
// state, returns a merge that still fails, yet leaves a committed index
// whose groups are merely pending. Reopening with the fault cleared folds
// those groups inline — the recovery path a crash mid-merge takes — to the
// run files a never-faulted index holds, with every series counted once
// and exact answers equal to brute force.
func TestCompactionFaultCloseThenReopen(t *testing.T) {
	stream := dataset.Generate(dataset.NewRandomWalk(), 300, tLen, 13)

	ref, refFS := buildFaultable(t)
	if err := ref.Insert(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want := runFiles(fsState(t, refFS))

	ix, fs := buildFaultable(t)
	boom := failMerges(fs)
	if err := ix.Insert(context.Background(), stream); err != nil {
		t.Fatalf("Insert failed on a compaction fault: %v", err)
	}
	if err := ix.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close over a failing merge: %v, want the injected error", err)
	}
	requireNoCompactionTemps(t, fs)

	fs.SetFault(nil)
	re := reopen(t, fs)
	defer re.Close()
	if got, want := re.Count(), int64(tCount+len(stream)); got != want {
		t.Fatalf("Count after reopen = %d, want %d", got, want)
	}
	requireRunFiles(t, fs, want)

	all := append(dataset.Generate(dataset.NewRandomWalk(), tCount, tLen, 42), stream...)
	for i, q := range dataset.Queries(dataset.NewRandomWalk(), 5, tLen, 99) {
		res, err := re.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce1NN(q, all); math.Abs(res.Dist-want) > 1e-9 {
			t.Fatalf("query %d after reopen: exact %v, brute force %v", i, res.Dist, want)
		}
	}
}

// TestScheduleFromRunList pins the compaction schedule the run list alone
// determines: after n flushes without a failure, tier t holds ⌊n/4ᵗ⌋ mod 4
// runs, oldest first; flush k is the tier-0 run lsm.run.<k>, and the tier-t
// run over flushes [a, a+4ᵗ) is lsm.cmp.t<t-1>.<a>, named by its input tier
// and its oldest input's seq. A Close and Open after every fifth flush
// leaves the run list as it was.
func TestScheduleFromRunList(t *testing.T) {
	fs := storage.NewMemFS()
	if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), 32, tLen, 42); err != nil {
		t.Fatal(err)
	}
	opt := Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw", MemBudgetBytes: 1 << 20}
	ix, err := buildLone(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()
	runList := func() []string {
		var out []string
		for _, r := range ix.runs {
			out = append(out, fmt.Sprintf("%s tier %d seq %d", r.name, r.tier, r.seq))
		}
		return out
	}
	stream := dataset.Generate(dataset.NewSeismic(), 70, tLen, 5)
	for n := 1; n <= len(stream); n++ {
		if err := ix.Insert(context.Background(), stream[n-1:n]); err != nil {
			t.Fatal(err)
		}
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
		if n%5 == 0 {
			before := runList()
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if ix, err = openLone(opt); err != nil {
				t.Fatal(err)
			}
			if after := runList(); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("after %d flushes, Close and Open changed the run list:\n%v\n%v", n, before, after)
			}
		}
		if ix.runs[0].tier != manifest.BulkTier || ix.runs[0].name != "lsm.run.000000" {
			t.Fatalf("after %d flushes the oldest run is %v", n, runList())
		}
		// Expected runs, oldest first: the highest tier's groups first, each
		// tier's complete groups of 4ᵗ flushes in flush order.
		var want []string
		first := 1 // the oldest flush no higher tier covers
		for tier, size := 3, 64; tier >= 0; tier, size = tier-1, size/4 {
			for i := 0; i < n/size%4; i++ {
				name := fmt.Sprintf("lsm.run.%06d", first)
				if tier > 0 {
					name = fmt.Sprintf("lsm.cmp.t%d.%06d", tier-1, first)
				}
				want = append(want, fmt.Sprintf("%s tier %d seq %d", name, tier, first))
				first += size
			}
		}
		if got := runList()[1:]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %d flushes the runs are\n%v\nwant\n%v", n, got, want)
		}
	}
}
