package lsm

// Tests for the durable lifecycle: Open must reconstruct an index from the
// manifest and run files alone (never the raw dataset), restore the
// deterministic compaction cursors so a reopened index continues the exact
// sequence a never-closed one would, and fail loudly on corruption. Plus
// the adaptive scheduler: tier-0 groups pop ahead of higher tiers, and
// backpressure defers higher tiers entirely.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

func reopen(t *testing.T, fs *storage.MemFS) *lone {
	t.Helper()
	ix, err := openLone(Options{
		FS:             fs,
		Name:           "lsm",
		S:              tSummarizer(t),
		RawName:        "raw",
		MemBudgetBytes: 16 * summary.RecordSize,
		Workers:        2,
		QueryWorkers:   1, // whole Results are compared; visit counts need a serial scan
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestOpenRoundTrip: a quiesced index reopens with identical runs, count,
// and exact/approx answers — and the reopen neither reads the raw dataset
// nor writes anything.
func TestOpenRoundTrip(t *testing.T) {
	ix, fs := buildStreamed(t)
	wantRuns := ix.Shape().Runs
	wantCount := ix.Count()
	queries := dataset.Queries(dataset.NewRandomWalk(), 5, tLen, 99)
	type answer struct{ exact, approx core.Result }
	want := make([]answer, len(queries))
	for i, q := range queries {
		e, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ix.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{e, a}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Any read of the raw dataset during Open is a failure: the manifest
	// and the run files must suffice. So is any write: there is no log to
	// start afresh and no manifest to re-commit.
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		switch op {
		case storage.OpRead:
			if name == "raw" {
				return fmt.Errorf("raw dataset read during reopen (off=%d n=%d)", off, n)
			}
		case storage.OpCreate, storage.OpWrite, storage.OpRename, storage.OpRemove:
			return fmt.Errorf("%s of %q during reopen", op, name)
		}
		return nil
	})
	re := reopen(t, fs)
	fs.SetFault(nil)
	defer re.Close()

	if re.Shape().Runs != wantRuns || re.Count() != wantCount {
		t.Fatalf("reopened %d runs / %d series, want %d / %d",
			re.Shape().Runs, re.Count(), wantRuns, wantCount)
	}
	for i, q := range queries {
		e, err := re.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := re.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e != want[i].exact || a != want[i].approx {
			t.Fatalf("query %d: reopened answers differ: exact %+v vs %+v, approx %+v vs %+v",
				i, e, want[i].exact, a, want[i].approx)
		}
	}
}

// TestOpenContinuesDeterministicSequence is the strongest durability
// check: interrupting a stream with Close+Open in the middle must leave
// the final quiesced on-disk state byte-identical to a never-closed index
// fed the same flush sequence — proving the manifest's run list and next
// seq restore the whole schedule (run naming, group formation) exactly.
func TestOpenContinuesDeterministicSequence(t *testing.T) {
	gen := dataset.NewRandomWalk()
	stream := dataset.Generate(gen, 400, tLen, 7)
	build := func(interrupt bool) map[string][]byte {
		fs := storage.NewMemFS()
		if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
			t.Fatal(err)
		}
		// The memtable capacity (25 records) divides the batch size, so the
		// memtable is empty at every batch boundary — the mid-stream Close
		// then adds no extra flush and both sequences see identical flushes,
		// 16 of them: groups land on tiers 0 and 1 on both sides of it.
		opt := Options{
			FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw",
			MemBudgetBytes: 25 * summary.RecordSize, Workers: 2,
		}
		ix, err := buildLone(opt)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(stream); lo += 50 {
			if interrupt && lo == 200 {
				// Mid-stream restart: lifecycle through storage only.
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				if ix, err = openLone(opt); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Insert(context.Background(), stream[lo:lo+50]); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		// Every file, the raw log and the manifest included: a reopen writes
		// nothing of its own.
		return fsState(t, fs)
	}
	ref := build(false)
	got := build(true)
	if len(ref) != len(got) {
		t.Fatalf("file sets differ: %d vs %d files", len(got), len(ref))
	}
	for name, want := range ref {
		b, ok := got[name]
		if !ok {
			t.Fatalf("interrupted build is missing %q", name)
		}
		if string(b) != string(want) {
			t.Fatalf("file %q differs after interrupted build", name)
		}
	}
}

// TestOpenDetectsCorruption: a truncated run file, a mutilated run record,
// runs that share a seq, and a config conflict all fail loudly with typed
// errors.
func TestOpenDetectsCorruption(t *testing.T) {
	ix, fs := buildStreamed(t)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Load(fs, "lsm")
	if err != nil {
		t.Fatal(err)
	}
	runName := m.LSM.Runs[0].Name

	// Truncated run file.
	orig, err := storage.ReadFileAll(fs, runName)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteFileAll(fs, runName, orig[:len(orig)-summary.RecordSize]); err != nil {
		t.Fatal(err)
	}
	if _, err := openLone(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw"}); !errors.Is(err, manifest.ErrCorruptManifest) {
		t.Fatalf("truncated run: got %v, want ErrCorruptManifest", err)
	}

	// Mutilated first key (range check must catch it).
	mut := append([]byte(nil), orig...)
	mut[0] ^= 0xff
	if err := storage.WriteFileAll(fs, runName, mut); err != nil {
		t.Fatal(err)
	}
	if _, err := openLone(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw"}); !errors.Is(err, manifest.ErrCorruptManifest) {
		t.Fatalf("mutilated run: got %v, want ErrCorruptManifest", err)
	}
	if err := storage.WriteFileAll(fs, runName, orig); err != nil {
		t.Fatal(err)
	}

	// Two runs of one seq: the seq names a run's file and orders its age,
	// so the manifest describes no state a writer could have left.
	m, err = manifest.Load(fs, "lsm")
	if err != nil {
		t.Fatal(err)
	}
	good := *m.LSM
	dup := good
	dup.Runs = append([]manifest.RunInfo(nil), good.Runs...)
	dup.Runs[2].Seq = dup.Runs[1].Seq
	m.LSM = &dup
	if err := manifest.Commit(fs, "lsm", m); err != nil {
		t.Fatal(err)
	}
	if _, err := openLone(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw"}); !errors.Is(err, manifest.ErrCorruptManifest) {
		t.Fatalf("runs sharing a seq: got %v, want ErrCorruptManifest", err)
	}
	m.LSM = &good
	if err := manifest.Commit(fs, "lsm", m); err != nil {
		t.Fatal(err)
	}

	// Config conflict: wrong summarization.
	s2, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 16, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openLone(Options{FS: fs, Name: "lsm", S: s2, RawName: "raw"}); !errors.Is(err, manifest.ErrConfigMismatch) {
		t.Fatalf("segment mismatch: got %v, want ErrConfigMismatch", err)
	}

	// And the repaired index opens again.
	re, err := openLone(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

// TestCloseFlushesMemtable: series still in the memtable at Close must be
// durable — visible after reopen.
func TestCloseFlushesMemtable(t *testing.T) {
	ix, data, fs := buildFixture(t, 1<<20)
	extra := dataset.Generate(dataset.NewSeismic(), 25, tLen, 5)
	if err := ix.Insert(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	if len(ix.mem) == 0 {
		t.Fatal("fixture: memtable unexpectedly empty")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openLone(Options{FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw",
		MemBudgetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.Count(), int64(len(data)+len(extra)); got != want {
		t.Fatalf("reopened count %d, want %d", got, want)
	}
	res, err := re.ExactSearch(context.Background(), extra[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 {
		t.Fatalf("memtable series lost across Close/Open: nearest dist %v", res.Dist)
	}
}
