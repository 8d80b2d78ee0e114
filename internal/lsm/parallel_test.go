package lsm

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// buildParallelFixture builds an index over the shared dataset with the
// given worker count, then streams extra batches through Append + Flush so
// compactions happen. The summarizer is deliberately coarse (2 segments x
// 2 bits: 16 distinct keys) so runs are full of comparator ties, and the
// budget/fanout combination (1 MiB budget, 256 KiB merge buffers, fanout 4
// > final fan-in 3) forces a multi-pass compaction whose merge grouping
// differs between worker counts — the hardest case for determinism.
func buildParallelFixture(t *testing.T, workers int) (*lone, *storage.MemFS) {
	t.Helper()
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
		t.Fatal(err)
	}
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 2, CardBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := buildLone(Options{
		FS:             fs,
		Name:           "lsm",
		S:              s,
		RawName:        "raw",
		MemBudgetBytes: 1 << 20,
		Workers:        workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := dataset.Generate(gen, 300, tLen, 7)
	for lo := 0; lo < len(stream); lo += 50 {
		if err := ix.Insert(context.Background(), stream[lo:lo+50]); err != nil {
			t.Fatal(err)
		}
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return ix, fs
}

// TestParallelBuildDeterministic: Workers must be invisible in the result —
// identical run files on the device and identical search answers.
func TestParallelBuildDeterministic(t *testing.T) {
	ix1, fs1 := buildParallelFixture(t, 1)
	defer ix1.Close()
	ix8, fs8 := buildParallelFixture(t, 8)
	defer ix8.Close()

	if ix1.Shape().Runs != ix8.Shape().Runs {
		t.Fatalf("run counts differ: workers=1 has %d, workers=8 has %d", ix1.Shape().Runs, ix8.Shape().Runs)
	}
	// The stream must reach a compaction: its multi-pass merge is the
	// stage where a worker-count dependence would show.
	compacted := false
	for _, r := range ix1.runs {
		compacted = compacted || strings.Contains(r.name, ".cmp.")
	}
	if !compacted {
		t.Fatal("fixture ran no compaction")
	}
	for i := range ix1.runs {
		r1, r8 := ix1.runs[i], ix8.runs[i]
		if r1.name != r8.name || r1.tier != r8.tier || r1.count != r8.count {
			t.Fatalf("run %d metadata differs: %+v vs %+v", i, r1, r8)
		}
		b1, err := storage.ReadFileAll(fs1, r1.name)
		if err != nil {
			t.Fatal(err)
		}
		b8, err := storage.ReadFileAll(fs8, r8.name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b8) {
			t.Fatalf("run file %q differs between workers=1 and workers=8", r1.name)
		}
	}

	queries := dataset.Queries(dataset.NewRandomWalk(), 10, tLen, 99)
	for qi, q := range queries {
		q = append(series.Series(nil), q...).ZNormalize()
		e1, err := ix1.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		e8, err := ix8.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e1.Pos != e8.Pos || e1.Dist != e8.Dist {
			t.Fatalf("query %d: exact answers differ: %+v vs %+v", qi, e1, e8)
		}
		a1, err := ix1.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		a8, err := ix8.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a1.Pos != a8.Pos || a1.Dist != a8.Dist {
			t.Fatalf("query %d: approx answers differ: %+v vs %+v", qi, a1, a8)
		}
	}
}

// TestBuildReadsRawOnce: a bulk load, at any worker count,
// writes the sidecar storage.BuildRecordSums would and reads the raw file
// once (the sidecar is computed inside the summarization pass) — also with
// a torn trailing partial record, which is not part of the dataset, and
// with a stale sidecar from a longer dataset already on disk.
func TestBuildReadsRawOnce(t *testing.T) {
	rawRec := series.EncodedSize(tLen)
	for _, workers := range []int{1, 2, 8} {
		for _, tc := range []struct {
			name        string
			torn, stale int
		}{{"clean", 0, 0}, {"torn-tail", 11, 0}, {"stale-sidecar", 0, tCount + 30}} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, tc.name), func(t *testing.T) {
				fs := storage.NewMemFS()
				gen := dataset.NewRandomWalk()
				if tc.stale > 0 {
					if _, err := dataset.WriteFile(fs, "raw", gen, tc.stale, tLen, 9); err != nil {
						t.Fatal(err)
					}
					if _, err := storage.BuildRecordSums(fs, "raw", rawRec); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
					t.Fatal(err)
				}
				rawSize := int64(tCount * rawRec)
				if tc.torn > 0 {
					f, err := fs.Open("raw")
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.WriteAt(make([]byte, tc.torn), rawSize); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}
				before := fs.Stats().Snapshot()
				ix, err := buildLone(Options{
					FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw",
					MemBudgetBytes: 1 << 20, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				io := fs.Stats().Snapshot().Sub(before)
				if ix.Count() != tCount {
					t.Fatalf("Count = %d, want %d", ix.Count(), tCount)
				}
				ix.Close()
				// Beyond the raw pass: the sort's merge reads its runs once,
				// and opening the compressed run reads its footer.
				if limit := rawSize + rawSize/20 + 2*tCount*summary.RecordSize; io.BytesRead > limit {
					t.Fatalf("build read %d bytes of a %d-byte dataset, want at most %d (one pass)", io.BytesRead, rawSize, limit)
				}
				fused, err := storage.ReadFileAll(fs, storage.RecordSumsName("raw"))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := storage.BuildRecordSums(fs, "raw", rawRec); err != nil {
					t.Fatal(err)
				}
				want, _ := storage.ReadFileAll(fs, storage.RecordSumsName("raw"))
				if !bytes.Equal(fused, want) {
					t.Fatalf("build's sidecar (%d bytes) differs from BuildRecordSums's (%d bytes)", len(fused), len(want))
				}
			})
		}
	}
}
