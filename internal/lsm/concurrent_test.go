package lsm

// Concurrency stress test for the LSM handle: queries of both flavors
// overlap with two appenders whose batches force memtable flushes and tier
// compactions, and with Flush and Sync callers — the heaviest mutation the
// handle lock has to serialize (the LSM counterpart of the tree's
// SIMS-refresh lock). Every manifest commit releases the lock, so inline
// merges of different writers interleave there. Run with -race.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

func TestConcurrentLSMQueriesWithAppend(t *testing.T) {
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
		// Tiny memtable + fanout 2: every 50-series batch flushes, and the
		// flushes cascade into multi-tier compactions mid-query.
		MemBudgetBytes: 32 * recordSize,
		Fanout:         2,
		Workers:        2,
		QueryWorkers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}

	qs := dataset.Queries(gen, 5, tLen, 47)
	const appenders, perAppender = 2, 300
	streams := make([][]series.Series, appenders)
	data := dataset.Generate(gen, tCount, tLen, 42)
	for a := range streams {
		streams[a] = dataset.Generate(gen, perAppender, tLen, int64(100+a))
		data = append(data, streams[a]...)
	}

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
	for _, stream := range streams {
		wg.Add(1)
		go func(stream []series.Series) {
			defer wg.Done()
			for lo := 0; lo < len(stream); lo += 50 {
				if err := ix.Insert(context.Background(), stream[lo:lo+50]); err != nil {
					errs <- err
					return
				}
			}
		}(stream)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := ix.Flush(); err != nil {
				errs <- err
				return
			}
			if err := ix.Sync(); err != nil {
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

	want := int64(len(data))
	if got := ix.Count(); got != want {
		t.Fatalf("Count = %d after concurrent appends, want %d", got, want)
	}
	// The raw file grew by exactly the appended records (no overwrites),
	// and every indexed position is unique.
	if sz := fs.FileSize("raw"); sz != want*int64(series.EncodedSize(tLen)) {
		t.Fatalf("raw file holds %d bytes, want %d", sz, want*int64(series.EncodedSize(tLen)))
	}
	seen := map[int64]bool{}
	live := map[string]bool{}
	ix.mu.RLock()
	for _, r := range ix.runs {
		live[r.name] = true
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
	}
	ix.mu.RUnlock()
	if int64(len(seen)) != want {
		t.Fatalf("records across runs+memtable = %d, want %d", len(seen), want)
	}
	// Every merged-away input was deleted and no temporary survived: the
	// only compaction files are the live runs.
	for _, name := range fs.Names() {
		if strings.Contains(name, ".compact") || (strings.Contains(name, ".cmp.") && !live[name]) {
			t.Fatalf("orphan compaction file %q", name)
		}
	}

	type answer struct{ exact, approx core.Result }
	answers := make([]answer, len(qs))
	for i, q := range qs {
		e, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bf := bruteForce1NN(q, data); math.Abs(e.Dist-bf) > 1e-9 {
			t.Fatalf("query %d: exact %v, brute force %v", i, e.Dist, bf)
		}
		a, err := ix.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = answer{e, a}
	}
	// Every appended series is findable.
	if res, err := ix.ExactSearch(context.Background(), streams[1][123], 0); err != nil || res.Dist > 1e-9 {
		t.Fatalf("appended series lost during concurrent load: dist=%v err=%v", res.Dist, err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re := reopen(t, fs)
	defer re.Close()
	if re.Count() != want {
		t.Fatalf("reopened Count = %d, want %d", re.Count(), want)
	}
	for i, q := range qs {
		e, err := re.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := re.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		w := answers[i]
		if e.Pos != w.exact.Pos || e.Dist != w.exact.Dist || a.Pos != w.approx.Pos || a.Dist != w.approx.Dist {
			t.Fatalf("query %d: reopened answers differ: exact %+v vs %+v, approx %+v vs %+v",
				i, e, w.exact, a, w.approx)
		}
	}
}
