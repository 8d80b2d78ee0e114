package lsm

// Concurrency stress test for the LSM handle: queries of both flavors
// overlap with an appender whose batches force memtable flushes and tier
// compactions — the heaviest mutation the handle lock has to serialize
// (the LSM counterpart of the tree's SIMS-refresh lock). Run with -race.

import (
	"context"
	"sync"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

func TestConcurrentLSMQueriesWithAppend(t *testing.T) {
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
		FS:      fs,
		Name:    "lsm",
		S:       s,
		RawName: "raw",
		// Tiny memtable (~170 records) + fanout 2: the appender below
		// triggers many flushes and multi-tier compactions mid-query.
		MemBudgetBytes: 4 << 10,
		Fanout:         2,
		Workers:        2,
		QueryWorkers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

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
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := ix.Count(); got != tCount+int64(len(stream)) {
		t.Fatalf("Count = %d after concurrent appends, want %d", got, tCount+int64(len(stream)))
	}
	// Every appended series must be findable once the dust settles.
	res, err := ix.ExactSearch(context.Background(), stream[123], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 {
		t.Fatalf("appended series lost during concurrent load: dist=%v", res.Dist)
	}
}
