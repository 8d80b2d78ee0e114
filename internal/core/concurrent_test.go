package core

// Concurrency stress tests: run with -race (CI does). They assert both
// memory safety (no data races on a shared handle) and answer sanity while
// queries of every flavor overlap with each other and with inserts.

import (
	"context"
	"sync"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
)

// TestConcurrentTreeQueriesSharedHandle hammers ONE TreeIndex handle with
// overlapping ExactSearch / ApproxSearch / ExactSearchKNN calls across
// materialized and non-materialized variants and several QueryWorkers
// settings.
func TestConcurrentTreeQueriesSharedHandle(t *testing.T) {
	for _, mat := range []bool{false, true} {
		for _, qw := range []int{1, 4} {
			fs, _ := fixtureFS(t)
			opt := baseOptions(t, fs, mat)
			opt.QueryWorkers = qw
			ix, err := BuildTree(opt)
			if err != nil {
				t.Fatal(err)
			}
			qs := dataset.Queries(dataset.NewRandomWalk(), 6, tLen, 23)
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					q := qs[g%len(qs)]
					for it := 0; it < 3; it++ {
						switch (g + it) % 3 {
						case 0:
							if _, err := ix.ExactSearch(context.Background(), q, 1); err != nil {
								errs <- err
								return
							}
						case 1:
							if _, err := ix.ApproxSearch(context.Background(), q, 1); err != nil {
								errs <- err
								return
							}
						default:
							if _, _, err := ix.ExactSearchKNN(context.Background(), q, 3, 1); err != nil {
								errs <- err
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("mat=%v workers=%d: %v", mat, qw, err)
			}
			ix.Close()
		}
	}
}

// TestConcurrentTreeQueriesWithInserts interleaves queries with InsertBatch
// on one handle: inserts mark the SIMS summary array dirty, so the queries
// racing in afterwards all contend on the refresh lock — the regression
// this test exists to catch.
func TestConcurrentTreeQueriesWithInserts(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	opt.QueryWorkers = 4
	ix, err := BuildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	qs := dataset.Queries(dataset.NewRandomWalk(), 4, tLen, 29)
	batches := dataset.Generate(dataset.NewSeismic(), 120, tLen, 31)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := qs[g%len(qs)]
			for it := 0; it < 4; it++ {
				if _, err := ix.ExactSearch(context.Background(), q, 0); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 0; lo < len(batches); lo += 30 {
			if err := ix.Insert(context.Background(), batches[lo:lo+30]); err != nil {
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
	if ix.Count() != tCount+int64(len(batches)) {
		t.Fatalf("Count = %d after concurrent inserts", ix.Count())
	}
	// Post-condition: a fresh query sees every inserted series.
	res, err := ix.ExactSearch(context.Background(), batches[13], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 1e-9 {
		t.Fatalf("inserted series lost during concurrent load: %v", res.Dist)
	}
}

// TestConcurrentTrieQueriesSharedHandle does the same for the (immutable)
// trie variant.
func TestConcurrentTrieQueriesSharedHandle(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	opt.QueryWorkers = 4
	ix, err := BuildTrie(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	qs := dataset.Queries(dataset.NewRandomWalk(), 6, tLen, 37)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := qs[g%len(qs)]
			for it := 0; it < 3; it++ {
				if it%2 == 0 {
					if _, err := ix.ExactSearch(context.Background(), q, 1); err != nil {
						errs <- err
						return
					}
				} else if _, err := ix.ApproxSearch(context.Background(), q, 1); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
