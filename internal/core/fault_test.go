package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
)

// TestBuildSurvivesInjectedFaults verifies that device failures during any
// construction phase surface as errors (no panics, no partial silence).
func TestBuildSurvivesInjectedFaults(t *testing.T) {
	boom := errors.New("injected device failure")
	// Fail the Nth write, for a spread of N covering the sort, bulk-load,
	// and metadata phases.
	for _, failAt := range []int{1, 3, 10, 30, 100} {
		for _, variant := range []string{"tree", "trie"} {
			fs, _ := fixtureFS(t)
			// The sort's run/merge workers write concurrently, so the hook
			// must count atomically.
			var writes atomic.Int64
			fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
				if op == storage.OpWrite && writes.Add(1) == int64(failAt) {
					return boom
				}
				return nil
			})
			opt := baseOptions(t, fs, false)
			var err error
			if variant == "tree" {
				_, err = buildTree(opt)
			} else {
				_, err = buildTrie(opt)
			}
			// Depending on failAt the build may succeed (fault landed after
			// the last write) or fail; it must never fail silently.
			if writes.Load() >= int64(failAt) && err == nil {
				t.Fatalf("%s failAt=%d: fault consumed but build reported success", variant, failAt)
			}
			if err != nil && !errors.Is(err, boom) {
				t.Fatalf("%s failAt=%d: error lost its cause: %v", variant, failAt, err)
			}
		}
	}
}

func TestQuerySurvivesInjectedReadFaults(t *testing.T) {
	boom := errors.New("injected read failure")
	fs, _ := fixtureFS(t)
	ix, err := buildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := mustQuery(t)
	// Sanity: works before the fault.
	if _, err := ix.ExactSearch(context.Background(), q, 0); err != nil {
		t.Fatal(err)
	}
	// Fail every device read: the approximate phase's first raw read must
	// hit the device and fail.
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		if op == storage.OpRead {
			return boom
		}
		return nil
	})
	if _, err := ix.ExactSearch(context.Background(), q, 0); err == nil {
		t.Fatal("expected read fault to propagate")
	} else if !errors.Is(err, boom) {
		t.Fatalf("error lost its cause: %v", err)
	}
	fs.SetFault(nil)
	// Index usable again once the device recovers.
	if _, err := ix.ExactSearch(context.Background(), q, 0); err != nil {
		t.Fatalf("index unusable after fault cleared: %v", err)
	}
}

func mustQuery(t *testing.T) series.Series {
	t.Helper()
	_, data := fixtureFS(t)
	return data[0].Clone()
}

// TestShardedScanFaultCancelsSiblings injects a storage read failure into
// the SHARDED candidate-verification phase of exact search (the approximate
// phase is allowed to succeed first): the failing shard must cancel its
// siblings, the error must surface with its cause intact, and no scan
// goroutine may leak.
func TestShardedScanFaultCancelsSiblings(t *testing.T) {
	boom := errors.New("injected shard read failure")
	for _, variant := range []string{"tree", "trie"} {
		fs, _ := fixtureFS(t)
		opt := baseOptions(t, fs, false)
		opt.QueryWorkers = 4
		var exact, approx func(context.Context, series.Series, int) (Result, error)
		var closeIx func() error
		if variant == "tree" {
			ix, err := buildTree(opt)
			if err != nil {
				t.Fatal(err)
			}
			exact, approx, closeIx = ix.ExactSearch, ix.ApproxSearch, ix.Close
		} else {
			ix, err := buildTrie(opt)
			if err != nil {
				t.Fatal(err)
			}
			exact, approx, closeIx = ix.ExactSearch, ix.ApproxSearch, ix.Close
		}
		// A non-member query: the verification scan must fetch real
		// candidates (a member query is answered at distance 0 by the
		// approximate phase and verifies nothing).
		q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 61)[0]

		// Measure how many raw reads the (deterministic) approximate phase
		// performs, so the fault can be armed to hit only the sharded
		// verification scan that follows it inside ExactSearch.
		pre, err := approx(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}

		baseline := runtime.NumGoroutine()
		var rawReads atomic.Int64
		fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpRead && name == "raw" && rawReads.Add(1) > pre.VisitedRecords {
				return boom
			}
			return nil
		})
		if _, err := exact(context.Background(), q, 0); err == nil {
			t.Fatalf("%s: expected sharded-scan fault to propagate", variant)
		} else if !errors.Is(err, boom) {
			t.Fatalf("%s: error lost its cause: %v", variant, err)
		}
		fs.SetFault(nil)

		// All shard goroutines must have been joined (no leaks). Allow the
		// runtime a moment to retire exiting goroutines.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > baseline {
			t.Fatalf("%s: %d goroutines leaked from cancelled shards", variant, got-baseline)
		}

		// The handle stays usable once the device recovers.
		if _, err := exact(context.Background(), q, 0); err != nil {
			t.Fatalf("%s: index unusable after fault cleared: %v", variant, err)
		}
		closeIx()
	}
}
