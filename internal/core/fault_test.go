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
		fs, _ := fixtureFS(t)
		// The sort's run/merge workers write concurrently, so the hook must
		// count atomically.
		var writes atomic.Int64
		fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
			if op == storage.OpWrite && writes.Add(1) == int64(failAt) {
				return boom
			}
			return nil
		})
		_, err := buildTree(baseOptions(t, fs, false))
		// Depending on failAt the build may succeed (fault landed after the
		// last write) or fail; it must never fail silently.
		if writes.Load() >= int64(failAt) && err == nil {
			t.Fatalf("failAt=%d: fault consumed but build reported success", failAt)
		}
		if err != nil && !errors.Is(err, boom) {
			t.Fatalf("failAt=%d: error lost its cause: %v", failAt, err)
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
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	opt.QueryWorkers = 4
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// A non-member query: the verification scan must fetch real
	// candidates (a member query is answered at distance 0 by the
	// approximate phase and verifies nothing).
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 61)[0]

	// Measure how many raw reads the (deterministic) approximate phase
	// performs, so the fault can be armed to hit only the sharded
	// verification scan that follows it inside ExactSearch.
	pre, err := ix.ApproxSearch(context.Background(), q, 0)
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
	if _, err := ix.ExactSearch(context.Background(), q, 0); err == nil {
		t.Fatal("expected sharded-scan fault to propagate")
	} else if !errors.Is(err, boom) {
		t.Fatalf("error lost its cause: %v", err)
	}
	fs.SetFault(nil)

	// All shard goroutines must have been joined (no leaks). Allow the
	// runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("%d goroutines leaked from cancelled shards", got-baseline)
	}

	// The handle stays usable once the device recovers.
	if _, err := ix.ExactSearch(context.Background(), q, 0); err != nil {
		t.Fatalf("index unusable after fault cleared: %v", err)
	}
}
