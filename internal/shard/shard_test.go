package shard

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	cases := []struct{ req, n, want int }{
		{0, 100, runtime.GOMAXPROCS(0)},
		{4, 100, 4},
		{8, 3, 3}, // clamps to n, not to 1
		{1, 0, 1}, // never below 1
		{-1, 5, minInt(runtime.GOMAXPROCS(0), 5)},
	}
	for _, c := range cases {
		if got := Resolve(c.req, c.n); got != c.want {
			t.Errorf("Resolve(%d, %d) = %d, want %d", c.req, c.n, got, c.want)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSplitCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 101} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			rs := Split(n, w)
			next := 0
			for _, r := range rs {
				if r.Lo != next || r.Hi <= r.Lo {
					t.Fatalf("Split(%d,%d): bad range %+v at %d", n, w, r, next)
				}
				next = r.Hi
			}
			if next != n {
				t.Fatalf("Split(%d,%d) covers [0,%d)", n, w, next)
			}
		}
	}
}

func TestBSFOnlyLowers(t *testing.T) {
	var b BSF
	b.Init(math.Inf(1))
	b.Lower(5)
	b.Lower(7) // ignored
	if got := b.Load(); got != 5 {
		t.Fatalf("bound = %v, want 5", got)
	}
	if b.Prunes(5) {
		t.Fatal("exact tie must not prune (determinism)")
	}
	if !b.Prunes(5.0000001) {
		t.Fatal("strictly above the bound must prune")
	}
}

func TestBSFConcurrentMin(t *testing.T) {
	var b BSF
	b.Init(math.Inf(1))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 1000; j > i; j-- {
				b.Lower(float64(j))
			}
		}(i)
	}
	wg.Wait()
	if got := b.Load(); got != 1 {
		t.Fatalf("concurrent min = %v, want 1", got)
	}
}

func TestScanCancelsSiblingsAndReportsLowestShard(t *testing.T) {
	boomA := errors.New("shard a failed")
	boomB := errors.New("shard b failed")
	err := Scan(context.Background(), 4, 400, func(shard int, r Range, cancelled func() bool) error {
		switch shard {
		case 1:
			return boomB
		case 0:
			return boomA
		default:
			for i := r.Lo; i < r.Hi; i++ {
				if cancelled() {
					return nil
				}
			}
			return nil
		}
	})
	if !errors.Is(err, boomA) {
		t.Fatalf("want lowest-shard error %v, got %v", boomA, err)
	}
}

func TestScanVisitsEverything(t *testing.T) {
	const n = 1000
	seen := make([]bool, n)
	err := Scan(context.Background(), 8, n, func(shard int, r Range, cancelled func() bool) error {
		for i := r.Lo; i < r.Hi; i++ {
			seen[i] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("item %d never scanned", i)
		}
	}
}

// TestCtxPreCancelled: an already-done context returns its error
// immediately from every ctx-taking entry point — the work function is
// never invoked.
func TestCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var called atomic.Int64
	if err := Scan(ctx, 4, 100, func(int, Range, func() bool) error {
		called.Add(1)
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Scan: got %v, want context.Canceled", err)
	}
	if err := FanOut(ctx, 4, 100, func(int, func() bool) error {
		called.Add(1)
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FanOut: got %v, want context.Canceled", err)
	}
	pos, dist, _, _, err := ScanReduce(ctx, 4, 100, 7, 3.5,
		func(r Range, local *Outcome, cancelled func() bool) error {
			called.Add(1)
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanReduce: got %v, want context.Canceled", err)
	}
	if pos != 7 || dist != 3.5 {
		t.Fatalf("ScanReduce after cancel returned (%d, %v), want untouched seed (7, 3.5)", pos, dist)
	}
	if n := called.Load(); n != 0 {
		t.Fatalf("work function ran %d times under a pre-cancelled ctx", n)
	}
}

// TestScanCtxMidFlightCancel: a cancel while one shard is stuck in a
// blocking operation returns ctx.Err() promptly (the stuck goroutine is
// detached, not waited for) and the remaining shards stop taking work.
func TestScanCtxMidFlightCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan struct{})
	release := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- Scan(ctx, 4, 4, func(i int, r Range, cancelled func() bool) error {
			if i == 0 {
				close(blocked)
				<-release // a stalled read the ctx cannot interrupt
			}
			return nil
		})
	}()
	<-blocked
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Scan did not return promptly after cancel; it waited for the stuck shard")
	}
	close(release) // let the detached goroutine drain
}

// TestFanOutCtxMidFlightCancelStopsWork: once ctx is done, workers stop
// picking up groups — a 1000-group fan-out cancelled at the first group
// must leave most groups unvisited.
func TestFanOutCtxMidFlightCancelStopsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	first := make(chan struct{})
	var once sync.Once
	err := FanOut(ctx, 2, 1000, func(i int, cancelled func() bool) error {
		started.Add(1)
		once.Do(func() {
			close(first)
			cancel()
		})
		<-first // after the first group, every group sees a done ctx
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Workers poll cancelled() before dispatching each group, so at most
	// one more group per worker can slip in after the cancel.
	if n := started.Load(); n > 4 {
		t.Fatalf("%d groups ran after a cancel at the first; want the workers to stop", n)
	}
}

// TestCtxCancelStressNoLeaks: hammer cancel/timeout cycles through the
// sharded entry points under -race and assert the goroutine count returns
// to baseline — detached shards must all drain.
func TestCtxCancelStressNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for iter := 0; iter < 500; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel() // race the cancel against the scan
		Scan(ctx, 4, 64, func(i int, r Range, cancelled func() bool) error {
			return nil
		})
		cancel()
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Duration(iter%3)*time.Microsecond)
		FanOut(ctx2, 4, 64, func(i int, cancelled func() bool) error {
			return nil
		})
		cancel2()
	}
	// Detached goroutines exit as their (non-blocking) work returns; give
	// them a moment before comparing counts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
