package coconut

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/storage"
)

// ctxVariant adapts the three public index types to one surface the
// cancellation conformance tests drive.
type ctxVariant struct {
	name   string
	search func(ctx context.Context, q Series) (Result, error)
	approx func(ctx context.Context, q Series) (Result, error)
	knn    func(ctx context.Context, q Series, k int) ([]Neighbor, error)
	insert func(ctx context.Context, batch []Series) error // nil if unsupported
	count  func() int64
	close  func() error
}

const (
	cancelSeries = 400
	cancelLen    = 64
)

// buildCancelVariant generates a dataset on fs and builds the named
// variant over it with the given partition count.
func buildCancelVariant(t *testing.T, fs Storage, variant string, parts int) ctxVariant {
	t.Helper()
	if err := GenerateDataset(fs, "data.bin", RandomWalk, cancelSeries, cancelLen, 7); err != nil {
		t.Fatal(err)
	}
	return cancelVariant(t, Config{
		Storage:    fs,
		Name:       "cx",
		DataFile:   "data.bin",
		SeriesLen:  cancelLen,
		Partitions: parts,
		// One worker keeps the verification scan serial, so a query's
		// storage-read sequence is deterministic and the stall-injection
		// tests can aim at a specific read.
		QueryWorkers: 1,
	}, variant, false)
}

// cancelVariant builds the named variant under cfg or, with reopen, opens
// the one already built there.
func cancelVariant(t *testing.T, cfg Config, variant string, reopen bool) ctxVariant {
	t.Helper()
	switch variant {
	case "tree", "tree-full":
		// A materialized tree verifies its candidates from its own leaf run:
		// the stalled read is then one of the run's checksum blocks.
		cfg.Materialized = variant == "tree-full"
		build := BuildTreeIndex
		if reopen {
			build = OpenTreeIndex
		}
		ix, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ctxVariant{
			name:   variant,
			search: ix.SearchCtx,
			approx: func(ctx context.Context, q Series) (Result, error) { return ix.SearchApproxCtx(ctx, q, 1) },
			knn:    ix.SearchKNNCtx,
			insert: ix.InsertCtx,
			count:  ix.Count,
			close:  ix.Close,
		}
	case "lsm":
		build := BuildLSMIndex
		if reopen {
			build = OpenLSMIndex
		}
		ix, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ctxVariant{
			name:   variant,
			search: ix.SearchCtx,
			approx: ix.SearchApproxCtx,
			knn:    ix.SearchKNNCtx,
			insert: ix.InsertCtx,
			count:  ix.Count,
			close:  ix.Close,
		}
	}
	t.Fatalf("unknown variant %q", variant)
	return ctxVariant{}
}

func cancelQueries(t *testing.T) []Series {
	t.Helper()
	qs, err := GenerateQueries(RandomWalk, 3, cancelLen, 9)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// armStallAtLastRead measures how many storage reads answering q costs on
// v (deterministic with QueryWorkers 1), then arms a stall on the final
// read of the next identical query. Every variant ends its exact search
// inside a sharded verification scan over the raw data (a materialized
// tree: over its leaf run), so the parked
// read sits in a detachable worker goroutine — the shape of storage stall
// the cancellation machinery is built to survive. (The earlier reads of a
// query happen on the caller goroutine during the approximate seed phase,
// where a blocked ReadAt is uninterruptible by design.)
func armStallAtLastRead(t *testing.T, ffs *storage.FaultFS, v ctxVariant, q Series) (release func(), parked <-chan struct{}) {
	t.Helper()
	// Warm the block cache first: a cold LSM query decodes run blocks from
	// storage that later identical queries hit in cache, so only the
	// warm-query read count is stable across repetitions.
	if _, err := v.search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ffs.SetCounted(storage.OpRead)
	before := ffs.OpCount()
	if _, err := v.search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	reads := ffs.OpCount() - before
	if reads == 0 {
		t.Fatal("query performed no storage reads; nothing to stall")
	}
	return ffs.StallAt(ffs.OpCount() + reads)
}

type cancelCase struct {
	variant string
	parts   int
}

// cancelCases are the variants whose queries read the raw file, the file
// read through views (views_test.go).
var cancelCases = []cancelCase{
	{"tree", 1}, {"tree", 3},
	{"lsm", 1}, {"lsm", 3},
}

// ctxCases add a materialized tree, whose queries read candidates from its
// own leaf run, to the cancellation tests.
var ctxCases = append([]cancelCase{{"tree-full", 1}, {"tree-full", 3}}, cancelCases...)

// TestCtxVariantsMatchPlainAPI: the Ctx methods under context.Background()
// answer byte-identically to the context-free API for every variant and
// partition count — threading ctx through the stack changed no results.
func TestCtxVariantsMatchPlainAPI(t *testing.T) {
	for _, tc := range ctxCases {
		t.Run(fmt.Sprintf("%s-%dp", tc.variant, tc.parts), func(t *testing.T) {
			fs := NewMemStorage()
			v := buildCancelVariant(t, fs, tc.variant, tc.parts)
			defer v.close()
			ctx := context.Background()
			for qi, q := range cancelQueries(t) {
				got, err := v.search(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				var want Result
				switch tc.variant {
				case "tree", "tree-full":
					want, err = reSearchTree(fs, tc.parts, q)
				default:
					// The ctx-free methods are literal Background wrappers;
					// a second Ctx call suffices as the reference.
					want, err = v.search(ctx, q)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got.Position != want.Position || got.Distance != want.Distance {
					t.Fatalf("query %d: ctx answer (%d, %v) != plain answer (%d, %v)",
						qi, got.Position, got.Distance, want.Position, want.Distance)
				}
				ga, err := v.approx(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				ga2, err := v.approx(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if ga.Position != ga2.Position || ga.Distance != ga2.Distance {
					t.Fatalf("query %d: approx answers differ across calls", qi)
				}
				ns, err := v.knn(ctx, q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(ns) != 5 {
					t.Fatalf("query %d: knn returned %d neighbors, want 5", qi, len(ns))
				}
				if ns[0].Position != got.Position || ns[0].Distance != got.Distance {
					t.Fatalf("query %d: knn[0] (%d, %v) != exact (%d, %v)",
						qi, ns[0].Position, ns[0].Distance, got.Position, got.Distance)
				}
			}
		})
	}
}

// reSearchTree reopens the tree through the plain (context-free) API and
// answers q, giving an independent reference for the Ctx path.
func reSearchTree(fs Storage, parts int, q Series) (Result, error) {
	ix, err := OpenTreeIndex(Config{Storage: fs, Name: "cx"})
	if err != nil {
		return Result{}, err
	}
	defer ix.Close()
	return ix.Search(q)
}

// TestCancelledQueryReturnsCtxErr: a query stalled inside a storage read
// and then cancelled returns context.Canceled promptly — never a partial
// answer — for every variant and partition count. A pre-cancelled context
// is rejected before any work happens.
func TestCancelledQueryReturnsCtxErr(t *testing.T) {
	for _, tc := range ctxCases {
		t.Run(fmt.Sprintf("%s-%dp", tc.variant, tc.parts), func(t *testing.T) {
			ffs := storage.NewFaultFS(storage.NewMemFS())
			v := buildCancelVariant(t, ffs, tc.variant, tc.parts)
			defer v.close()
			q := cancelQueries(t)[0]

			// Pre-cancelled: immediate ctx.Err(), no I/O.
			pctx, pcancel := context.WithCancel(context.Background())
			pcancel()
			if _, err := v.search(pctx, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled search: got %v, want context.Canceled", err)
			}

			// Mid-flight: stall a verification-phase read, cancel while it
			// is parked, and require a prompt context.Canceled.
			release, parked := armStallAtLastRead(t, ffs, v, q)
			defer release()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := v.search(ctx, q)
				errc <- err
			}()
			select {
			case <-parked:
			case err := <-errc:
				t.Fatalf("query finished (%v) before reading storage", err)
			case <-time.After(10 * time.Second):
				t.Fatal("query never reached a storage read")
			}
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled query returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled query did not return promptly; it waited for the stalled read")
			}
		})
	}
}

// TestQueryDeadlineExceededWithinTwiceDeadline: a query whose storage read
// stalls forever returns context.DeadlineExceeded within twice its
// deadline — the stalled shard is detached, not waited for.
func TestQueryDeadlineExceededWithinTwiceDeadline(t *testing.T) {
	for _, tc := range ctxCases {
		t.Run(fmt.Sprintf("%s-%dp", tc.variant, tc.parts), func(t *testing.T) {
			ffs := storage.NewFaultFS(storage.NewMemFS())
			v := buildCancelVariant(t, ffs, tc.variant, tc.parts)
			defer v.close()
			q := cancelQueries(t)[0]

			const deadline = 250 * time.Millisecond
			release, parked := armStallAtLastRead(t, ffs, v, q)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			// The documented pairing: the stalled op unblocks when the ctx
			// fires, so the detached goroutine drains on its own.
			defer context.AfterFunc(ctx, release)()

			start := time.Now()
			_, err := v.search(ctx, q)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stalled query returned %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 2*deadline {
				t.Fatalf("stalled query took %v to fail, want <= %v (2x deadline)", elapsed, 2*deadline)
			}
			<-parked // the stall did trigger: the timing assertion was live
		})
	}
}

// TestAppendCtxAdmissionAndDurabilityWait: the write path treats ctx as
// admission control — a done ctx rejects the batch up front with no side
// effects — and the LSM durability wait is interruptible: an insert that
// times out waiting for a slow group-commit fsync returns
// context.DeadlineExceeded, yet its records survive reopen (the raw log's
// commit round still fsyncs the batch).
func TestAppendCtxAdmissionAndDurabilityWait(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dp", parts), func(t *testing.T) {
			mem := NewMemStorage()
			if err := GenerateDataset(mem, "data.bin", RandomWalk, cancelSeries, cancelLen, 7); err != nil {
				t.Fatal(err)
			}
			fs := storage.NewFaultFS(mem)
			ix, err := BuildLSMIndex(Config{
				Storage:    fs,
				Name:       "cx",
				DataFile:   "data.bin",
				SeriesLen:  cancelLen,
				Partitions: parts,
			})
			if err != nil {
				t.Fatal(err)
			}
			// While armed, every sidecar fsync — the raw log's group
			// commit's — takes 300ms, so the durability wait is the slow
			// part an expiring ctx abandons.
			var slowCommit atomic.Bool
			fs.SetHook(func(op storage.Op, name string) {
				if op == storage.OpSync && name == storage.RecordSumsName("data.bin") && slowCommit.Load() {
					time.Sleep(300 * time.Millisecond)
				}
			})
			batch, err := GenerateQueries(RandomWalk, 8, cancelLen, 11)
			if err != nil {
				t.Fatal(err)
			}

			// Admission control: a pre-cancelled ctx adds nothing.
			pctx, pcancel := context.WithCancel(context.Background())
			pcancel()
			if err := ix.InsertCtx(pctx, batch); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled insert: got %v, want context.Canceled", err)
			}
			if got := ix.Count(); got != cancelSeries {
				t.Fatalf("count after rejected insert = %d, want %d", got, cancelSeries)
			}

			// Interruptible durability wait: the ctx expires inside the
			// slow group-commit fsync.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			slowCommit.Store(true)
			start := time.Now()
			err = ix.InsertCtx(ctx, batch)
			slowCommit.Store(false)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("insert during slow group commit: got %v, want context.DeadlineExceeded", err)
			}
			if e := time.Since(start); e > 250*time.Millisecond {
				t.Fatalf("cancelled insert took %v, want to abandon the wait well before the %v fsync", e, 300*time.Millisecond)
			}

			// The abandoned batch still becomes durable: close and reopen.
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenLSMIndex(Config{Storage: fs, Name: "cx"})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Count(); got != cancelSeries+int64(len(batch)) {
				t.Fatalf("reopened count = %d, want %d (the abandoned wait's batch must survive)",
					got, cancelSeries+int64(len(batch)))
			}
		})
	}
}

// TestCancelCyclesLeakNoGoroutines: a thousand cancel/timeout cycles
// across the variants leave the goroutine count at its baseline.
func TestCancelCyclesLeakNoGoroutines(t *testing.T) {
	fs := NewMemStorage()
	tree := buildCancelVariant(t, fs, "tree", 3)
	defer tree.close()
	q := cancelQueries(t)[0]
	baseline := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			ctx, cancel := context.WithCancel(context.Background())
			go cancel()
			tree.search(ctx, q)
			cancel()
		case 1:
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
			tree.search(ctx, q)
			cancel()
		case 2:
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			tree.knn(ctx, q, 3)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel cycles: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDoubleCloseAllVariants: Close is idempotent for every variant and
// partition count, including while a cancelled query is still unwinding
// from a stalled read.
func TestDoubleCloseAllVariants(t *testing.T) {
	for _, tc := range ctxCases {
		t.Run(fmt.Sprintf("%s-%dp", tc.variant, tc.parts), func(t *testing.T) {
			ffs := storage.NewFaultFS(storage.NewMemFS())
			v := buildCancelVariant(t, ffs, tc.variant, tc.parts)
			q := cancelQueries(t)[0]

			release, parked := armStallAtLastRead(t, ffs, v, q)
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := v.search(ctx, q)
				errc <- err
			}()
			select {
			case <-parked:
			case err := <-errc:
				t.Fatalf("query finished (%v) before reading storage", err)
			case <-time.After(10 * time.Second):
				t.Fatal("query never reached a storage read")
			}
			cancel()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled query returned %v, want context.Canceled", err)
			}
			// The detached shard is still parked inside ReadAt: Close must
			// neither block on it nor crash, and a second Close is a no-op.
			if err := v.close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			if err := v.close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			release()
		})
	}
}
