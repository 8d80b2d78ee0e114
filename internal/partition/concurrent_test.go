package partition

// Concurrency stress tests over the one index: run with -race (CI does).
// They assert both memory safety (no data races on a shared handle) and
// answer sanity while queries of every flavor overlap with each other and
// with inserts, for the unpartitioned index and a Composite of three,
// materialized and not.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// stressCount is the series count of the stress tests' bulk load.
const stressCount = 700

// stressFS writes the bulk-load dataset as the raw file of a fresh MemFS.
func stressFS(t *testing.T) (*storage.MemFS, []series.Series) {
	t.Helper()
	return rawSeed(t, stressCount), dataset.Generate(dataset.NewRandomWalk(), stressCount, ptLen, 42)
}

// coreStress is the tree option set of the stress tests.
func coreStress(t *testing.T, fs storage.FS, mat bool, queryWorkers int) core.Options {
	return core.Options{FS: fs, Name: "cx", S: ptSummarizer(t), RawName: "raw", Materialized: mat,
		MemBudgetBytes: 1 << 20, Workers: 2, QueryWorkers: queryWorkers}
}

// stress runs every goroutine of work concurrently and fails on the first
// error any returns.
func stress(t *testing.T, work ...func() error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(work))
	for _, w := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentTreeQueriesSharedHandle hammers ONE tree handle with
// overlapping ExactSearch / ApproxSearch / ExactSearchKNN calls across
// materialized and non-materialized variants, partition counts and several
// QueryWorkers settings.
func TestConcurrentTreeQueriesSharedHandle(t *testing.T) {
	for _, parts := range []int{1, 3} {
		for _, mat := range []bool{false, true} {
			for _, qw := range []int{1, 4} {
				t.Run(fmt.Sprintf("%dp/mat=%v/workers=%d", parts, mat, qw), func(t *testing.T) {
					fs, _ := stressFS(t)
					ix, err := Build(TreeVariant(coreStress(t, fs, mat, qw)), parts, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer ix.Close()
					qs := dataset.Queries(dataset.NewRandomWalk(), 6, ptLen, 23)
					var work []func() error
					for g := 0; g < 8; g++ {
						work = append(work, func() error {
							q := qs[g%len(qs)]
							for it := 0; it < 3; it++ {
								var err error
								switch (g + it) % 3 {
								case 0:
									_, err = ix.ExactSearch(context.Background(), q)
								case 1:
									_, err = ix.ApproxSearch(context.Background(), q, 1)
								default:
									_, _, err = ix.ExactSearchKNN(context.Background(), q, 3)
								}
								if err != nil {
									return err
								}
							}
							return nil
						})
					}
					stress(t, work...)
				})
			}
		}
	}
}

// TestConcurrentTreeQueriesWithInserts interleaves queries with inserts on
// one handle: inserts split leaves and mark the SIMS summary array dirty,
// so the queries racing in afterwards all contend on the refresh lock, and
// a materialized window read from the leaves must never see a split under
// way — the regressions this test exists to catch.
func TestConcurrentTreeQueriesWithInserts(t *testing.T) {
	for _, parts := range []int{1, 3} {
		for _, mat := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dp/mat=%v", parts, mat), func(t *testing.T) {
				fs, _ := stressFS(t)
				ix, err := Build(TreeVariant(coreStress(t, fs, mat, 4)), parts, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				qs := dataset.Queries(dataset.NewRandomWalk(), 4, ptLen, 29)
				batches := dataset.Generate(dataset.NewSeismic(), 120, ptLen, 31)
				var work []func() error
				for g := 0; g < 6; g++ {
					work = append(work, func() error {
						for it := 0; it < 4; it++ {
							if _, err := ix.ExactSearch(context.Background(), qs[g%len(qs)]); err != nil {
								return err
							}
						}
						return nil
					})
				}
				work = append(work, func() error {
					for lo := 0; lo < len(batches); lo += 30 {
						if err := ix.Insert(context.Background(), batches[lo:lo+30]); err != nil {
							return err
						}
					}
					return nil
				})
				stress(t, work...)
				if ix.Count() != stressCount+int64(len(batches)) {
					t.Fatalf("Count = %d after concurrent inserts", ix.Count())
				}
				// Post-condition: a fresh query sees every inserted series.
				res, err := ix.ExactSearch(context.Background(), batches[13])
				if err != nil {
					t.Fatal(err)
				}
				if res.Dist > 1e-9 {
					t.Fatalf("inserted series lost during concurrent load: %v", res.Dist)
				}
			})
		}
	}
}

// liveRuns names every run the committed manifest of the LSM index name
// references, in every partition.
func liveRuns(t *testing.T, fs storage.FS, name string) map[string]bool {
	t.Helper()
	m, err := manifest.Load(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, l := range m.Children {
		for _, r := range l.Runs {
			live[r.Name] = true
		}
	}
	return live
}

// TestConcurrentLSMQueriesWithAppend: queries of both flavors overlap with
// two appenders whose batches force memtable flushes and tier compactions,
// and with Flush and Sync callers — the heaviest mutation the handle locks
// have to serialize. Every manifest commit releases the child's lock, so
// inline merges of different writers interleave there. Afterwards every
// series answers as its own nearest neighbor at its own position — with the
// count, no record was lost or indexed twice — no compaction file outlives
// its merge, and a reopen answers as the live handle did.
func TestConcurrentLSMQueriesWithAppend(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dp", parts), func(t *testing.T) {
			fs, data := stressFS(t)
			opt := lsm.Options{FS: fs, Name: "lsm", S: ptSummarizer(t), RawName: "raw",
				// Smallest memtable (16 records): unpartitioned, every
				// 50-series batch flushes three times, and the flushes
				// cascade into multi-tier compactions mid-query.
				MemBudgetBytes: 16 * (summary.KeySize + 8),
				Workers:        2,
				QueryWorkers:   4,
			}
			ix, err := Build(LSMVariant(opt), parts, nil)
			if err != nil {
				t.Fatal(err)
			}
			gen := dataset.NewRandomWalk()
			qs := dataset.Queries(gen, 5, ptLen, 47)
			const appenders, perAppender = 2, 300
			streams := make([][]series.Series, appenders)
			for a := range streams {
				streams[a] = dataset.Generate(gen, perAppender, ptLen, int64(100+a))
			}
			var work []func() error
			for g := 0; g < 6; g++ {
				work = append(work, func() error {
					q := qs[g%len(qs)]
					for it := 0; it < 4; it++ {
						var err error
						if it%2 == 0 {
							_, err = ix.ExactSearch(context.Background(), q)
						} else {
							_, err = ix.ApproxSearch(context.Background(), q, 0)
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
			}
			for _, stream := range streams {
				work = append(work, func() error {
					for lo := 0; lo < len(stream); lo += 50 {
						if err := ix.Insert(context.Background(), stream[lo:lo+50]); err != nil {
							return err
						}
					}
					return nil
				})
			}
			work = append(work, func() error {
				for i := 0; i < 3; i++ {
					if err := ix.Flush(); err != nil {
						return err
					}
					if err := ix.Sync(); err != nil {
						return err
					}
				}
				return nil
			})
			stress(t, work...)
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}

			want := int64(stressCount + appenders*perAppender)
			if got := ix.Count(); got != want {
				t.Fatalf("Count = %d after concurrent appends, want %d", got, want)
			}
			// The raw file grew by exactly the appended records (no
			// overwrites): read every appended one back.
			rec := series.EncodedSize(ptLen)
			if sz := fs.FileSize("raw"); sz != want*int64(rec) {
				t.Fatalf("raw file holds %d bytes, want %d", sz, want*int64(rec))
			}
			raw, err := storage.ReadFileAll(fs, "raw")
			if err != nil {
				t.Fatal(err)
			}
			all := append([]series.Series(nil), data...)
			for p := int64(stressCount); p < want; p++ {
				s := make(series.Series, ptLen)
				series.DecodeInto(raw[p*int64(rec):(p+1)*int64(rec)], s)
				all = append(all, s)
			}
			// Every record is indexed exactly once: each series is its own
			// nearest neighbor at its own position, and Count rules out a
			// second copy.
			for p, s := range all {
				res, err := ix.ExactSearch(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				if res.Pos != int64(p) || res.Dist != 0 {
					t.Fatalf("series %d answers (%d, %v), want itself", p, res.Pos, res.Dist)
				}
			}
			// Every appended series is findable.
			if res, err := ix.ExactSearch(context.Background(), streams[1][123]); err != nil || res.Dist > 1e-9 {
				t.Fatalf("appended series lost during concurrent load: dist=%v err=%v", res.Dist, err)
			}
			// Every merged-away input was deleted and no temporary survived:
			// the only compaction files are the live runs.
			live := liveRuns(t, fs, "lsm")
			for _, name := range fs.Names() {
				if strings.Contains(name, ".compact") || (strings.Contains(name, ".cmp.") && !live[name]) {
					t.Fatalf("orphan compaction file %q", name)
				}
			}
			type answer struct{ exact, approx core.Result }
			answers := make([]answer, len(qs))
			for i, q := range qs {
				e, err := ix.ExactSearch(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if bf := bruteForce(q, all); math.Abs(e.Dist-bf) > 1e-9 {
					t.Fatalf("query %d: exact %v, brute force %v", i, e.Dist, bf)
				}
				a, err := ix.ApproxSearch(context.Background(), q, 0)
				if err != nil {
					t.Fatal(err)
				}
				answers[i] = answer{e, a}
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := reopen(LSMVariant(opt), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Count() != want {
				t.Fatalf("reopened Count = %d, want %d", re.Count(), want)
			}
			for i, q := range qs {
				e, err := re.ExactSearch(context.Background(), q)
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
		})
	}
}

// bruteForce is the exact nearest distance from q to data.
func bruteForce(q series.Series, data []series.Series) float64 {
	best := math.Inf(1)
	for _, x := range data {
		if d, _ := series.ED(q, x); d < best {
			best = d
		}
	}
	return best
}

// TestConcurrentFlushCoversOnlyInsertedRecords: insert A fills the
// memtable and parks inside its flush's manifest commit, which releases the
// LSM's own lock; insert B, which would fill the memtable again, gets its
// chance to run; both are acknowledged, and after a crash every
// acknowledged series is recovered. Had B flushed while A still held
// appended records it had not inserted, B's cursor would have passed them
// and lost them: the handle lock keeps B out until A's route is done.
func TestConcurrentFlushCoversOnlyInsertedRecords(t *testing.T) {
	const base = 64
	opt := func(fs storage.FS) lsm.Options {
		return lsm.Options{FS: fs, Name: "lsm", S: ptSummarizer(t), RawName: "raw",
			MemBudgetBytes: 16 * (summary.KeySize + 8)}
	}
	seed := rawSeed(t, base)
	ix, err := Build(LSMVariant(opt(seed)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ffs := storage.NewFaultFS(seed)
	if ix, err = reopen(LSMVariant(opt(ffs)), 1); err != nil {
		t.Fatal(err)
	}
	var armed, parked atomic.Bool
	entered, release, bRun := make(chan struct{}), make(chan struct{}), make(chan struct{}, 1)
	tmpName := manifest.FileName("lsm") + ".tmp"
	ffs.SetHook(func(op storage.Op, name string) {
		switch {
		case op == storage.OpSync && name == tmpName && armed.CompareAndSwap(true, false):
			parked.Store(true)
			close(entered)
			<-release
		case op == storage.OpSync && strings.HasPrefix(name, "lsm.run.") && parked.Load():
			select {
			case bRun <- struct{}{}:
			default:
			}
		}
	})
	stream := dataset.Generate(dataset.NewSeismic(), 40, ptLen, 911)
	armed.Store(true)
	aDone, bDone := make(chan error, 1), make(chan error, 1)
	go func() { aDone <- ix.Insert(context.Background(), stream[:24]) }()
	<-entered // A filled the memtable and parks in its flush's manifest commit
	go func() { bDone <- ix.Insert(context.Background(), stream[24:40]) }()
	// B must not flush now; give it the chance to (its run's fsync while A
	// is parked), bounded, since the right outcome is that it never comes.
	select {
	case <-bRun:
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	ffs.Crash()
	ix.Close()
	re, err := reopen(LSMVariant(opt(ffs.Recover(0))), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := int(re.Count()) - base; got != len(stream) {
		t.Fatalf("recovered %d of %d acknowledged series", got, len(stream))
	}
}
