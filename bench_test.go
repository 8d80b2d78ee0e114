package coconut

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5), each regenerating the figure's rows at a laptop scale
// via internal/experiments, plus micro-benchmarks for the core primitives.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=BenchmarkFig8a -v
// Full-scale rows:  go run ./cmd/benchrunner -scale full
//
// The -v output of each figure bench includes the regenerated table.

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/experiments"
	"github.com/coconut-db/coconut/internal/extsort"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

func benchScale() experiments.Scale {
	sc := experiments.DefaultScale()
	// Keep each figure in the seconds range under `go test -bench=.`.
	sc.BaseCount = 4000
	sc.Queries = 10
	return sc
}

func runFigure(b *testing.B, fn func(experiments.Scale) (*experiments.Table, error)) {
	b.Helper()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb, err := fn(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			tb.Print(os.Stdout)
		}
	}
}

func BenchmarkFig7Histograms(b *testing.B) { runFigure(b, experiments.Fig7Histograms) }

func BenchmarkFig8aConstructionMaterialized(b *testing.B) {
	runFigure(b, experiments.Fig8aConstructionMaterialized)
}

func BenchmarkFig8bConstructionNonMaterialized(b *testing.B) {
	runFigure(b, experiments.Fig8bConstructionNonMaterialized)
}

func BenchmarkFig8cSpace(b *testing.B) { runFigure(b, experiments.Fig8cSpace) }

func BenchmarkFig8dScaleMaterialized(b *testing.B) {
	runFigure(b, experiments.Fig8dScaleMaterialized)
}

func BenchmarkFig8eScaleNonMaterialized(b *testing.B) {
	runFigure(b, experiments.Fig8eScaleNonMaterialized)
}

func BenchmarkFig8fVariableLength(b *testing.B) {
	runFigure(b, experiments.Fig8fVariableLength)
}

func BenchmarkFig9aExact(b *testing.B) { runFigure(b, experiments.Fig9aExact) }

func BenchmarkFig9bApprox(b *testing.B) { runFigure(b, experiments.Fig9bApprox) }

func BenchmarkFig9cApprox40G(b *testing.B) { runFigure(b, experiments.Fig9cApproxLargest) }

func BenchmarkFig9dApproxQuality(b *testing.B) { runFigure(b, experiments.Fig9dApproxQuality) }

func BenchmarkFig9eExact40G(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		te, _, err := experiments.Fig9ef(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			te.Print(os.Stdout)
		}
	}
}

func BenchmarkFig9fVisitedRecords(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		_, tf, err := experiments.Fig9ef(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			tf.Print(os.Stdout)
		}
	}
}

func BenchmarkFig10aMixedWorkload(b *testing.B) {
	runFigure(b, experiments.Fig10aMixedWorkload)
}

func BenchmarkFig10bAstronomy(b *testing.B) { runFigure(b, experiments.Fig10bAstronomy) }

func BenchmarkFig10cSeismic(b *testing.B) { runFigure(b, experiments.Fig10cSeismic) }

func BenchmarkIndexSizeTable(b *testing.B) { runFigure(b, experiments.IndexSizeTable) }

// BenchmarkQueryThroughput measures concurrent exact-query throughput on
// one SHARED TreeIndex handle over a 100k-series dataset: the fixed query
// batch is drained by `workers` client goroutines. Handles are safe for
// concurrent readers, so the sub-benchmark ratio is the wall-clock speedup
// of serving queries in parallel (answers are identical either way;
// QueryWorkers is pinned to 1 so the axis is purely handle concurrency).
func BenchmarkQueryThroughput(b *testing.B) {
	const (
		count     = 100000
		seriesLen = 64
		nQueries  = 16
	)
	fs := storage.NewMemFS()
	if err := GenerateDataset(fs, "qt.bin", RandomWalk, count, seriesLen, 21); err != nil {
		b.Fatal(err)
	}
	ix, err := BuildTreeIndex(Config{
		Storage:      fs,
		Name:         "qt",
		DataFile:     "qt.bin",
		SeriesLen:    seriesLen,
		MemoryBudget: 32 << 20,
		Workers:      0, // build on all CPUs; the index is identical anyway
		QueryWorkers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries, err := GenerateQueries(RandomWalk, nQueries, seriesLen, 22)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var next atomic.Int64
				var wg sync.WaitGroup
				var errMu sync.Mutex
				var firstErr error
				for c := 0; c < workers; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							qi := int(next.Add(1)) - 1
							if qi >= len(queries) {
								return
							}
							if _, err := ix.Search(queries[qi]); err != nil {
								errMu.Lock()
								if firstErr == nil {
									firstErr = err
								}
								errMu.Unlock()
								return
							}
						}
					}()
				}
				wg.Wait()
				if firstErr != nil {
					b.Fatal(firstErr)
				}
			}
		})
	}
}

// --- micro-benchmarks ------------------------------------------------------

func BenchmarkInterleave(b *testing.B) {
	sax := make(summary.SAX, 16)
	rng := rand.New(rand.NewSource(1))
	for j := range sax {
		sax[j] = uint8(rng.Intn(256))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = summary.Interleave(sax, 8)
	}
}

func BenchmarkDeinterleave(b *testing.B) {
	sax := make(summary.SAX, 16)
	for j := range sax {
		sax[j] = uint8(j * 17)
	}
	k := summary.Interleave(sax, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = summary.Deinterleave(k, 16, 8)
	}
}

func BenchmarkSummarizeSeries(b *testing.B) {
	s, err := summary.NewSummarizer(summary.DefaultParams(256))
	if err != nil {
		b.Fatal(err)
	}
	gen := dataset.NewRandomWalk()
	rng := rand.New(rand.NewSource(2))
	ser := make(series.Series, 256)
	gen.Generate(rng, ser)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KeyOf(ser); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinDist(b *testing.B) {
	s, err := summary.NewSummarizer(summary.DefaultParams(256))
	if err != nil {
		b.Fatal(err)
	}
	gen := dataset.NewRandomWalk()
	rng := rand.New(rand.NewSource(3))
	q := make(series.Series, 256)
	x := make(series.Series, 256)
	gen.Generate(rng, q)
	gen.Generate(rng, x)
	qPAA, _ := s.PAA(q, nil)
	xSAX, _ := s.SAXOf(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.MinDistPAAToSAX(qPAA, xSAX)
	}
}

// BenchmarkKeysInto measures the SIMS lower-bound kernel over a large
// in-memory summary array — what every exact query runs once per indexed
// series. "column" is the tree's path: the full-cardinality
// level of a per-query MinDistTable rebuilt each op into reused storage, then
// Filter over the array held as a symbol column, 16 table loads and adds per
// row, under a limit that skips no tile and keeps every row (0 allocs/op).
// "table" is KeysInto over keys, the LSM's path: per key two 8x8 bit-matrix
// transposes fused with the same 16 loads and adds (0 allocs/op; ns/key is
// the figure bench/e2e reports as summary.mindist_ns_per_key). "legacy" is
// the pre-table path: per-key SAX decode (one allocation per key),
// per-segment breakpoint-region recomputation, and a sqrt per key.
func BenchmarkKeysInto(b *testing.B) {
	const nKeys = 100000
	s, err := summary.NewSummarizer(summary.DefaultParams(256))
	if err != nil {
		b.Fatal(err)
	}
	p := s.Params()
	gen := dataset.NewRandomWalk()
	rng := rand.New(rand.NewSource(6))
	ser := make(series.Series, 256)
	keys := make([]summary.Key, nKeys)
	for i := range keys {
		gen.Generate(rng, ser)
		if keys[i], err = s.KeyOf(ser); err != nil {
			b.Fatal(err)
		}
	}
	gen.Generate(rng, ser)
	qPAA, err := s.PAA(ser, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("column", func(b *testing.B) {
		tbl := s.BuildMinDistTable(qPAA, nil) // storage reused every op
		col := s.ColumnOf(keys)
		cands := make([]summary.Cand, 0, nKeys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl = s.BuildMinDistTable(qPAA, tbl)
			cands = tbl.Filter(cands[:0], col, nil, math.Inf(1), 1)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nKeys, "ns/key")
	})
	b.Run("table", func(b *testing.B) {
		tbl := s.BuildMinDistTable(qPAA, nil) // storage reused every op
		out := make([]float64, nKeys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl = s.BuildMinDistTable(qPAA, tbl)
			tbl.KeysInto(keys, out, 1)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nKeys, "ns/key")
	})
	b.Run("legacy", func(b *testing.B) {
		var sink float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				sax := summary.Deinterleave(k, p.Segments, p.CardBits)
				sink += s.MinDistPAAToSAX(qPAA, sax)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nKeys, "ns/key")
		_ = sink
	})
}

// raceEnabled reports whether the tests run under the race detector
// (race_test.go), whose sync.Pool drops Puts at random: the allocation
// guards hold a separate bound there.
var raceEnabled bool

// benchSink keeps benchmarked kernel results alive so the compiler cannot
// dead-code-eliminate the loops being measured.
var benchSink float64

// exactQueryAllocIndexes are the indexes the exact-query allocation guard
// runs on: 20k series at the default shape, non-materialized tree and
// single-run LSM — the LSM also on skewed data behind a 256 KiB block cache,
// where every query scans four times the blocks the cache holds —
// QueryWorkers pinned to 1 so the counts do not depend on the host's CPUs.
// maxBytes bounds the bytes one query allocates. The small-cache case makes
// 25 KB, but it is the one case whose pooled buffers are large and many — a
// candidate list of thousands of entries, ~30 block reads and the decode
// scratch — and the race detector's sync.Pool drops a quarter of all Puts,
// so under -race they are grown again at random: 241–330 KB measured (a
// third of it block buffers, half the candidate list). Its bound holds in
// both modes.
var exactQueryAllocIndexes = map[string]struct {
	data     DatasetKind
	maxBytes int64
	build    func(Config) (exactSearcher, error)
}{
	"tree": {RandomWalk, 256 << 10, func(cfg Config) (exactSearcher, error) { return BuildTreeIndex(cfg) }},
	"lsm":  {RandomWalk, 256 << 10, func(cfg Config) (exactSearcher, error) { return BuildLSMIndex(cfg) }},
	"lsm-smallcache": {Skewed, 512 << 10, func(cfg Config) (exactSearcher, error) {
		cfg.CacheBytes = 256 << 10
		return BuildLSMIndex(cfg)
	}},
}

type exactSearcher interface {
	Search(q Series) (Result, error)
	Close() error
}

// benchExactQueryAllocs measures one exact query per op on a warm handle.
func benchExactQueryAllocs(b *testing.B, name string) {
	const (
		count     = 20000
		seriesLen = 256
	)
	kind := exactQueryAllocIndexes[name]
	fs := storage.NewMemFS()
	if err := GenerateDataset(fs, "aq.bin", kind.data, count, seriesLen, 31); err != nil {
		b.Fatal(err)
	}
	ix, err := kind.build(Config{Storage: fs, Name: "aq", DataFile: "aq.bin", SeriesLen: seriesLen, QueryWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries, err := GenerateQueries(kind.data, 16, seriesLen, 32)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range queries { // warm-up: lazy state, pools, block cache
		if _, err := ix.Search(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactQueryAllocs reports, under -benchmem, what one exact query
// allocates: O(candidates) — the candidate list grows in a pooled buffer,
// raw fetches go through one pooled scratch per shard — not an N-entry
// lower-bound slice plus a buffer per fetch. TestExactQueryAllocations
// holds the line; CI prints these so a regression is visible in the log.
func BenchmarkExactQueryAllocs(b *testing.B) {
	for _, name := range []string{"tree", "lsm", "lsm-smallcache"} {
		b.Run(name, func(b *testing.B) { benchExactQueryAllocs(b, name) })
	}
}

// TestExactQueryAllocations is the allocation guard on the benchmark above.
func TestExactQueryAllocations(t *testing.T) {
	for name, kind := range exactQueryAllocIndexes {
		r := testing.Benchmark(func(b *testing.B) { benchExactQueryAllocs(b, name) })
		if r.AllocsPerOp() >= 100 || r.AllocedBytesPerOp() >= kind.maxBytes {
			t.Errorf("%s: exact query on 20k series allocates %d objects, %d bytes; want < 100 and < %d KiB", name, r.AllocsPerOp(), r.AllocedBytesPerOp(), kind.maxBytes>>10)
		}
	}
}

// approxQueryAllocIndexes are the indexes the approximate-query allocation
// guard runs on: 20k random-walk series at the default shape with
// QueryWorkers pinned to 1, each asked for radius 0's 32-record window — a
// non-materialized tree (one sorted source), a single-run LSM (one source)
// and an LSM of three runs and a part-full memtable (four sorted sources
// merged into one window). maxBytes bounds the bytes one query allocates, raceMaxBytes the
// same under the race detector, whose sync.Pool drops a quarter of all Puts
// (an LSM query's pooled lower-bound table is 33 KB): both sit below what
// the per-query sort the merge replaced allocated in the same mode (tree,
// LSM, three runs: 4.0, 15.9 and 67.7 KiB; 4.6, 24.6 and 76.9 KiB under
// -race), with room over the merge's own figures (2.2, 6.2 and 26.8 KiB;
// 2.8, 14.3 and 37.5 KiB).
var approxQueryAllocIndexes = map[string]struct {
	maxBytes, raceMaxBytes int64
	build                  func(fs Storage) (*Index, error)
}{
	"tree": {3584, 4608, func(fs Storage) (*Index, error) {
		return BuildTreeIndex(Config{Storage: fs, Name: "aq", DataFile: "aq.bin", SeriesLen: 256, QueryWorkers: 1})
	}},
	"lsm": {10 << 10, 22 << 10, func(fs Storage) (*Index, error) {
		ix, err := BuildLSMIndex(Config{Storage: fs, Name: "aq", DataFile: "aq.bin", SeriesLen: 256, QueryWorkers: 1})
		if err != nil {
			return nil, err
		}
		return ix.Index, nil
	}},
	"lsm-3runs": {40 << 10, 56 << 10, func(fs Storage) (*Index, error) {
		// A 512-record memtable: two full ones flush behind the bulk run
		// and 300 records stay in the third.
		ix, err := BuildLSMIndex(Config{Storage: fs, Name: "aq", DataFile: "aq.bin", SeriesLen: 256, QueryWorkers: 1,
			MemoryBudget: 512 * (summary.KeySize + 8)})
		if err != nil {
			return nil, err
		}
		batch, err := GenerateQueries(RandomWalk, 2*512+300, 256, 33)
		if err == nil {
			err = ix.Insert(batch)
		}
		if err == nil && ix.NumRuns() != 3 {
			err = fmt.Errorf("%d runs, want 3", ix.NumRuns())
		}
		if err != nil {
			ix.Close()
			return nil, err
		}
		return ix.Index, nil
	}},
}

// benchApproxQueryAllocs measures one approximate query per op on a warm
// handle.
func benchApproxQueryAllocs(b *testing.B, name string) {
	fs := storage.NewMemFS()
	if err := GenerateDataset(fs, "aq.bin", RandomWalk, 20000, 256, 31); err != nil {
		b.Fatal(err)
	}
	ix, err := approxQueryAllocIndexes[name].build(fs)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries, err := GenerateQueries(RandomWalk, 16, 256, 32)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range queries { // warm-up: lazy state, pools, block cache
		if _, err := ix.SearchApprox(q, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchApprox(queries[i%len(queries)], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApproxQueryAllocs reports, under -benchmem, what one approximate
// query allocates: the sources' window contributions, one merged window and
// the evaluation's order — no per-source copies, no memtable-sized slice.
// TestApproxQueryAllocations holds the line; CI prints these so a
// regression is visible in the log.
func BenchmarkApproxQueryAllocs(b *testing.B) {
	for _, name := range []string{"tree", "lsm", "lsm-3runs"} {
		b.Run(name, func(b *testing.B) { benchApproxQueryAllocs(b, name) })
	}
}

// TestApproxQueryAllocations is the allocation guard on the benchmark above.
func TestApproxQueryAllocations(t *testing.T) {
	for name, kind := range approxQueryAllocIndexes {
		r := testing.Benchmark(func(b *testing.B) { benchApproxQueryAllocs(b, name) })
		maxBytes := kind.maxBytes
		if raceEnabled {
			maxBytes = kind.raceMaxBytes
		}
		if r.AllocsPerOp() >= 32 || r.AllocedBytesPerOp() >= maxBytes {
			t.Errorf("%s: approximate query on 20k series allocates %d objects, %d bytes; want < 32 and < %d bytes", name, r.AllocsPerOp(), r.AllocedBytesPerOp(), maxBytes)
		}
	}
}

// BenchmarkVerifyRaw is the verification scan alone, 4096 candidates of 256
// points with none, a quarter or all of them file-adjacent to the one
// before: ns, reads and allocations per candidate show a per-record read or
// buffer coming back.
func BenchmarkVerifyRaw(b *testing.B) {
	const (
		n         = 4096
		seriesLen = 256
	)
	fs := storage.NewMemFS()
	gen := dataset.NewRandomWalk()
	if _, err := dataset.WriteFile(fs, "raw", gen, 2*n, seriesLen, 5); err != nil {
		b.Fatal(err)
	}
	raw, err := fs.Open("raw")
	if err != nil {
		b.Fatal(err)
	}
	defer raw.Close()
	sums, err := storage.BuildRecordSums(fs, "raw", series.EncodedSize(seriesLen))
	if err != nil {
		b.Fatal(err)
	}
	q := dataset.Generate(gen, 1, seriesLen, 6)[0]
	for _, adjacent := range []int{0, 25, 100} {
		b.Run(fmt.Sprintf("adjacent=%d%%", adjacent), func(b *testing.B) {
			// Every candidate, or one of four, or none is adjacent to the
			// one before it.
			cands := make([]summary.Cand, 0, n)
			for pos := int64(0); len(cands) < n; {
				cands = append(cands, summary.Cand{ID: pos})
				switch {
				case adjacent == 100, adjacent == 25 && len(cands)%4 == 1:
					pos++
				default:
					pos += 2
				}
			}
			scratch := make([]summary.Cand, n)
			before := fs.Stats().Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch, cands)
				var bound shard.BSF
				bound.Init(math.Inf(1))
				if visited, err := core.VerifyRaw(context.Background(), core.RawStore(raw, sums, len(q)), q, scratch, shard.NewKNNHeap(1), &bound, 1); err != nil || visited != n {
					b.Fatalf("visited %d, err %v", visited, err)
				}
			}
			io := fs.Stats().Snapshot().Sub(before)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cand")
			b.ReportMetric(float64(io.RandReads+io.SeqReads)/float64(b.N*n), "reads/cand")
		})
	}
}

// BenchmarkSquaredEDBlocked measures the blocked/unrolled Euclidean kernels
// against an inline scalar loop (the pre-overhaul shape), plus the
// early-abandon variant at a limit that abandons roughly half way.
func BenchmarkSquaredEDBlocked(b *testing.B) {
	gen := dataset.NewRandomWalk()
	rng := rand.New(rand.NewSource(8))
	q := make(series.Series, 256)
	x := make(series.Series, 256)
	gen.Generate(rng, q)
	gen.Generate(rng, x)
	full, err := series.SquaredED(q, x)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sq, err := series.SquaredED(q, x)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += sq
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc := 0.0
			for j := range q {
				d := q[j] - x[j]
				acc += d * d
			}
			benchSink += acc
		}
	})
	b.Run("early-abandon-half", func(b *testing.B) {
		limit := full / 2
		for i := 0; i < b.N; i++ {
			sq, _ := series.SquaredEDEarlyAbandon(q, x, limit)
			benchSink += sq
		}
	})
}

func BenchmarkEuclidean(b *testing.B) {
	gen := dataset.NewRandomWalk()
	rng := rand.New(rand.NewSource(4))
	q := make(series.Series, 256)
	x := make(series.Series, 256)
	gen.Generate(rng, q)
	gen.Generate(rng, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := series.SquaredED(q, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExternalSort(b *testing.B) {
	recs := randomRecords(20000, 5)
	b.SetBytes(int64(len(recs) * summary.RecordSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pinned serial: this is the historical baseline for the paper's
		// algorithm; BenchmarkParallelSort owns the scaling.
		sortRecords(b, recs, 64<<10, 1)
	}
}

// BenchmarkParallelSort compares the external sort at one worker vs all
// CPUs. The data is CPU-bound on a MemFS device, so the sub-benchmark ratio
// is the wall-clock speedup of the parallel run-formation + merge pipeline
// (the sorted stream is the same either way).
func BenchmarkParallelSort(b *testing.B) {
	recs := randomRecords(100000, 11)
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(recs) * summary.RecordSize))
			for i := 0; i < b.N; i++ {
				sortRecords(b, recs, 256<<10, workers)
			}
		})
	}
}

// randomRecords returns n records of random keys at positions 0..n-1.
func randomRecords(n int, seed int64) []summary.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]summary.Record, n)
	for i := range recs {
		rng.Read(recs[i].Key[:])
		recs[i].Pos = int64(i)
	}
	return recs
}

// sortRecords sorts recs on a fresh MemFS under budget and reads the sorted
// stream to its end.
func sortRecords(b *testing.B, recs []summary.Record, budget int64, workers int) {
	src := summary.SliceReader(recs)
	r, _, err := extsort.Sorted(extsort.Config{FS: storage.NewMemFS(), MemBudget: budget, Workers: workers}, &src)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	buf := make([]summary.Record, 4096)
	for {
		if _, err := r.Read(buf); err == io.EOF {
			return
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBuild compares the full Coconut-Tree bulk load (batched
// parallel summarization -> parallel external sort -> bulk load) at one
// worker vs all CPUs. Since the batched summarization pipeline, the
// summarize stage scales with Workers too — it no longer serializes on the
// reader goroutine.
func BenchmarkParallelBuild(b *testing.B) {
	const count = 20000
	const seriesLen = 128
	fs := storage.NewMemFS()
	if err := GenerateDataset(fs, "bench.bin", RandomWalk, count, seriesLen, 12); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := BuildTreeIndex(Config{
					Storage:      fs,
					Name:         fmt.Sprintf("bench-w%d", workers),
					DataFile:     "bench.bin",
					SeriesLen:    seriesLen,
					MemoryBudget: 1 << 20, // small budget: force real external sorting
					Workers:      workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				ix.Close()
			}
		})
	}
}

// BenchmarkBulkBuildTree is the Coconut-Tree bulk load at the end-to-end
// benchmark's scale (60k series, checksums on).
// Besides time it reports the two byte ratios the build contract pins —
// everything left on the device but the dataset, and everything read, per
// raw byte — so page padding (index-bytes/raw-byte in the units, not
// hundredths) or a second pass over the raw file (raw-bytes-read/raw-byte at
// 2) is visible in the CI log.
func BenchmarkBulkBuildTree(b *testing.B) {
	const count = 60000
	const seriesLen = 128
	fs := storage.NewMemFS()
	if err := GenerateDataset(fs, "bench.bin", RandomWalk, count, seriesLen, 12); err != nil {
		b.Fatal(err)
	}
	rawBytes := float64(count * seriesLen * 8)
	var read int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := fs.Stats().Snapshot()
		ix, err := BuildTreeIndex(Config{
			Storage:   fs,
			Name:      "bench-tree",
			DataFile:  "bench.bin",
			SeriesLen: seriesLen,
			Workers:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
		read = fs.Stats().Snapshot().Sub(before).BytesRead
		ix.Close()
	}
	b.StopTimer()
	var index int64
	for _, name := range fs.Names() {
		if name == "bench.bin" {
			continue
		}
		data, err := storage.ReadFileAll(fs, name)
		if err != nil {
			b.Fatal(err)
		}
		index += int64(len(data))
	}
	b.ReportMetric(float64(index)/rawBytes, "index-bytes/raw-byte")
	b.ReportMetric(float64(read)/rawBytes, "raw-bytes-read/raw-byte")
}

// BenchmarkBulkBuildMaterialized is the bulk-build bench for the "-Full"
// variants, whose leaf-run writer gathers each record's raw series by
// position from the raw file after the sort. Run with -benchmem to see the
// allocation profile.
func BenchmarkBulkBuildMaterialized(b *testing.B) {
	const count = 10000
	const seriesLen = 128
	fs := storage.NewMemFS()
	if err := GenerateDataset(fs, "benchm.bin", RandomWalk, count, seriesLen, 13); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := BuildTreeIndex(Config{
					Storage:      fs,
					Name:         fmt.Sprintf("benchm-w%d", workers),
					DataFile:     "benchm.bin",
					SeriesLen:    seriesLen,
					Materialized: true,
					MemoryBudget: 4 << 20,
					Workers:      workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				ix.Close()
			}
		})
	}
}

// BenchmarkAppendDurable measures durable single-series Insert throughput
// on a Coconut-LSM with 8 concurrent writers sharing the WAL's group
// commit. MemFS fsync is free, so a FaultFS hook charges each fsync a fixed
// sleep — making the reported appends/sec reflect how many device-latency
// fsyncs the writers' appends cost (one fsync pair per append would be
// ~1 000 appends/sec at this delay).
func BenchmarkAppendDurable(b *testing.B) {
	const (
		count     = 500
		seriesLen = 64
		writers   = 8
		syncDelay = 500 * time.Microsecond
	)
	inner := storage.NewMemFS()
	if err := GenerateDataset(inner, "wal.bin", RandomWalk, count, seriesLen, 30); err != nil {
		b.Fatal(err)
	}
	fs := storage.NewFaultFS(inner)
	fs.SetHook(func(op storage.Op, name string) {
		if op == storage.OpSync {
			time.Sleep(syncDelay)
		}
	})
	stream, err := GenerateQueries(RandomWalk, writers, seriesLen, 31)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildLSMIndex(Config{
		Storage:      fs,
		Name:         "wal",
		DataFile:     "wal.bin",
		SeriesLen:    seriesLen,
		Segments:     8,
		MemoryBudget: 64 << 20, // no flushes: isolate the sync discipline
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	var next int64
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for atomic.AddInt64(&next, 1) <= int64(b.N) {
				if err := ix.Insert(stream[w : w+1]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "appends/sec")
}

// BenchmarkIngestLatency measures per-Insert latency on a Coconut-LSM index
// under sustained ingest. The reported p50/p99/max metrics (ns) show the
// cost of inline compaction: an Insert whose flush lands on a tier
// boundary pays for the whole merge cascade before it returns.
func BenchmarkIngestLatency(b *testing.B) {
	const (
		count     = 2000
		seriesLen = 64
		batchSize = 100
		nBatches  = 80
	)
	stream, err := GenerateQueries(RandomWalk, batchSize*nBatches, seriesLen, 31)
	if err != nil {
		b.Fatal(err)
	}
	var p50, p99, max time.Duration
	for i := 0; i < b.N; i++ {
		fs := storage.NewMemFS()
		if err := GenerateDataset(fs, "ingest.bin", RandomWalk, count, seriesLen, 30); err != nil {
			b.Fatal(err)
		}
		ix, err := BuildLSMIndex(Config{
			Storage:      fs,
			Name:         "ingest",
			DataFile:     "ingest.bin",
			SeriesLen:    seriesLen,
			Segments:     8,
			MemoryBudget: 8 << 10, // ~340-record memtable: frequent flushes
		})
		if err != nil {
			b.Fatal(err)
		}
		lats := make([]time.Duration, 0, nBatches)
		for lo := 0; lo < len(stream); lo += batchSize {
			t0 := time.Now()
			if err := ix.Insert(stream[lo : lo+batchSize]); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, time.Since(t0))
		}
		if err := ix.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			b.Fatal(err)
		}
		sort.Slice(lats, func(a, c int) bool { return lats[a] < lats[c] })
		p50 += experiments.Percentile(lats, 0.50)
		p99 += experiments.Percentile(lats, 0.99)
		max += experiments.Percentile(lats, 1.0)
	}
	b.ReportMetric(float64(p50.Nanoseconds())/float64(b.N), "p50-append-ns")
	b.ReportMetric(float64(p99.Nanoseconds())/float64(b.N), "p99-append-ns")
	b.ReportMetric(float64(max.Nanoseconds())/float64(b.N), "max-append-ns")
}

// --- ablation benchmarks (design choices beyond the paper's figures) ------

func BenchmarkAblationSortable(b *testing.B) { runFigure(b, experiments.AblationSortable) }

func BenchmarkAblationDevice(b *testing.B) { runFigure(b, experiments.AblationDevice) }

func BenchmarkAblationLSMUpdates(b *testing.B) { runFigure(b, experiments.AblationLSMUpdates) }
