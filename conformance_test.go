package coconut

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
)

// searcher is the common exact-search surface of the three index kinds.
type searcher interface {
	Close() error
}

type searchFn func(q Series) (Result, error)

const (
	confCount = 2500
	confLen   = 64
	confSeed  = 314
)

// confCase builds one index variant and returns its exact-search function
// plus the full in-memory dataset it indexes (for brute-force checking).
type confCase struct {
	name  string
	build func(t *testing.T, queryWorkers int) (searcher, searchFn, []Series)
}

func confConfig(fs Storage, queryWorkers int, materialized bool) Config {
	return Config{
		Storage:      fs,
		Name:         "conf",
		DataFile:     "conf.bin",
		SeriesLen:    confLen,
		Segments:     8,
		Materialized: materialized,
		MemoryBudget: 1 << 20,
		Workers:      2,
		QueryWorkers: queryWorkers,
	}
}

func confFS(t *testing.T) (Storage, []Series) {
	t.Helper()
	fs := NewMemStorage()
	if err := GenerateDataset(fs, "conf.bin", RandomWalk, confCount, confLen, confSeed); err != nil {
		t.Fatal(err)
	}
	data := dataset.Generate(dataset.NewRandomWalk(), confCount, confLen, confSeed)
	return fs, data
}

// confAppend streams extra batches into an LSM index, flushing after each
// so the index accumulates `flushes` extra on-disk runs, plus a final
// unflushed batch that stays in the memtable.
func confAppend(t *testing.T, ix *LSMIndex, flushes int) []Series {
	t.Helper()
	extra := dataset.Generate(dataset.NewSeismic(), flushes*120+40, confLen, confSeed+1)
	for i := 0; i < flushes; i++ {
		if err := ix.Insert(extra[i*120 : (i+1)*120]); err != nil {
			t.Fatal(err)
		}
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Insert(extra[flushes*120:]); err != nil {
		t.Fatal(err)
	}
	return extra
}

func confCases() []confCase {
	tree := func(mat bool) func(*testing.T, int) (searcher, searchFn, []Series) {
		return func(t *testing.T, qw int) (searcher, searchFn, []Series) {
			fs, data := confFS(t)
			ix, err := BuildTreeIndex(confConfig(fs, qw, mat))
			if err != nil {
				t.Fatal(err)
			}
			return ix, ix.Search, data
		}
	}
	lsm := func(runs int) func(*testing.T, int) (searcher, searchFn, []Series) {
		return func(t *testing.T, qw int) (searcher, searchFn, []Series) {
			fs, data := confFS(t)
			ix, err := BuildLSMIndex(confConfig(fs, qw, false))
			if err != nil {
				t.Fatal(err)
			}
			if runs > 1 {
				data = append(data, confAppend(t, ix, runs-1)...)
				if got := ix.NumRuns(); got < runs {
					t.Fatalf("fixture built %d runs, want >= %d", got, runs)
				}
			}
			return ix, ix.Search, data
		}
	}
	return []confCase{
		{"tree", tree(false)},
		{"tree-materialized", tree(true)},
		{"lsm-1run", lsm(1)},
		{"lsm-4runs", lsm(4)},
	}
}

// TestExactConformance is the exact-vs-brute-force conformance suite: every
// index variant (tree, materialized or not, single- and multi-run LSM)
// must answer exact 1-NN queries identically to a brute-force scan, and the
// answers must be byte-identical for every QueryWorkers setting.
func TestExactConformance(t *testing.T) {
	queries, err := GenerateQueries(RandomWalk, 8, confLen, confSeed+2)
	if err != nil {
		t.Fatal(err)
	}
	workerSweep := []int{1, 2, 8}
	for _, tc := range confCases() {
		t.Run(tc.name, func(t *testing.T) {
			// results[w][q] is query q's answer at worker count w.
			results := make(map[int][]Result)
			var data []Series
			for _, qw := range workerSweep {
				ix, search, d := tc.build(t, qw)
				data = d
				answers := make([]Result, len(queries))
				for qi, q := range queries {
					res, err := search(q)
					if err != nil {
						ix.Close()
						t.Fatalf("workers=%d query %d: %v", qw, qi, err)
					}
					answers[qi] = res
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				results[qw] = answers
			}
			// Brute force is the ground truth for the first sweep entry...
			for qi, q := range queries {
				wantPos, wantDist := bruteForce(q, data)
				got := results[workerSweep[0]][qi]
				if got.Position != wantPos || math.Abs(got.Distance-wantDist) > 1e-9 {
					t.Errorf("query %d: got (#%d, %v), brute force (#%d, %v)",
						qi, got.Position, got.Distance, wantPos, wantDist)
				}
			}
			// ...and every other worker count must match it bit for bit.
			base := results[workerSweep[0]]
			for _, qw := range workerSweep[1:] {
				for qi := range queries {
					a, b := base[qi], results[qw][qi]
					if a.Position != b.Position || a.Distance != b.Distance {
						t.Errorf("query %d: workers=%d answered (#%d, %v), workers=%d answered (#%d, %v)",
							qi, workerSweep[0], a.Position, a.Distance, qw, b.Position, b.Distance)
					}
				}
			}
		})
	}
}

// bruteForce returns the position and distance of q's true 1-NN, breaking
// distance ties toward the lower position (the order every index scans in).
func bruteForce(q Series, data []Series) (int64, float64) {
	bestPos, bestDist := int64(-1), math.Inf(1)
	for i, d := range data {
		dist, err := series.ED(q, d)
		if err != nil {
			panic(fmt.Sprintf("brute force: %v", err))
		}
		if dist < bestDist {
			bestDist, bestPos = dist, int64(i)
		}
	}
	return bestPos, bestDist
}

// TestExactTieConformance: exact duplicates at #1 and #2560 — the copy
// inserted into a tree (plain and materialized, 1 and 3 partitions) or an
// LSM (1 and 3 partitions), or already in the raw file a tree is
// bulk-loaded over — are a distance tie that resolves to the lower position. Search,
// SearchKNN(q, 1)[0] and the brute force all answer #1 at distance 0, for
// every QueryWorkers, although the approximate window meets #2560 first.
func TestExactTieConformance(t *testing.T) {
	const dup = confCount + 60
	extra := dataset.Generate(dataset.NewSeismic(), 61, confLen, confSeed+5)
	inserted := func(build func(Config) (exactIndex, error), insert func(exactIndex, []Series) error) func(Storage, Config) (exactIndex, error) {
		return func(_ Storage, cfg Config) (exactIndex, error) {
			ix, err := build(cfg)
			if err != nil {
				return nil, err
			}
			return ix, insert(ix, extra)
		}
	}
	tree := inserted(func(c Config) (exactIndex, error) { return BuildTreeIndex(c) },
		func(ix exactIndex, b []Series) error { return ix.(*TreeIndex).Insert(b) })
	lsm := inserted(func(c Config) (exactIndex, error) { return BuildLSMIndex(c) },
		func(ix exactIndex, b []Series) error { return ix.(*LSMIndex).Insert(b) })
	bulk := func(fs Storage, cfg Config) (exactIndex, error) {
		f, err := fs.Open("conf.bin")
		if err != nil {
			return nil, err
		}
		var enc []byte
		for _, s := range extra {
			enc = series.AppendEncode(enc, s)
		}
		if _, err := f.WriteAt(enc, int64(confCount*series.EncodedSize(confLen))); err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		return BuildTreeIndex(cfg)
	}
	for _, tc := range []struct {
		name  string
		mat   bool
		build func(Storage, Config) (exactIndex, error)
	}{
		{"tree", false, tree},
		{"tree-materialized", true, tree},
		{"lsm", false, lsm},
		{"tree-bulk", false, bulk},
		{"tree-bulk-materialized", true, bulk},
	} {
		for _, parts := range []int{1, 3} {
			for _, qw := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/partitions=%d/workers=%d", tc.name, parts, qw), func(t *testing.T) {
					fs, data := confFS(t)
					extra[len(extra)-1] = data[1]
					ix, err := tc.build(fs, partConfig(fs, parts, qw, tc.mat))
					if err != nil {
						t.Fatal(err)
					}
					defer ix.Close()
					q := data[1]
					if pos, dist := bruteForce(q, append(data, extra...)); pos != 1 || dist != 0 {
						t.Fatalf("brute force: (#%d, %v), want (#1, 0)", pos, dist)
					}
					if d, err := Distance(q, extra[dup-confCount]); err != nil || d != 0 {
						t.Fatalf("#%d is no copy of #1: distance %v, %v", dup, d, err)
					}
					res, err := ix.Search(q)
					if err != nil || res.Position != 1 || res.Distance != 0 {
						t.Fatalf("Search: (#%d, %v), %v; want (#1, 0)", res.Position, res.Distance, err)
					}
					ns, err := ix.SearchKNN(q, 1)
					if err != nil || len(ns) != 1 || ns[0] != (Neighbor{Position: 1, Distance: 0}) {
						t.Fatalf("SearchKNN(q, 1): %+v, %v; want [(#1, 0)]", ns, err)
					}
				})
			}
		}
	}
}

// TestTreeLSMConformance is the differential test of the window rule: a
// tree and an LSM built from the same dataset (one Storage each), at 1 and
// 2 partitions, answer byte-identically — SearchApprox at radius 0, 1, 2
// and 5 in position, distance and visited series, Search and
// SearchKNN(q, 5) in positions and distances. It holds after the bulk load,
// after batched inserts through a memtable small enough that the LSM holds
// several runs and a memtable, and after Close and Open.
func TestTreeLSMConformance(t *testing.T) {
	const batch = 450
	extra := dataset.Generate(dataset.NewSeismic(), 13*batch, confLen, confSeed+7)
	// The last batch stays in the memtable: 5 850 records fill 5 memtables
	// of 1 000 at 1 partition and 2 of 2 730 at 2.
	queries := append(dataset.Queries(dataset.NewRandomWalk(), 32, confLen, confSeed+8), extra[7], extra[len(extra)-3])
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			var ixs [2]*Index
			var cfgs [2]Config
			for i, v := range []Variant{Tree, LSM} {
				fs, _ := confFS(t)
				cfgs[i] = partConfig(fs, parts, 2, false)
				cfgs[i].MemoryBudget = 1000 * 24 // a 1000-record memtable, 64 KiB a partition
				ix, err := Build(context.Background(), cfgs[i], v)
				if err != nil {
					t.Fatal(err)
				}
				ixs[i] = ix
			}
			defer func() {
				for _, ix := range ixs {
					ix.Close()
				}
			}()
			treeLSMAgree(t, "bulk-loaded", ixs, queries)

			for lo := 0; lo < len(extra); lo += batch {
				for _, ix := range ixs {
					if err := ix.Insert(extra[lo : lo+batch]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if runs := ixs[1].NumRuns(); runs < 2*parts {
				t.Fatalf("the LSM holds %d runs after %d inserts; want several", runs, len(extra))
			}
			treeLSMAgree(t, "after inserts", ixs, queries)

			for i, ix := range ixs {
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				cfgs[i].Partitions = 0 // adopted from the manifest
				var err error
				if ixs[i], err = Open(context.Background(), cfgs[i]); err != nil {
					t.Fatal(err)
				}
			}
			treeLSMAgree(t, "reopened", ixs, queries)
		})
	}
}

// treeLSMAgree fails unless the tree ixs[0] and the LSM ixs[1] answer every
// query alike.
func treeLSMAgree(t *testing.T, state string, ixs [2]*Index, queries []Series) {
	t.Helper()
	if a, b := ixs[0].Count(), ixs[1].Count(); a != b {
		t.Fatalf("%s: the tree holds %d series, the LSM %d", state, a, b)
	}
	for qi, q := range queries {
		for _, radius := range []int{0, 1, 2, 5} {
			var got [2]Result
			for i, ix := range ixs {
				r, err := ix.SearchApprox(q, radius)
				if err != nil {
					t.Fatal(err)
				}
				r.VisitedLeaves = 0 // an LSM has no leaves
				got[i] = r
			}
			if got[0] != got[1] {
				t.Fatalf("%s, query %d, radius %d: tree %+v, LSM %+v", state, qi, radius, got[0], got[1])
			}
		}
		var exact [2]Result
		var knn [2][]Neighbor
		for i, ix := range ixs {
			var err error
			if exact[i], err = ix.Search(q); err != nil {
				t.Fatal(err)
			}
			if knn[i], err = ix.SearchKNN(q, 5); err != nil {
				t.Fatal(err)
			}
		}
		if exact[0].Position != exact[1].Position || exact[0].Distance != exact[1].Distance {
			t.Fatalf("%s, query %d: Search on the tree %+v, on the LSM %+v", state, qi, exact[0], exact[1])
		}
		if fmt.Sprint(knn[0]) != fmt.Sprint(knn[1]) || len(knn[0]) != 5 {
			t.Fatalf("%s, query %d: SearchKNN(q, 5) on the tree %v, on the LSM %v", state, qi, knn[0], knn[1])
		}
	}
}
