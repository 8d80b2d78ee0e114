package coconut

import (
	"math"
	"sort"
	"testing"
)

func TestPublicAPITreeRoundTrip(t *testing.T) {
	fs := NewMemStorage()
	if err := GenerateDataset(fs, "data.bin", RandomWalk, 500, 128, 1); err != nil {
		t.Fatal(err)
	}
	idx, err := BuildTreeIndex(Config{
		Storage:   fs,
		Name:      "ix",
		DataFile:  "data.bin",
		SeriesLen: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.Count() != 500 {
		t.Fatalf("Count = %d", idx.Count())
	}
	qs, err := GenerateQueries(RandomWalk, 5, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		exact, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := idx.SearchApprox(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Distance > approx.Distance+1e-12 {
			t.Fatalf("exact %v worse than approximate %v", exact.Distance, approx.Distance)
		}
		if exact.Position < 0 || exact.Position >= 500 {
			t.Fatalf("position %d out of range", exact.Position)
		}
	}
	if idx.LeafFill() < 0.9 {
		t.Fatalf("tree fill %v", idx.LeafFill())
	}
}

// TestPublicAPITrieShims: BuildTrieIndex and OpenTrieIndex, kept for the
// callers that name them, build and reopen a tree, which answers as one
// built under its own name over the same records.
func TestPublicAPITrieShims(t *testing.T) {
	fs := NewMemStorage()
	if err := GenerateDataset(fs, "data.bin", Seismic, 300, 64, 3); err != nil {
		t.Fatal(err)
	}
	// One query worker: the visit counts of a sharded scan depend on the
	// shards' timing.
	cfg := Config{Storage: fs, DataFile: "data.bin", SeriesLen: 64, Segments: 8, QueryWorkers: 1}
	shim, tree := cfg, cfg
	shim.Name, tree.Name = "shim", "tree"
	idx, err := BuildTrieIndex(shim)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildTreeIndex(tree)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if v := idx.Variant(); v != Tree {
		t.Fatalf("BuildTrieIndex built a %s index, want a tree", v)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if idx, err = OpenTrieIndex(Config{Storage: fs, Name: "shim", QueryWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	qs, _ := GenerateQueries(Seismic, 3, 64, 4)
	for _, q := range qs {
		res, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(res.Distance, 1) || res != want {
			t.Fatalf("reopened shim answers %+v, the tree %+v", res, want)
		}
	}
}

func TestPublicAPIInsert(t *testing.T) {
	fs := NewMemStorage()
	GenerateDataset(fs, "data.bin", RandomWalk, 200, 64, 5)
	idx, err := BuildTreeIndex(Config{
		Storage: fs, Name: "u", DataFile: "data.bin",
		SeriesLen: 64, Segments: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	batch, _ := GenerateQueries(Astronomy, 20, 64, 6)
	if err := idx.Insert(batch); err != nil {
		t.Fatal(err)
	}
	res, err := idx.Search(batch[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance > 1e-9 {
		t.Fatalf("inserted series not found: %v", res.Distance)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := BuildTreeIndex(Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
	fs := NewMemStorage()
	if _, err := BuildTreeIndex(Config{Storage: fs, Name: "x", DataFile: "nope", SeriesLen: 64}); err == nil {
		t.Fatal("expected error for missing dataset")
	}
	if err := GenerateDataset(fs, "d", DatasetKind("bogus"), 1, 8, 1); err == nil {
		t.Fatal("expected error for unknown dataset kind")
	}
}

func TestDistanceAndZNormalize(t *testing.T) {
	a := Series{3, 4, 5, 6}
	ZNormalize(a)
	if math.Abs(a.Mean()) > 1e-9 {
		t.Fatal("not normalized")
	}
	d, err := Distance(Series{0, 0}, Series{3, 4})
	if err != nil || d != 5 {
		t.Fatalf("Distance = %v, %v", d, err)
	}
}

// TestPublicAPISearchKNN: SearchKNN on every index type — tree plain
// and materialized, and an LSM of one run or four, each with records still
// in its memtable — is the brute-force top-k under the (distance, position)
// order, ranked, and its head is Search's answer; a k past the record count
// returns every record.
func TestPublicAPISearchKNN(t *testing.T) {
	lsm := func(flushes int) func(*testing.T, Storage) (exactIndex, []Series, error) {
		return func(t *testing.T, fs Storage) (exactIndex, []Series, error) {
			ix, err := BuildLSMIndex(confConfig(fs, 2, false))
			if err != nil {
				return nil, nil, err
			}
			return ix, confAppend(t, ix, flushes), nil
		}
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T, Storage) (exactIndex, []Series, error)
		runs  int
	}{
		{"tree", func(_ *testing.T, fs Storage) (exactIndex, []Series, error) {
			ix, err := BuildTreeIndex(confConfig(fs, 2, false))
			return ix, nil, err
		}, 0},
		{"tree-materialized", func(_ *testing.T, fs Storage) (exactIndex, []Series, error) {
			ix, err := BuildTreeIndex(confConfig(fs, 2, true))
			return ix, nil, err
		}, 0},
		{"lsm-1run", lsm(0), 1},
		{"lsm-4runs", lsm(3), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, data := confFS(t)
			ix, extra, err := tc.build(t, fs)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if l, ok := ix.(*LSMIndex); ok && l.NumRuns() != tc.runs {
				t.Fatalf("fixture built %d runs, want %d", l.NumRuns(), tc.runs)
			}
			data = append(data, extra...)
			qs, err := GenerateQueries(RandomWalk, 3, confLen, 9)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range append(qs, data[len(data)-1]) {
				want := make([]Neighbor, len(data))
				for i, d := range data {
					dist, err := Distance(q, d)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = Neighbor{Position: int64(i), Distance: dist}
				}
				sort.SliceStable(want, func(a, b int) bool { return want[a].Distance < want[b].Distance })
				ns, err := ix.SearchKNN(q, 7)
				if err != nil {
					t.Fatal(err)
				}
				if len(ns) != 7 {
					t.Fatalf("query %d: %d neighbors, want 7", qi, len(ns))
				}
				for i, n := range ns {
					if n.Position != want[i].Position || math.Abs(n.Distance-want[i].Distance) > 1e-9 {
						t.Fatalf("query %d rank %d: %+v, brute force %+v", qi, i, n, want[i])
					}
				}
				one, err := ix.Search(q)
				if err != nil || one.Position != ns[0].Position || one.Distance != ns[0].Distance {
					t.Fatalf("query %d: Search (#%d, %v), %v; SearchKNN head %+v", qi, one.Position, one.Distance, err, ns[0])
				}
			}
			// A k past the record count, as a client may send, is every record.
			if ns, err := ix.SearchKNN(qs[0], math.MaxInt); err != nil || len(ns) != len(data) {
				t.Fatalf("k = MaxInt: %d neighbors, %v; want all %d", len(ns), err, len(data))
			}
		})
	}
}

func TestPublicAPILSM(t *testing.T) {
	fs := NewMemStorage()
	GenerateDataset(fs, "data.bin", RandomWalk, 300, 64, 10)
	idx, err := BuildLSMIndex(Config{
		Storage: fs, Name: "l", DataFile: "data.bin",
		SeriesLen: 64, Segments: 8,
		MemoryBudget: 64 * 24, // tiny memtable: force flushes + compaction
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.Count() != 300 {
		t.Fatalf("Count = %d", idx.Count())
	}
	batch, _ := GenerateQueries(Seismic, 200, 64, 11)
	if err := idx.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if err := idx.Flush(); err != nil {
		t.Fatal(err)
	}
	if idx.Count() != 500 {
		t.Fatalf("Count after insert = %d", idx.Count())
	}
	if idx.NumRuns() < 2 {
		t.Fatalf("expected multiple runs, got %d", idx.NumRuns())
	}
	res, err := idx.Search(batch[42])
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance > 1e-9 {
		t.Fatalf("inserted series not found: %v", res.Distance)
	}
	approx, err := idx.SearchApprox(batch[42])
	if err != nil {
		t.Fatal(err)
	}
	if approx.Distance > 1e-9 {
		t.Fatalf("approximate search should find the exact member: %v", approx.Distance)
	}
	if idx.SizeBytes() == 0 {
		t.Fatal("runs should occupy space")
	}
}
