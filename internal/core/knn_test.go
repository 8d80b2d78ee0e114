package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
)

func bruteForceKNN(q series.Series, data []series.Series, k int) []Neighbor {
	out := make([]Neighbor, 0, len(data))
	for i, d := range data {
		dist, _ := series.ED(q, d)
		out = append(out, Neighbor{Pos: int64(i), Dist: dist})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, data := fixtureFS(t)
		ix, err := BuildTree(baseOptions(t, fs, mat))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		qs := dataset.Queries(dataset.NewRandomWalk(), 8, tLen, 21)
		for qi, q := range qs {
			for _, k := range []int{1, 5, 20} {
				want := bruteForceKNN(q, data, k)
				got, _, err := ix.ExactSearchKNN(context.Background(), q, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("mat=%v query %d k=%d: got %d neighbors", mat, qi, k, len(got))
				}
				for i := range got {
					if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("mat=%v query %d k=%d neighbor %d: dist %v != %v",
							mat, qi, k, i, got[i].Dist, want[i].Dist)
					}
				}
			}
		}
	}
}

func TestKNNOrderedAscending(t *testing.T) {
	fs, _ := fixtureFS(t)
	ix, err := BuildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 23)[0]
	got, stats, err := ix.ExactSearchKNN(context.Background(), q, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Dist > got[i].Dist {
			t.Fatal("neighbors not sorted by distance")
		}
	}
	if stats.Pos != got[0].Pos || stats.Dist != got[0].Dist {
		t.Fatal("stats should reflect the best neighbor")
	}
	if stats.VisitedRecords >= tCount {
		t.Fatalf("kNN visited everything (%d) — no pruning", stats.VisitedRecords)
	}
}

func TestKNNKLargerThanCollection(t *testing.T) {
	fs, _ := fixtureFS(t)
	ix, err := BuildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 25)[0]
	got, _, err := ix.ExactSearchKNN(context.Background(), q, tCount+100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != tCount {
		t.Fatalf("k > N should return all %d series, got %d", tCount, len(got))
	}
}

func TestKNNZeroAndNegativeK(t *testing.T) {
	fs, _ := fixtureFS(t)
	ix, err := BuildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 27)[0]
	got, _, err := ix.ExactSearchKNN(context.Background(), q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("k<=0 should clamp to 1, got %d", len(got))
	}
}

func TestKNNAfterInsert(t *testing.T) {
	fs, data := fixtureFS(t)
	ix, err := BuildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	batch := dataset.Generate(dataset.NewSeismic(), 30, tLen, 555)
	if err := ix.Insert(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	all := append(append([]series.Series{}, data...), batch...)
	q := batch[11]
	want := bruteForceKNN(q, all, 5)
	got, _, err := ix.ExactSearchKNN(context.Background(), q, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("post-insert kNN neighbor %d: %v != %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestOpenTreeRoundTrip(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, data := fixtureFS(t)
		opt := baseOptions(t, fs, mat)
		ix, err := BuildTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		count := ix.Count()
		leaves := ix.Shape().Leaves
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := OpenTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Count() != count || re.Shape().Leaves != leaves {
			t.Fatalf("reopened shape differs: %d/%d vs %d/%d",
				re.Count(), re.Shape().Leaves, count, leaves)
		}
		// Queries work identically after reopen.
		q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 29)[0]
		want := bruteForce1NN(q, data)
		res, err := re.ExactSearch(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Dist-want) > 1e-9 {
			t.Fatalf("reopened exact search %v != %v", res.Dist, want)
		}
		// Inserts keep working after reopen.
		batch := dataset.Generate(dataset.NewAstronomy(), 10, tLen, 31)
		if err := re.Insert(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		res, err = re.ExactSearch(context.Background(), batch[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist > 1e-9 {
			t.Fatalf("insert after reopen not found: %v", res.Dist)
		}
	}
}

func TestOpenTreeMissing(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	opt.Name = "never-built"
	if _, err := OpenTree(opt); err == nil {
		t.Fatal("expected error opening missing index")
	}
}

// TestKNNDeterministicAcrossQueryWorkers: the sharded verification scan
// must return byte-identical neighbor lists for any QueryWorkers, for both
// the materialized (leaf-scan) and non-materialized (raw-file) paths —
// per-shard heaps under the total (distance, position) order reduced in
// shard order are the determinism contract.
func TestKNNDeterministicAcrossQueryWorkers(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, _ := fixtureFS(t)
		opt := baseOptions(t, fs, mat)
		opt.QueryWorkers = 1
		ix, err := BuildTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		qs := dataset.Queries(dataset.NewRandomWalk(), 6, tLen, 33)
		for qi, q := range qs {
			for _, k := range []int{1, 7, 25} {
				ix.opt.QueryWorkers = 1
				want, _, err := ix.ExactSearchKNN(context.Background(), q, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8, 64} {
					ix.opt.QueryWorkers = workers
					got, _, err := ix.ExactSearchKNN(context.Background(), q, k, 1)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("mat=%v query %d k=%d workers=%d: %d neighbors vs %d",
							mat, qi, k, workers, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("mat=%v query %d k=%d workers=%d neighbor %d: %+v != %+v",
								mat, qi, k, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
