package experiments

import (
	"context"
	"math"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/isax"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/series"
)

// TestAllIndexesAgreeOnExactNN is the repo-wide correctness statement:
// every index family built over the same dataset must return the same
// exact nearest-neighbor distance as a brute-force scan, for every query
// and every dataset family.
func TestAllIndexesAgreeOnExactNN(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	sc := tinyScale()
	for _, kind := range []string{"randomwalk", "seismic", "astronomy"} {
		gen, err := dataset.ByName(kind)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.Generate(gen, sc.BaseCount, sc.SeriesLen, sc.Seed)
		qs := dataset.Queries(gen, 5, sc.SeriesLen, sc.Seed+1000)
		want := make([]float64, len(qs))
		for i, q := range qs {
			best := math.Inf(1)
			for _, d := range data {
				dist, _ := series.ED(q, d)
				if dist < best {
					best = dist
				}
			}
			want[i] = best
		}
		budget := budgetFor(sc, sc.BaseCount, 0.25)

		check := func(name string, got func(q series.Series) (float64, error)) {
			t.Helper()
			for i, q := range qs {
				d, err := got(q)
				if err != nil {
					t.Fatalf("%s/%s query %d: %v", kind, name, i, err)
				}
				if math.Abs(d-want[i]) > 1e-9 {
					t.Errorf("%s/%s query %d: distance %v, brute force %v", kind, name, i, d, want[i])
				}
			}
		}

		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			ix, _, err := e.buildCTree(false, budget)
			if err != nil {
				t.Fatal(err)
			}
			check("Coconut-Tree", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearch(context.Background(), q, 1)
				return r.Dist, err
			})
			ix.Close()
		}
		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			ix, _, err := e.buildCTree(true, budget)
			if err != nil {
				t.Fatal(err)
			}
			check("Coconut-Tree-Full", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearch(context.Background(), q, 1)
				return r.Dist, err
			})
			ix.Close()
		}
		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			ix, _, err := e.buildCTrie(false, budget)
			if err != nil {
				t.Fatal(err)
			}
			check("Coconut-Trie", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearch(context.Background(), q, 0)
				return r.Dist, err
			})
			ix.Close()
		}
		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			ix, _, err := e.buildISAX(isax.ISAX2, budget)
			if err != nil {
				t.Fatal(err)
			}
			check("iSAX2.0", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearchTree(q)
				return r.Dist, err
			})
			ix.Close()
		}
		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			ix, _, err := e.buildISAX(isax.ADSPlus, budget)
			if err != nil {
				t.Fatal(err)
			}
			check("ADS+", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearchSIMS(q)
				return r.Dist, err
			})
			ix.Close()
		}
		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			ix, _, err := e.buildRTree(true)
			if err != nil {
				t.Fatal(err)
			}
			check("R-tree", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearch(q)
				return r.Dist, err
			})
			ix.Close()
		}
		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			ix, _, err := e.buildVertical()
			if err != nil {
				t.Fatal(err)
			}
			check("Vertical", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearch(q)
				return r.Dist, err
			})
			ix.Close()
		}
		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			ix, _, err := e.buildDSTree()
			if err != nil {
				t.Fatal(err)
			}
			check("DSTree", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearch(q)
				return r.Dist, err
			})
			ix.Close()
		}
		{
			e, _ := newEnv(sc, kind, sc.BaseCount)
			s, err := sc.summarizer()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := lsm.Build(lsm.Options{FS: e.fs, Name: "lsm", S: s, RawName: rawName, MemBudgetBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			check("Coconut-LSM", func(q series.Series) (float64, error) {
				r, err := ix.ExactSearch(context.Background(), q, 0)
				return r.Dist, err
			})
			ix.Close()
		}
	}
}
