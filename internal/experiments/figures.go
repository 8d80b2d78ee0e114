package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/isax"
)

// memorySweep is the fraction-of-dataset memory regimes used by the
// construction figures (the paper varies available memory the same way:
// ample down to ~1%).
var memorySweep = []float64{1.0, 0.25, 0.05, 0.01}

func budgetFor(sc Scale, count int, frac float64) int64 {
	b := int64(float64(sc.RawBytes(count)) * frac)
	if b < 1<<14 {
		b = 1 << 14
	}
	return b
}

// Fig7Histograms regenerates Figure 7: value histograms of the three
// datasets (13 bins over [-3.25, 3.25] plus skewness).
func Fig7Histograms(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig7",
		Title:  "Value histograms for all datasets",
		Header: []string{"dataset", "bin-center", "probability"},
	}
	for _, kind := range []string{"randomwalk", "seismic", "astronomy"} {
		gen, err := dataset.ByName(kind)
		if err != nil {
			return nil, err
		}
		h := dataset.ValueHistogram(gen, 400, sc.SeriesLen, 13, -3.25, 3.25, sc.Seed)
		for i := range h.Counts {
			t.Add(kind, fmt.Sprintf("%+.2f", h.BinCenter(i)), fmt.Sprintf("%.4f", h.Probability(i)))
		}
		skew := dataset.Skewness(gen, 400, sc.SeriesLen, sc.Seed)
		t.Add(kind, "skewness", fmt.Sprintf("%+.3f", skew))
	}
	return t, nil
}

// Fig8aConstructionMaterialized regenerates Figure 8a: materialized index
// construction time as available memory shrinks.
func Fig8aConstructionMaterialized(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig8a",
		Title:  "Index construction, materialized (time vs memory)",
		Header: []string{"memory", "system", "total", "device", "cpu", "seeks"},
	}
	n := sc.BaseCount
	for _, frac := range memorySweep {
		budget := budgetFor(sc, n, frac)
		row := func(name string, c Cost) {
			t.Add(pct(frac), name, ms(c.Total()), ms(c.Sim), ms(c.Wall), fmt.Sprint(c.IO.Seeks()))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildCTree(true, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("Coconut-Tree-Full", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildCTrie(true, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("Coconut-Trie-Full", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildISAX(isax.ADSFull, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("ADSFull", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildISAX(isax.ISAX2, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("iSAX2.0", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildRTree(true)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("R-tree", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildVertical()
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("Vertical", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildDSTree()
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("DSTree", c)
		}
	}
	return t, nil
}

// Fig8bConstructionNonMaterialized regenerates Figure 8b: non-materialized
// construction time as memory shrinks.
func Fig8bConstructionNonMaterialized(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig8b",
		Title:  "Index construction, non-materialized (time vs memory)",
		Header: []string{"memory", "system", "total", "device", "cpu", "seeks"},
	}
	n := sc.BaseCount
	for _, frac := range memorySweep {
		budget := budgetFor(sc, n, frac)
		row := func(name string, c Cost) {
			t.Add(pct(frac), name, ms(c.Total()), ms(c.Sim), ms(c.Wall), fmt.Sprint(c.IO.Seeks()))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildCTree(false, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("Coconut-Tree", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildCTrie(false, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("Coconut-Trie", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildISAX(isax.ADSPlus, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("ADS+", c)
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildRTree(false)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("R-tree+", c)
		}
	}
	return t, nil
}

// Fig8cSpace regenerates Figure 8c: index space overhead (plus the leaf
// fill statistics the paper quotes in the text: ~10% for prefix splits,
// ~97% for median splits).
func Fig8cSpace(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig8c",
		Title:  "Indexing space overhead",
		Header: []string{"system", "index-size", "x-raw", "leaves", "leaf-fill"},
	}
	n := sc.BaseCount
	raw := sc.RawBytes(n)
	budget := budgetFor(sc, n, 0.25)
	add := func(name string, size int64, leaves int, fill float64) {
		fillStr := "-"
		if fill >= 0 {
			fillStr = pct(fill)
		}
		t.Add(name, mb(size), fmt.Sprintf("%.2fx", float64(size)/float64(raw)), fmt.Sprint(leaves), fillStr)
	}

	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildCTree(true, budget)
		if err != nil {
			return nil, err
		}
		add("Coconut-Tree-Full", ix.SizeBytes(), ix.Shape().Leaves, ix.Shape().LeafFill)
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildCTrie(true, budget)
		if err != nil {
			return nil, err
		}
		add("Coconut-Trie-Full", ix.SizeBytes(), ix.Shape().Leaves, ix.Shape().LeafFill)
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildISAX(isax.ADSFull, budget)
		if err != nil {
			return nil, err
		}
		add("ADSFull", ix.SizeBytes(), ix.NumLeaves(), ix.AvgLeafFill())
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildISAX(isax.ISAX2, budget)
		if err != nil {
			return nil, err
		}
		add("iSAX2.0", ix.SizeBytes(), ix.NumLeaves(), ix.AvgLeafFill())
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildRTree(true)
		if err != nil {
			return nil, err
		}
		add("R-tree", ix.SizeBytes(), int(ix.NumLeaves()), -1)
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildDSTree()
		if err != nil {
			return nil, err
		}
		add("DSTree", ix.SizeBytes(), int(ix.NumLeaves()), -1)
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildVertical()
		if err != nil {
			return nil, err
		}
		add("Vertical", ix.SizeBytes(), 0, -1)
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildCTree(false, budget)
		if err != nil {
			return nil, err
		}
		add("Coconut-Tree", ix.SizeBytes(), ix.Shape().Leaves, ix.Shape().LeafFill)
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildCTrie(false, budget)
		if err != nil {
			return nil, err
		}
		add("Coconut-Trie", ix.SizeBytes(), ix.Shape().Leaves, ix.Shape().LeafFill)
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildISAX(isax.ADSPlus, budget)
		if err != nil {
			return nil, err
		}
		add("ADS+", ix.SizeBytes(), ix.NumLeaves(), ix.AvgLeafFill())
		ix.Close()
	}
	{
		e, _ := newEnv(sc, "randomwalk", n)
		ix, _, err := e.buildRTree(false)
		if err != nil {
			return nil, err
		}
		add("R-tree+", ix.SizeBytes(), int(ix.NumLeaves()), -1)
		ix.Close()
	}
	return t, nil
}

// Fig8dScaleMaterialized regenerates Figure 8d: materialized construction
// with fixed memory and growing data.
func Fig8dScaleMaterialized(sc Scale) (*Table, error) {
	return scaleConstruction(sc, "Fig8d",
		"Index construction, materialized (fixed memory, growing data)", true)
}

// Fig8eScaleNonMaterialized regenerates Figure 8e: non-materialized
// construction with fixed memory and growing data.
func Fig8eScaleNonMaterialized(sc Scale) (*Table, error) {
	return scaleConstruction(sc, "Fig8e",
		"Index construction, non-materialized (fixed memory, growing data)", false)
}

func scaleConstruction(sc Scale, id, title string, materialized bool) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"series", "system", "total", "device", "cpu", "seeks"},
	}
	// Fixed memory: 25% of the SMALLEST dataset, so the largest runs at
	// ~3% — the regime where the paper's crossover appears.
	budget := budgetFor(sc, sc.BaseCount, 0.25)
	for _, mult := range []int{1, 2, 4, 8} {
		n := sc.BaseCount * mult / 2
		row := func(name string, c Cost) {
			t.Add(fmt.Sprint(n), name, ms(c.Total()), ms(c.Sim), ms(c.Wall), fmt.Sprint(c.IO.Seeks()))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildCTree(materialized, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			if materialized {
				row("Coconut-Tree-Full", c)
			} else {
				row("Coconut-Tree", c)
			}
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			mode := isax.ADSPlus
			name := "ADS+"
			if materialized {
				mode = isax.ADSFull
				name = "ADSFull"
			}
			ix, c, err := e.buildISAX(mode, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row(name, c)
		}
	}
	return t, nil
}

// Fig8fVariableLength regenerates Figure 8f: construction of collections of
// equal total volume but different series lengths, with limited memory.
func Fig8fVariableLength(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig8f",
		Title:  "Indexing variable length data series (fixed volume)",
		Header: []string{"length", "system", "total", "device", "cpu"},
	}
	totalPoints := sc.BaseCount * sc.SeriesLen
	for _, length := range []int{sc.SeriesLen / 2, sc.SeriesLen, sc.SeriesLen * 2, sc.SeriesLen * 4} {
		lsc := sc
		lsc.SeriesLen = length
		n := totalPoints / length
		budget := budgetFor(lsc, n, 0.05)
		row := func(name string, c Cost) {
			t.Add(fmt.Sprint(length), name, ms(c.Total()), ms(c.Sim), ms(c.Wall))
		}
		{
			e, err := newEnv(lsc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildCTree(false, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("Coconut-Tree", c)
		}
		{
			e, err := newEnv(lsc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildCTree(true, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("Coconut-Tree-Full", c)
		}
		{
			e, err := newEnv(lsc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildISAX(isax.ADSPlus, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("ADS+", c)
		}
		{
			e, err := newEnv(lsc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, c, err := e.buildISAX(isax.ADSFull, budget)
			if err != nil {
				return nil, err
			}
			ix.Close()
			row("ADSFull", c)
		}
	}
	return t, nil
}

// Fig9aExact regenerates Figure 9a: exact query answering vs data size.
func Fig9aExact(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig9a",
		Title:  "Exact query answering (mean per query, growing data)",
		Header: []string{"series", "system", "total", "device", "cpu"},
	}
	for _, mult := range []int{1, 2, 4} {
		n := sc.BaseCount * mult / 2
		budget := budgetFor(sc, n, 0.25)
		qs := func(e *env) []Series { return e.queries(sc.Queries) }

		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildCTree(false, budget)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range qs(e) {
					if _, err := ix.ExactSearch(context.Background(), q, 1); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "Coconut-Tree", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildCTree(true, budget)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range qs(e) {
					if _, err := ix.ExactSearch(context.Background(), q, 1); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "Coconut-Tree-Full", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildISAX(isax.ADSPlus, budget)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range qs(e) {
					if _, err := ix.ExactSearchSIMS(q); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "ADS+", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildISAX(isax.ADSFull, budget)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range qs(e) {
					if _, err := ix.ExactSearchSIMS(q); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "ADSFull", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildRTree(true)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range qs(e) {
					if _, err := ix.ExactSearch(q); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "R-tree", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildRTree(false)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range qs(e) {
					if _, err := ix.ExactSearch(q); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "R-tree+", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
	}
	return t, nil
}

func time1(n int) time.Duration {
	if n <= 0 {
		return 1
	}
	return time.Duration(n)
}

// Fig9bApprox regenerates Figure 9b: approximate query answering vs data
// size.
func Fig9bApprox(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig9b",
		Title:  "Approximate query answering (mean per query, growing data)",
		Header: []string{"series", "system", "total", "device", "cpu"},
	}
	for _, mult := range []int{1, 2, 4} {
		n := sc.BaseCount * mult / 2
		budget := budgetFor(sc, n, 0.25)
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildCTree(false, budget)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range e.queries(sc.Queries) {
					if _, err := ix.ApproxSearch(context.Background(), q, 1); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "Coconut-Tree", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildCTree(true, budget)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range e.queries(sc.Queries) {
					if _, err := ix.ApproxSearch(context.Background(), q, 1); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "Coconut-Tree-Full", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildISAX(isax.ADSFull, budget)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range e.queries(sc.Queries) {
					if _, err := ix.ApproxSearch(q); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "ADSFull", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
		{
			e, err := newEnv(sc, "randomwalk", n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildISAX(isax.ADSPlus, budget)
			if err != nil {
				return nil, err
			}
			c, err := measure(e.fs, func() error {
				for _, q := range e.queries(sc.Queries) {
					if _, err := ix.ApproxSearch(q); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(n), "ADS+", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		}
	}
	return t, nil
}

// Fig9cApproxLargest regenerates Figure 9c: approximate query answering on
// the largest dataset, sweeping the Coconut radius.
func Fig9cApproxLargest(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig9c",
		Title:  "Approximate query answering, largest dataset (radius sweep)",
		Header: []string{"system", "total", "device", "cpu"},
	}
	n := sc.BaseCount * 2
	budget := budgetFor(sc, n, 0.25)
	e, err := newEnv(sc, "randomwalk", n)
	if err != nil {
		return nil, err
	}
	ix, _, err := e.buildCTree(true, budget)
	if err != nil {
		return nil, err
	}
	for _, radius := range []int{0, 1, 10} {
		c, err := measure(e.fs, func() error {
			for _, q := range e.queries(sc.Queries) {
				if _, err := ix.ApproxSearch(context.Background(), q, radius); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("CTreeFull(r=%d)", radius), ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
	}
	ix.Close()

	e2, err := newEnv(sc, "randomwalk", n)
	if err != nil {
		return nil, err
	}
	adsf, _, err := e2.buildISAX(isax.ADSFull, budget)
	if err != nil {
		return nil, err
	}
	c, err := measure(e2.fs, func() error {
		for _, q := range e2.queries(sc.Queries) {
			if _, err := adsf.ApproxSearch(q); err != nil {
				return err
			}
		}
		return nil
	})
	adsf.Close()
	if err != nil {
		return nil, err
	}
	t.Add("ADSFull", ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
	return t, nil
}

// Fig9dApproxQuality regenerates Figure 9d: the quality (mean Euclidean
// distance) of approximate answers, plus the fraction of queries where
// Coconut beats ADSFull.
func Fig9dApproxQuality(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig9d",
		Title:  "Average distance of approximate search answers",
		Header: []string{"system", "mean-ED", "beats-ADSFull"},
	}
	n := sc.BaseCount * 2
	budget := budgetFor(sc, n, 0.25)

	e, err := newEnv(sc, "randomwalk", n)
	if err != nil {
		return nil, err
	}
	qs := e.queries(sc.Queries)

	adsEnv, err := newEnv(sc, "randomwalk", n)
	if err != nil {
		return nil, err
	}
	adsf, _, err := adsEnv.buildISAX(isax.ADSFull, budget)
	if err != nil {
		return nil, err
	}
	adsDists := make([]float64, len(qs))
	for i, q := range qs {
		r, err := adsf.ApproxSearch(q)
		if err != nil {
			return nil, err
		}
		adsDists[i] = r.Dist
	}
	adsf.Close()

	ix, _, err := e.buildCTree(true, budget)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	for _, radius := range []int{0, 1, 10} {
		var sum float64
		var wins int
		for i, q := range qs {
			r, err := ix.ApproxSearch(context.Background(), q, radius)
			if err != nil {
				return nil, err
			}
			sum += r.Dist
			if r.Dist <= adsDists[i] {
				wins++
			}
		}
		t.Add(fmt.Sprintf("CTree(r=%d)", radius),
			fmt.Sprintf("%.4f", sum/float64(len(qs))),
			pct(float64(wins)/float64(len(qs))))
	}
	var adsSum float64
	for _, d := range adsDists {
		adsSum += d
	}
	t.Add("ADSFull", fmt.Sprintf("%.4f", adsSum/float64(len(qs))), "-")
	return t, nil
}

// Fig9ef regenerates Figures 9e and 9f together: exact query time and
// visited records on the largest dataset, radius sweep vs the ADS family.
func Fig9ef(sc Scale) (timeTable, visitedTable *Table, err error) {
	timeTable = &Table{
		ID:     "Fig9e",
		Title:  "Exact query answering, largest dataset",
		Header: []string{"system", "total", "device", "cpu"},
	}
	visitedTable = &Table{
		ID:     "Fig9f",
		Title:  "Records visited during the exact (post-approximate) phase",
		Header: []string{"system", "mean-visited-records"},
	}
	n := sc.BaseCount * 2
	budget := budgetFor(sc, n, 0.25)

	e, err := newEnv(sc, "randomwalk", n)
	if err != nil {
		return nil, nil, err
	}
	ix, _, err := e.buildCTree(true, budget)
	if err != nil {
		return nil, nil, err
	}
	for _, radius := range []int{0, 1, 10} {
		var visited int64
		c, err := measure(e.fs, func() error {
			for _, q := range e.queries(sc.Queries) {
				// The exact search repeats the (deterministic) approximate
				// phase; subtracting its visits isolates the SIMS phase —
				// the quantity the paper plots, which the approximate
				// answer's quality is supposed to shrink.
				a, err := ix.ApproxSearch(context.Background(), q, radius)
				if err != nil {
					return err
				}
				r, err := ix.ExactSearch(context.Background(), q, radius)
				if err != nil {
					return err
				}
				visited += r.VisitedRecords - a.VisitedRecords
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("CoconutTreeSIMS(r=%d)", radius)
		timeTable.Add(name, ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		visitedTable.Add(name, fmt.Sprint(visited/int64(sc.Queries)))
	}
	ix.Close()

	for _, mode := range []isax.Mode{isax.ADSFull, isax.ADSPlus} {
		e2, err := newEnv(sc, "randomwalk", n)
		if err != nil {
			return nil, nil, err
		}
		ax, _, err := e2.buildISAX(mode, budget)
		if err != nil {
			return nil, nil, err
		}
		var visited int64
		c, err := measure(e2.fs, func() error {
			for _, q := range e2.queries(sc.Queries) {
				// ADS+ splits leaves adaptively on first touch; the first
				// approximate call absorbs the mutation so the second one
				// matches the approximate phase inside the exact search.
				if _, err := ax.ApproxSearch(q); err != nil {
					return err
				}
				a, err := ax.ApproxSearch(q)
				if err != nil {
					return err
				}
				r, err := ax.ExactSearchSIMS(q)
				if err != nil {
					return err
				}
				visited += r.VisitedRecords - a.VisitedRecords
			}
			return nil
		})
		ax.Close()
		if err != nil {
			return nil, nil, err
		}
		name := mode.String() + "-SIMS"
		timeTable.Add(name, ms(c.Total()/time1(sc.Queries)), ms(c.Sim/time1(sc.Queries)), ms(c.Wall/time1(sc.Queries)))
		visitedTable.Add(name, fmt.Sprint(visited/int64(sc.Queries)))
	}
	return timeTable, visitedTable, nil
}

// Fig10aMixedWorkload regenerates Figure 10a: interleaved batch inserts and
// exact queries, sweeping the batch size. Small batches favor the
// insert-buffering ADS family; larger batches favor Coconut's sorted batch
// inserts.
func Fig10aMixedWorkload(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Fig10a",
		Title:  "Mixed workload: batched inserts interleaved with queries",
		Header: []string{"batch-size", "system", "total", "device", "cpu"},
	}
	initial := sc.BaseCount / 2
	arrivals := sc.BaseCount / 2
	budget := budgetFor(sc, sc.BaseCount, 0.01)
	gen, _ := dataset.ByName("randomwalk")
	newSeries := dataset.Generate(gen, arrivals, sc.SeriesLen, sc.Seed+5000)

	for _, batches := range []int{50, 10, 2} {
		batchSize := arrivals / batches
		// Coconut-Tree.
		{
			e, err := newEnv(sc, "randomwalk", initial)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildCTree(false, budget)
			if err != nil {
				return nil, err
			}
			qs := e.queries(2 * batches)
			c, err := measure(e.fs, func() error {
				for b := 0; b < batches; b++ {
					lo, hi := b*batchSize, (b+1)*batchSize
					if hi > len(newSeries) {
						hi = len(newSeries)
					}
					if err := ix.Insert(context.Background(), newSeries[lo:hi]); err != nil {
						return err
					}
					for k := 0; k < 2; k++ {
						if _, err := ix.ExactSearch(context.Background(), qs[2*b+k], 0); err != nil {
							return err
						}
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(batchSize), "Coconut-Tree", ms(c.Total()), ms(c.Sim), ms(c.Wall))
		}
		// ADS+.
		{
			e, err := newEnv(sc, "randomwalk", initial)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildISAX(isax.ADSPlus, budget)
			if err != nil {
				return nil, err
			}
			qs := e.queries(2 * batches)
			c, err := measure(e.fs, func() error {
				for b := 0; b < batches; b++ {
					lo, hi := b*batchSize, (b+1)*batchSize
					if hi > len(newSeries) {
						hi = len(newSeries)
					}
					if err := ix.Append(newSeries[lo:hi]); err != nil {
						return err
					}
					for k := 0; k < 2; k++ {
						if _, err := ix.ExactSearchSIMS(qs[2*b+k]); err != nil {
							return err
						}
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprint(batchSize), "ADS+", ms(c.Total()), ms(c.Sim), ms(c.Wall))
		}
	}
	return t, nil
}

// RealWorkload regenerates Figures 10b/10c: complete workload (index
// construction + exact queries) on the astronomy or seismic dataset across
// memory regimes.
func RealWorkload(sc Scale, kind string, id string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  kind + " — complete workload (build + exact queries)",
		Header: []string{"memory", "system", "total", "device", "cpu"},
	}
	n := sc.BaseCount
	for _, frac := range []float64{0.25, 0.05, 0.01} {
		budget := budgetFor(sc, n, frac)
		{
			e, err := newEnv(sc, kind, n)
			if err != nil {
				return nil, err
			}
			var total Cost
			ix, c, err := e.buildCTree(false, budget)
			if err != nil {
				return nil, err
			}
			total = c
			c, err = measure(e.fs, func() error {
				for _, q := range e.queries(sc.Queries) {
					if _, err := ix.ExactSearch(context.Background(), q, 1); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			total.Wall += c.Wall
			total.Sim += c.Sim
			t.Add(pct(frac), "Coconut-Tree", ms(total.Total()), ms(total.Sim), ms(total.Wall))
		}
		{
			e, err := newEnv(sc, kind, n)
			if err != nil {
				return nil, err
			}
			var total Cost
			ix, c, err := e.buildCTree(true, budget)
			if err != nil {
				return nil, err
			}
			total = c
			c, err = measure(e.fs, func() error {
				for _, q := range e.queries(sc.Queries) {
					if _, err := ix.ExactSearch(context.Background(), q, 1); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			total.Wall += c.Wall
			total.Sim += c.Sim
			t.Add(pct(frac), "Coconut-Tree-Full", ms(total.Total()), ms(total.Sim), ms(total.Wall))
		}
		{
			e, err := newEnv(sc, kind, n)
			if err != nil {
				return nil, err
			}
			var total Cost
			ix, c, err := e.buildISAX(isax.ADSPlus, budget)
			if err != nil {
				return nil, err
			}
			total = c
			c, err = measure(e.fs, func() error {
				for _, q := range e.queries(sc.Queries) {
					if _, err := ix.ExactSearchSIMS(q); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			total.Wall += c.Wall
			total.Sim += c.Sim
			t.Add(pct(frac), "ADS+", ms(total.Total()), ms(total.Sim), ms(total.Wall))
		}
		{
			e, err := newEnv(sc, kind, n)
			if err != nil {
				return nil, err
			}
			var total Cost
			ix, c, err := e.buildISAX(isax.ADSFull, budget)
			if err != nil {
				return nil, err
			}
			total = c
			c, err = measure(e.fs, func() error {
				for _, q := range e.queries(sc.Queries) {
					if _, err := ix.ExactSearchSIMS(q); err != nil {
						return err
					}
				}
				return nil
			})
			ix.Close()
			if err != nil {
				return nil, err
			}
			total.Wall += c.Wall
			total.Sim += c.Sim
			t.Add(pct(frac), "ADSFull", ms(total.Total()), ms(total.Sim), ms(total.Wall))
		}
	}
	return t, nil
}

// IndexSizeTable regenerates the index-size comparison quoted in §5.3 for
// the real datasets.
func IndexSizeTable(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "SizeTable",
		Title:  "Index sizes on the real datasets (§5.3)",
		Header: []string{"dataset", "system", "size", "x-raw"},
	}
	n := sc.BaseCount
	raw := sc.RawBytes(n)
	budget := budgetFor(sc, n, 0.25)
	for _, kind := range []string{"astronomy", "seismic"} {
		{
			e, err := newEnv(sc, kind, n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildISAX(isax.ADSFull, budget)
			if err != nil {
				return nil, err
			}
			t.Add(kind, "ADSFull", mb(ix.SizeBytes()), fmt.Sprintf("%.2fx", float64(ix.SizeBytes())/float64(raw)))
			ix.Close()
		}
		{
			e, err := newEnv(sc, kind, n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildISAX(isax.ADSPlus, budget)
			if err != nil {
				return nil, err
			}
			t.Add(kind, "ADS+", mb(ix.SizeBytes()), fmt.Sprintf("%.2fx", float64(ix.SizeBytes())/float64(raw)))
			ix.Close()
		}
		{
			e, err := newEnv(sc, kind, n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildCTree(false, budget)
			if err != nil {
				return nil, err
			}
			t.Add(kind, "Coconut-Tree", mb(ix.SizeBytes()), fmt.Sprintf("%.2fx", float64(ix.SizeBytes())/float64(raw)))
			ix.Close()
		}
		{
			e, err := newEnv(sc, kind, n)
			if err != nil {
				return nil, err
			}
			ix, _, err := e.buildCTree(true, budget)
			if err != nil {
				return nil, err
			}
			t.Add(kind, "Coconut-Tree-Full", mb(ix.SizeBytes()), fmt.Sprintf("%.2fx", float64(ix.SizeBytes())/float64(raw)))
			ix.Close()
		}
	}
	return t, nil
}

// Fig10bAstronomy regenerates Figure 10b.
func Fig10bAstronomy(sc Scale) (*Table, error) {
	return RealWorkload(sc, "astronomy", "Fig10b")
}

// Fig10cSeismic regenerates Figure 10c.
func Fig10cSeismic(sc Scale) (*Table, error) {
	return RealWorkload(sc, "seismic", "Fig10c")
}

// All runs every experiment at the given scale, returning the tables in
// paper order.
func All(sc Scale) ([]*Table, error) {
	var out []*Table
	steps := []func(Scale) (*Table, error){
		Fig7Histograms,
		Fig8aConstructionMaterialized,
		Fig8bConstructionNonMaterialized,
		Fig8cSpace,
		Fig8dScaleMaterialized,
		Fig8eScaleNonMaterialized,
		Fig8fVariableLength,
		Fig9aExact,
		Fig9bApprox,
		Fig9cApproxLargest,
		Fig9dApproxQuality,
	}
	for _, fn := range steps {
		t, err := fn(sc)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	te, tf, err := Fig9ef(sc)
	if err != nil {
		return out, err
	}
	out = append(out, te, tf)
	rest := []func(Scale) (*Table, error){
		Fig10aMixedWorkload,
		Fig10bAstronomy,
		Fig10cSeismic,
		IndexSizeTable,
	}
	for _, fn := range rest {
		t, err := fn(sc)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
