package experiments

import (
	"context"
	"fmt"
	"sort"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/isax"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/partition"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// Ablations isolate the design decisions the paper argues for (and its
// stated future work). They are extras beyond the paper's figures.

// AblationSortable quantifies §3's core claim directly: how much closer are
// sort-order neighbors under the sortable (z-order) summarization than
// under plain lexicographic SAX order? Reported as the mean ED between
// adjacent series in each order, plus the fill a greedy leaf packing would
// reach.
func AblationSortable(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "AblSort",
		Title:  "Sortable vs unsortable summarization: neighbor distance in sort order",
		Header: []string{"order", "mean-neighbor-ED", "vs-random"},
	}
	s, err := sc.summarizer()
	if err != nil {
		return nil, err
	}
	gen, _ := dataset.ByName("randomwalk")
	n := sc.BaseCount / 2
	data := dataset.Generate(gen, n, sc.SeriesLen, sc.Seed)

	type entry struct {
		key  summary.Key
		sax  summary.SAX
		item int
	}
	entries := make([]entry, n)
	for i, ser := range data {
		sax, err := s.SAXOf(ser)
		if err != nil {
			return nil, err
		}
		key := s.KeyFromSAX(sax)
		entries[i] = entry{key: key, sax: sax, item: i}
	}
	meanED := func(order []int) float64 {
		total := 0.0
		for i := 1; i < len(order); i++ {
			d, _ := series.ED(data[order[i-1]], data[order[i]])
			total += d
		}
		return total / float64(len(order)-1)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}

	// Random (unsorted) baseline: the raw file order.
	randomED := meanED(idx)

	// Lexicographic SAX order (the unsortable strawman of Figure 2).
	lex := append([]int(nil), idx...)
	sort.Slice(lex, func(a, b int) bool {
		sa, sb := entries[lex[a]].sax, entries[lex[b]].sax
		for j := range sa {
			if sa[j] != sb[j] {
				return sa[j] < sb[j]
			}
		}
		return false
	})
	lexED := meanED(lex)

	// z-order / invSAX (Figure 4).
	zo := append([]int(nil), idx...)
	sort.Slice(zo, func(a, b int) bool {
		return entries[zo[a]].key.Less(entries[zo[b]].key)
	})
	zED := meanED(zo)

	t.Add("raw file order", fmt.Sprintf("%.4f", randomED), "1.00x")
	t.Add("lexicographic SAX", fmt.Sprintf("%.4f", lexED), fmt.Sprintf("%.2fx", lexED/randomED))
	t.Add("invSAX z-order", fmt.Sprintf("%.4f", zED), fmt.Sprintf("%.2fx", zED/randomED))
	return t, nil
}

// AblationDevice replays Coconut-Tree vs ADS+ construction I/O through both
// device models: the paper's HDD and an SSD. Sequentiality matters less on
// SSDs, so the gap narrows — but the O(N) vs O(N/B) operation-count gap
// remains.
func AblationDevice(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "AblDevice",
		Title:  "Construction cost under HDD vs SSD cost models (1% memory)",
		Header: []string{"system", "hdd", "ssd", "hdd/ssd"},
	}
	n := sc.BaseCount
	budget := budgetFor(sc, n, 0.01)
	ssd := storage.DefaultSSD()
	addRow := func(name string, io storage.Snapshot) {
		hddT := hdd.Time(io)
		ssdT := ssd.Time(io)
		ratio := "-"
		if ssdT > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(hddT)/float64(ssdT))
		}
		t.Add(name, ms(hddT), ms(ssdT), ratio)
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
		addRow("Coconut-Tree", c.IO)
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
		addRow("ADS+", c.IO)
	}
	return t, nil
}

// AblationLSMUpdates compares the three update strategies on an
// insert-heavy stream: Coconut-Tree top-down batch inserts, ADS+ buffered
// appends, and Coconut-LSM memtable/run appends (§6 future work).
func AblationLSMUpdates(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "AblLSM",
		Title:  "Update strategies: B+-tree inserts vs ADS+ buffering vs LSM runs",
		Header: []string{"system", "insert-total", "device", "cpu", "query-after"},
	}
	initial := sc.BaseCount / 2
	stream := dataset.Generate(dataset.NewRandomWalk(), sc.BaseCount, sc.SeriesLen, sc.Seed+31)
	budget := budgetFor(sc, initial, 0.02)
	const batchSize = 200

	// Coconut-Tree inserts.
	{
		e, err := newEnv(sc, "randomwalk", initial)
		if err != nil {
			return nil, err
		}
		ix, _, err := e.buildCoconut(seededTree(0), false, budget)
		if err != nil {
			return nil, err
		}
		cost, err := measure(e.fs, func() error {
			for lo := 0; lo < len(stream); lo += batchSize {
				hi := min(lo+batchSize, len(stream))
				if err := ix.Insert(context.Background(), stream[lo:hi]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		q := e.queries(1)[0]
		qc, err := measure(e.fs, func() error {
			_, err := ix.ExactSearch(context.Background(), q)
			return err
		})
		ix.Close()
		if err != nil {
			return nil, err
		}
		t.Add("Coconut-Tree inserts", ms(cost.Total()), ms(cost.Sim), ms(cost.Wall), ms(qc.Total()))
	}
	// ADS+ appends.
	{
		e, err := newEnv(sc, "randomwalk", initial)
		if err != nil {
			return nil, err
		}
		ix, _, err := e.buildISAX(isax.ADSPlus, budget)
		if err != nil {
			return nil, err
		}
		cost, err := measure(e.fs, func() error {
			for lo := 0; lo < len(stream); lo += batchSize {
				hi := min(lo+batchSize, len(stream))
				if err := ix.Append(stream[lo:hi]); err != nil {
					return err
				}
			}
			return ix.FlushBuffers()
		})
		if err != nil {
			return nil, err
		}
		q := e.queries(1)[0]
		qc, err := measure(e.fs, func() error {
			_, err := ix.ExactSearchSIMS(q)
			return err
		})
		ix.Close()
		if err != nil {
			return nil, err
		}
		t.Add("ADS+ appends", ms(cost.Total()), ms(cost.Sim), ms(cost.Wall), ms(qc.Total()))
	}
	// Coconut-LSM.
	{
		e, err := newEnv(sc, "randomwalk", initial)
		if err != nil {
			return nil, err
		}
		s, err := sc.summarizer()
		if err != nil {
			return nil, err
		}
		var ix *partition.Composite
		_, err = measure(e.fs, func() error {
			var err error
			ix, err = partition.Build(partition.LSMVariant(lsm.Options{
				FS: e.fs, Name: "lsm", S: s, RawName: rawName,
				MemBudgetBytes: budget, Workers: sc.Workers,
				QueryWorkers: sc.QueryWorkers,
			}), 1, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		cost, err := measure(e.fs, func() error {
			for lo := 0; lo < len(stream); lo += batchSize {
				hi := min(lo+batchSize, len(stream))
				if err := ix.Insert(context.Background(), stream[lo:hi]); err != nil {
					return err
				}
			}
			return ix.Flush()
		})
		if err != nil {
			return nil, err
		}
		q := e.queries(1)[0]
		qc, err := measure(e.fs, func() error {
			_, err := ix.ExactSearch(context.Background(), q)
			return err
		})
		ix.Close()
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("Coconut-LSM (%d runs)", ix.Shape().Runs),
			ms(cost.Total()), ms(cost.Sim), ms(cost.Wall), ms(qc.Total()))
	}
	return t, nil
}

// Ablations runs all ablation studies.
func Ablations(sc Scale) ([]*Table, error) {
	var out []*Table
	for _, fn := range []func(Scale) (*Table, error){
		AblationSortable,
		AblationDevice,
		AblationLSMUpdates,
	} {
		tb, err := fn(sc)
		if err != nil {
			return out, err
		}
		out = append(out, tb)
	}
	return out, nil
}
