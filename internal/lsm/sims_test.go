package lsm

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

// TestExactMatchesReferencePass pins what the fused block filter must not
// change on a multi-run index with a live memtable, behind a cache that
// does not hold the key set: (Pos, Dist) for every QueryWorkers and, with
// one worker (a serial scan, so deterministic), VisitedRecords — against a
// replay of the verification phase as it ran before the filter: a lower
// bound for EVERY record from the direct kernel on the de-interleaved word,
// candidates under the approximate answer in raw position order, then the
// serial scan.
func TestExactMatchesReferencePass(t *testing.T) {
	shapes := []summary.Params{
		{SeriesLen: tLen, Segments: 16, CardBits: 8}, // transpose kernel
		{SeriesLen: tLen, Segments: 4, CardBits: 8},  // reference loop
	}
	gen := dataset.NewRandomWalk()
	data := append(dataset.Generate(gen, tCount, tLen, 42), dataset.Generate(gen, 330, tLen, 7)...)
	queries := append(dataset.Queries(gen, 12, tLen, 77), data[3], data[len(data)-1])
	for _, p := range shapes {
		s, err := summary.NewSummarizer(p)
		if err != nil {
			t.Fatal(err)
		}
		fs := storage.NewMemFS()
		if _, err := dataset.WriteFile(fs, "raw", gen, tCount, tLen, 42); err != nil {
			t.Fatal(err)
		}
		ix, err := Build(Options{FS: fs, Name: "lsm", S: s, RawName: "raw", MemBudgetBytes: 1 << 20, Fanout: 4, Window: 40,
			Cache: blockcache.New(64 << 10)})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		// Three flushed runs beside the bulk one, and 30 records left in
		// the memtable.
		for lo := tCount; lo < len(data); lo += 100 {
			hi := min(lo+100, len(data))
			if err := ix.Insert(context.Background(), data[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if hi-lo == 100 {
				if err := ix.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ix.Shape().Runs < 2 || len(ix.mem) == 0 {
			t.Fatalf("fixture has %d runs and %d memtable records; want several and some", ix.Shape().Runs, len(ix.mem))
		}
		var keys []summary.Key
		var positions []int64
		for _, r := range ix.runs {
			err := r.rb.Scan(func(blk *runblock.Block) error {
				keys, positions = append(keys, blk.Keys...), append(positions, blk.Pos...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range ix.mem {
			keys, positions = append(keys, e.key), append(positions, e.pos)
		}
		for qi, q := range queries {
			seed, err := ix.approxLocked(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceExact(s, q, data, keys, positions, seed)
			for _, w := range []int{1, 2, 8} {
				ix.opt.QueryWorkers = w
				got, err := ix.ExactSearch(context.Background(), q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got.Pos != want.Pos || got.Dist != want.Dist || (w == 1 && got != want) {
					t.Fatalf("%dx%d query %d workers=%d: %+v, reference pass %+v", p.Segments, p.CardBits, qi, w, got, want)
				}
			}
		}
	}
}

// referenceExact replays the serial verification scan from the squared-space
// approximate answer seed over every (key, position) of the index.
func referenceExact(s *summary.Summarizer, q series.Series, data []series.Series, keys []summary.Key, positions []int64, seed core.Result) core.Result {
	p := s.Params()
	qPAA, _ := s.PAA(q, nil)
	type cand struct {
		pos int64
		lb  float64
	}
	var cands []cand
	for i, k := range keys {
		if lb := s.MinDistSqPAAToSAX(qPAA, summary.Deinterleave(k, p.Segments, p.CardBits)); lb < seed.Dist {
			cands = append(cands, cand{positions[i], lb})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].pos < cands[b].pos })
	best := seed
	for _, c := range cands {
		if c.lb >= best.Dist {
			continue
		}
		best.VisitedRecords++
		if sq, ok := series.SquaredEDEarlyAbandon(q, data[c.pos], best.Dist); ok && sq < best.Dist {
			best.Dist, best.Pos = sq, c.pos
		}
	}
	best.Dist = math.Sqrt(best.Dist)
	return best
}
