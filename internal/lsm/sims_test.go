package lsm

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
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
			err := r.rb.Scan(nil, func(blk *runblock.Block) error {
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
			pass, err := s.NewPass(q)
			if err != nil {
				t.Fatal(err)
			}
			seed, err := ix.approxLocked(context.Background(), q, &pass.Table)
			if err != nil {
				t.Fatal(err)
			}
			pass.Release()
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

// runReadsFS counts the bytes read from LSM run files, and nothing else.
type runReadsFS struct {
	storage.FS
	bytes atomic.Int64
}

func (fs *runReadsFS) Open(name string) (storage.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || !strings.Contains(name, ".run.") {
		return f, err
	}
	return &countedFile{File: f, n: &fs.bytes}, nil
}

type countedFile struct {
	storage.File
	n *atomic.Int64
}

func (f *countedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.n.Add(int64(n))
	return n, err
}

// TestExactSkipsRunBlocks: on a multi-run index of multi-block runs behind
// a cache too small for any full block, the exact pass skips whole blocks
// without changing what it finds — answers and VisitedRecords equal the
// replay of the unskipped pass — and a query whose seed rules blocks out
// reads fewer run-file bytes than a full scan of every run.
func TestExactSkipsRunBlocks(t *testing.T) {
	const bulk = 4000
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 16, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewRandomWalk()
	fs := &runReadsFS{FS: storage.NewMemFS()}
	if _, err := dataset.WriteFile(fs, "raw", gen, bulk, tLen, 42); err != nil {
		t.Fatal(err)
	}
	data := append(dataset.Generate(gen, bulk, tLen, 42), dataset.Generate(gen, 1300, tLen, 7)...)
	ix, err := Build(Options{FS: fs, Name: "lsm", S: s, RawName: "raw", MemBudgetBytes: 1 << 20, Fanout: 4, Window: 40,
		QueryWorkers: 1, Cache: blockcache.New(1 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// Two flushed runs of two blocks each beside the bulk one, and 100
	// records left in the memtable.
	for _, batch := range [][]series.Series{data[bulk : bulk+600], data[bulk+600 : bulk+1200], data[bulk+1200:]} {
		if err := ix.Insert(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if len(batch) == 600 {
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(ix.runs) != 3 || len(ix.mem) == 0 {
		t.Fatalf("fixture has %d runs and %d memtable records; want 3 and some", len(ix.runs), len(ix.mem))
	}
	var keys []summary.Key
	var positions []int64
	before := fs.bytes.Load()
	for _, r := range ix.runs {
		if r.rb.NumBlocks() < 2 {
			t.Fatalf("run %s has %d blocks; want several", r.name, r.rb.NumBlocks())
		}
		err := r.rb.Scan(nil, func(blk *runblock.Block) error {
			keys, positions = append(keys, blk.Keys...), append(positions, blk.Pos...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	full := fs.bytes.Load() - before
	for _, e := range ix.mem {
		keys, positions = append(keys, e.key), append(positions, e.pos)
	}
	fewer := 0
	for qi, q := range append(dataset.Queries(gen, 16, tLen, 77), data[5], data[bulk+700]) {
		pass, err := s.NewPass(q)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := ix.approxLocked(context.Background(), q, &pass.Table)
		if err != nil {
			t.Fatal(err)
		}
		pass.Release()
		want := referenceExact(s, q, data, keys, positions, seed)
		var bound shard.BSF
		bound.Init(seed.Dist)
		before := fs.bytes.Load()
		got, err := ix.ExactVerify(context.Background(), q, seed.Pos, seed.Dist, &bound)
		if err != nil {
			t.Fatal(err)
		}
		read := fs.bytes.Load() - before
		if got.Pos != want.Pos || math.Sqrt(got.Dist) != want.Dist || got.VisitedRecords != want.VisitedRecords-seed.VisitedRecords {
			t.Fatalf("query %d: exact pass %+v from seed %+v, reference pass %+v", qi, got, seed, want)
		}
		if res, err := ix.ExactSearch(context.Background(), q, 0); err != nil || res != want {
			t.Fatalf("query %d: ExactSearch %+v (%v), reference pass %+v", qi, res, err, want)
		}
		if read > full {
			t.Fatalf("query %d: exact pass read %d run-file bytes, a full scan reads %d", qi, read, full)
		}
		// A member query's seed is its own series at distance 0, under which
		// every bound prunes: only a seed above 0 shows the bound at work.
		if read < full && seed.Dist > 0 {
			fewer++
		}
	}
	t.Logf("%d of 16 exact passes from a nonzero seed read fewer run-file bytes than a full scan (%d)", fewer, full)
	if fewer == 0 {
		t.Fatal("no exact pass skipped a run block")
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
