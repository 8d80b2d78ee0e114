package lsm

import (
	"context"
	"slices"
	"sort"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/window"
)

// TestApproxWindowMatchesReference is the LSM counterpart of internal/core's:
// ApproxWindowCands at radius 0, 1, 2 and 100 (which saturates) must equal
// the window.Half records on each side of the query key's insertion point in
// the sorted set of every record inserted, each with its lower bound — the
// rule a tree and a trie follow — with the records in the memtable only, in
// runs and the memtable, after a batch larger than the memtable flushed in
// the middle of it, after a crash whose un-flushed tail Open replays, and
// after a clean Close and Open. Every memtable piece must be in record order,
// and more than twice as long as the next, after every InsertRecords and
// after the replay.
func TestApproxWindowMatchesReference(t *testing.T) {
	const memRecords = 64
	s := tSummarizer(t)
	gen := dataset.NewRandomWalk()
	inner := storage.NewMemFS()
	if _, err := dataset.WriteFile(inner, "raw", gen, 0, tLen, 1); err != nil {
		t.Fatal(err)
	}
	ffs := storage.NewFaultFS(inner)
	opt := Options{FS: ffs, Name: "lsm", S: s, RawName: "raw", MemBudgetBytes: memRecords * summary.RecordSize}
	ix, err := buildLone(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()

	data := dataset.Generate(gen, 420, tLen, 2)
	low, high := make(series.Series, tLen), make(series.Series, tLen)
	for i := range low {
		low[i], high[i] = -1e6+float64(i), 1e6-float64(i)
	}
	queries := append(dataset.Queries(gen, 8, tLen, 3), low, high, data[5], data[400])
	var inserted []series.Series
	insert := func(batch []series.Series) {
		t.Helper()
		if err := ix.Insert(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, batch...)
		requireMemPieces(t, ix.Index)
	}
	check := func(state string, wantRuns int, wantMem bool) {
		t.Helper()
		if got := len(ix.runs); got != wantRuns || (len(ix.mem) > 0) != wantMem {
			t.Fatalf("%s: %d runs and %d memtable records; want %d runs and a memtable: %v", state, got, len(ix.mem), wantRuns, wantMem)
		}
		requireWindow(t, state, ix.Index, s, inserted, queries)
	}

	for lo := 0; lo < 40; lo += 7 {
		insert(data[lo:min(lo+7, 40)])
	}
	check("memtable only", 0, true)
	for lo := 40; lo < 220; lo += 30 {
		insert(data[lo : lo+30])
	}
	check("runs and memtable", 3, true)
	// Three flushes in one batch, the first of which compacts the four
	// tier-0 runs into one of tier 1.
	insert(data[220:400])
	check("a batch over three memtables", 3, true)
	insert(data[400:])

	// Power is cut with 36 records in the raw log and the memtable alone:
	// the reopened index replays them into its memtable.
	ffs.Crash()
	ix.Close()
	opt.FS = ffs.Recover(0)
	if ix, err = openLone(opt); err != nil {
		t.Fatal(err)
	}
	requireMemPieces(t, ix.Index)
	check("a replayed tail", 3, true)

	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err = openLone(opt); err != nil {
		t.Fatal(err)
	}
	check("Close and Open", 4, false)
}

// requireMemPieces fails unless ix's memtable is pieces in record order
// that cover it, each more than twice as long as the next.
func requireMemPieces(t *testing.T, ix *Index) {
	t.Helper()
	ps := ix.memPieces()
	n := 0
	for i, p := range ps {
		if !slices.IsSortedFunc(p, summary.CompareRecords) {
			t.Fatalf("memtable piece %d of %d records is not in record order", i, len(p))
		}
		if i > 0 && len(ps[i-1]) <= 2*len(p) {
			t.Fatalf("memtable pieces %d and %d hold %d and %d records", i-1, i, len(ps[i-1]), len(p))
		}
		n += len(p)
	}
	if n != len(ix.mem) {
		t.Fatalf("memtable pieces hold %d of its %d records", n, len(ix.mem))
	}
}

// requireWindow holds ix's window for every query and radius to the
// reference: the records of data (record i at position i) sorted under the
// record order, and the window.Half of them on each side of where the query
// key sorts.
func requireWindow(t *testing.T, state string, ix *Index, s *summary.Summarizer, data []series.Series, queries []series.Series) {
	t.Helper()
	recs := make([]window.Cand, len(data))
	for i, d := range data {
		k, err := s.KeyOf(d)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = window.Cand{Key: k, Pos: int64(i)}
	}
	sort.Slice(recs, func(a, b int) bool {
		return summary.RecordLess(recs[a].Key, recs[a].Pos, recs[b].Key, recs[b].Pos)
	})
	for qi, q := range queries {
		key, err := s.KeyOf(q)
		if err != nil {
			t.Fatal(err)
		}
		pass, err := s.NewPass(q)
		if err != nil {
			t.Fatal(err)
		}
		ins := sort.Search(len(recs), func(i int) bool { return !recs[i].Key.Less(key) })
		for _, radius := range []int{0, 1, 2, 100} {
			half := window.Half(radius, len(recs))
			lo, hi := max(ins-half, 0), min(ins+half, len(recs))
			want := slices.Clone(recs[lo:hi])
			for i := range want {
				want[i].LB = pass.Table.Key(want[i].Key)
			}
			aw, err := ix.ApproxWindowCands(context.Background(), q, radius)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(aw.Cands, want) || aw.Split != ins-lo {
				t.Fatalf("%s, query %d, radius %d: window of %d split at %d, reference %d split at %d",
					state, qi, radius, len(aw.Cands), aw.Split, len(want), ins-lo)
			}
		}
		pass.Release()
	}
}
