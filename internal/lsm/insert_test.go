package lsm

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/summary"
)

// randomRecs returns n records with random keys at positions from, from+1, ….
func randomRecs(rng *rand.Rand, from int64, n int) []summary.Record {
	recs := make([]summary.Record, n)
	for i := range recs {
		rng.Read(recs[i].Key[:])
		recs[i].Pos = from + int64(i)
	}
	return recs
}

// TestMemPiecesMergeInserts inserts batches of random sizes — growing,
// shrinking, single records — and holds the memtable to its pieces'
// invariants and to the sorted multiset of every record inserted.
func TestMemPiecesMergeInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := &Index{opt: Options{MemBudgetBytes: 1 << 30}}
	var want []summary.Record
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(1+i%40*(1+i%3))
		recs := randomRecs(rng, int64(len(want)), n)
		if i%5 == 0 {
			// Equal keys at different positions.
			for j := range recs {
				recs[j].Key = recs[0].Key
			}
		}
		if err := ix.InsertRecords(recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			want = append(want, summary.Record{Key: r.Key, Pos: r.Pos})
		}
		requireMemPieces(t, ix)
	}
	slices.SortFunc(want, summary.CompareRecords)
	got := slices.Concat(ix.memPieces()...)
	slices.SortFunc(got, summary.CompareRecords)
	if !slices.Equal(got, want) {
		t.Fatalf("memtable holds %d records, not the %d inserted", len(got), len(want))
	}
	t.Logf("%d records in %d pieces", len(ix.mem), len(ix.memEnds))
}

// TestMemtableInsertBytes bounds what an insert allocates besides the
// memtable's own array: the records a batch puts in the memtable are sorted
// where they land, and merging two pieces copies only the shorter one.
func TestMemtableInsertBytes(t *testing.T) {
	const m = 1 << 14
	rng := rand.New(rand.NewSource(3))
	ix := &Index{opt: Options{MemBudgetBytes: m * summary.RecordSize}}
	fill := randomRecs(rng, 0, m-1)
	if err := ix.InsertRecords(fill); err != nil {
		t.Fatal(err)
	}
	// As a flush leaves it: empty, its array kept.
	ix.mem, ix.memEnds = ix.mem[:0], ix.memEnds[:0]
	allocated := func(recs []summary.Record) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := ix.InsertRecords(recs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The first ReadMemStats pair can count the runtime's own allocations.
	allocated(nil)
	const slack = 16 << 10
	if got := allocated(fill[:1]); got > slack {
		t.Fatalf("one record into an empty memtable allocated %d bytes", got)
	}
	if got := allocated(fill[1:]); got > summary.RecordSize+slack {
		t.Fatalf("%d records onto a one-record memtable allocated %d bytes; want one record's copy", len(fill)-1, got)
	}
}

// BenchmarkInsertSmallBatches is the memtable's write path alone: batches of
// 1 and 10 records into a memtable of the public package's default budget
// (64 MiB, 2.8M records) that already holds 1M records, with no flush in
// the timed part. ns/op is per batch.
func BenchmarkInsertSmallBatches(b *testing.B) {
	const prefill = 1 << 20
	for _, batch := range []int{1, 10} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			fill := randomRecs(rng, 0, prefill)
			fresh := func() *Index {
				ix := &Index{opt: Options{MemBudgetBytes: 64 << 20}}
				if err := ix.InsertRecords(fill); err != nil {
					b.Fatal(err)
				}
				return ix
			}
			ix := fresh()
			batches := make([][]summary.Record, 1024)
			for i := range batches {
				batches[i] = randomRecs(rng, prefill+int64(i*batch), batch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(ix.mem)+batch >= ix.memCapacity() {
					b.StopTimer()
					ix = fresh()
					b.StartTimer()
				}
				if err := ix.InsertRecords(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
