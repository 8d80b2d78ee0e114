package extsort

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/summary"
)

// checkChunkSort sorts a copy of recs with sortRecords and fails unless it
// equals slices.SortFunc under summary.CompareRecords.
func checkChunkSort(t *testing.T, name string, recs []summary.Record) {
	t.Helper()
	got, want := slices.Clone(recs), slices.Clone(recs)
	sortRecords(got)
	slices.SortFunc(want, summary.CompareRecords)
	if !slices.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("%s (%d records): record %d is %v@%d, slices.SortFunc has %v@%d", name, len(recs), i, got[i].Key, got[i].Pos, want[i].Key, want[i].Pos)
	}
}

// TestChunkSortMatchesSortFunc: the chunk sort is exactly slices.SortFunc
// under the record order — on no records and one, at and around the size
// where buckets go to SortFunc, on keys that all share their leading bytes
// (one bucket at every level the sort partitions on), and on equal keys,
// where the position's little-endian bytes, reversed, break the tie (256
// sorts before 1, unlike the integers).
func TestChunkSortMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	random := func(n, shared int) []summary.Record {
		recs := make([]summary.Record, n)
		for i := range recs {
			rng.Read(recs[i].Key[shared:])
			recs[i].Pos = int64(i)
		}
		return recs
	}
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 2*radixCutoff + 1, 257, 5000, 40000} {
		for _, shared := range []int{0, 1, 2, 15, summary.KeySize} {
			checkChunkSort(t, fmt.Sprintf("random keys, first %d bytes shared", shared), random(n, shared))
		}
		// A few distinct keys, most records tied on one, positions twinned
		// 256 apart.
		checkChunkSort(t, "tied keys", makeRecords(rng, n))
	}
	// Equal keys at positions 1 and 256, as one bucket and beyond the cutoff.
	for _, n := range []int{2, radixCutoff + 1, 1000} {
		recs := make([]summary.Record, n)
		for i := range recs {
			recs[i].Key[0] = 7
			recs[i].Pos = int64(1 + (i%2)*255 + (i/2)*65536)
		}
		rng.Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		checkChunkSort(t, "positions 1 and 256 on one key", recs)
		if n == 2 {
			sortRecords(recs)
			if recs[0].Pos != 256 {
				t.Fatalf("equal keys at positions 1 and 256 sort as %d, %d; the record order puts 256 first", recs[0].Pos, recs[1].Pos)
			}
		}
	}
	// The keys a bulk load sorts: random walks, summarized.
	checkChunkSort(t, "random-walk keys", walkRecords(20000))
}

// FuzzChunkSort: on any records — their keys and positions the fuzzer's
// bytes, with the first prefix key bytes cleared (so every record falls in
// one bucket of the leading levels) and repeated copies times at positions
// 256 apart (equal keys tie-broken by position) — the chunk sort equals
// slices.SortFunc under the record order.
func FuzzChunkSort(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(make([]byte, summary.RecordSize), uint8(0), uint8(radixCutoff))
	f.Add(encodeAll(makeRecords(rand.New(rand.NewSource(62)), 100)), uint8(14), uint8(1))
	f.Add(encodeAll(walkRecords(300)), uint8(0), uint8(0))
	f.Add(encodeAll(walkRecords(50)), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, prefix, copies uint8) {
		base := make([]summary.Record, len(raw)/summary.RecordSize)
		for i := range base {
			base[i] = summary.DecodeRecord(raw[i*summary.RecordSize:])
			clear(base[i].Key[:int(prefix)%(summary.KeySize+1)])
		}
		recs := slices.Clone(base)
		for c := range int(copies) % 100 {
			for _, r := range base {
				r.Pos += int64(c+1) << 8
				recs = append(recs, r)
			}
		}
		checkChunkSort(t, "fuzzed records", recs)
	})
}

// walks holds the records of the random walks summarized so far.
var walks struct {
	sync.Mutex
	s    *summary.Summarizer
	rng  *rand.Rand
	recs []summary.Record
}

// walkRecords returns the records the summarization pass emits for n
// z-normalized random walks of 256 points, in file order; every call
// returns a prefix of the same walks.
func walkRecords(n int) []summary.Record {
	walks.Lock()
	defer walks.Unlock()
	if walks.s == nil {
		var err error
		if walks.s, err = summary.NewSummarizer(summary.DefaultParams(256)); err != nil {
			panic(err)
		}
		walks.rng = rand.New(rand.NewSource(63))
	}
	ser := make(series.Series, 256)
	enc := make([]byte, series.EncodedSize(256))
	for i := len(walks.recs); i < n; i++ {
		dataset.NewRandomWalk().Generate(walks.rng, ser)
		series.Encode(enc, ser)
		walks.recs = append(walks.recs, summary.Record{Key: walks.s.KeyOfEncoded(enc), Pos: int64(i)})
	}
	return slices.Clone(walks.recs[:n])
}

// BenchmarkChunkSort sorts the records of n random walks, in file order as
// the summarization pass emits them, with the chunk sort (radix) and with
// slices.SortFunc under the record order (sortfunc): at the end-to-end
// benchmark's 60k series, and at 500k and 1M.
func BenchmarkChunkSort(b *testing.B) {
	for _, n := range []int{60_000, 500_000, 1_000_000} {
		for _, alg := range []struct {
			name string
			sort func([]summary.Record)
		}{
			{"radix", sortRecords},
			{"sortfunc", func(r []summary.Record) { slices.SortFunc(r, summary.CompareRecords) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, alg.name), func(b *testing.B) {
				recs, work := walkRecords(n), make([]summary.Record, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(work, recs)
					b.StartTimer()
					alg.sort(work)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
			})
		}
	}
}
