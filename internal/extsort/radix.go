package extsort

import (
	"slices"

	"github.com/coconut-db/coconut/internal/summary"
)

// radixCutoff is the length at or below which sortRecords hands a bucket to
// slices.SortFunc instead of partitioning it on its next key byte.
const radixCutoff = 64

// sortRecords sorts recs in place under the record order
// (summary.CompareRecords): an in-place MSD radix sort on the key's bytes
// (American flag sort), with slices.SortFunc within every bucket of at most
// radixCutoff records and among records whose keys are equal, where the
// position breaks the tie. It takes no memory beyond a few stack tables, so
// a chunk sorts within the budget it was read into.
func sortRecords(recs []summary.Record) { radixSort(recs, 0) }

// radixSort sorts recs, whose keys all share their first depth bytes.
func radixSort(recs []summary.Record, depth int) {
	var count [256]int
	for {
		if len(recs) <= radixCutoff || depth == summary.KeySize {
			slices.SortFunc(recs, summary.CompareRecords)
			return
		}
		count = [256]int{}
		for i := range recs {
			count[recs[i].Key[depth]]++
		}
		if count[recs[0].Key[depth]] < len(recs) {
			break
		}
		depth++ // one bucket holds them all: nothing to move at this byte
	}
	// next[b] is the first slot of bucket b not yet holding one of its own
	// records, end[b] the slot past the bucket.
	var next, end [256]int
	sum := 0
	for b, c := range count {
		next[b] = sum
		sum += c
		end[b] = sum
	}
	// Each cycle lifts the record out of bucket b's next slot, drops it
	// where its own bucket's next slot is, picks up what lay there, and so
	// on until a record of bucket b fills the lifted slot.
	for b := range 256 {
		for next[b] < end[b] {
			r := recs[next[b]]
			for d := r.Key[depth]; int(d) != b; d = r.Key[depth] {
				r, recs[next[d]] = recs[next[d]], r
				next[d]++
			}
			recs[next[b]] = r
			next[b]++
		}
	}
	lo := 0
	for _, hi := range end {
		if hi-lo > 1 {
			radixSort(recs[lo:hi], depth+1)
		}
		lo = hi
	}
}
