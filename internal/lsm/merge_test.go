package lsm

// Tests for the one run merge of flush and compaction: the record order it
// merges under, and what a compaction reads — its inputs' own blocks, CRC
// checked, never the shared cache.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// runRecords returns every record of r in file order.
func runRecords(t *testing.T, r *run) []summary.Record {
	t.Helper()
	var out []summary.Record
	err := r.rb.Range(0, r.count, func(k summary.Key, pos int64) error {
		out = append(out, summary.Record{Key: k, Pos: pos})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tierRuns returns the runs of tier tier, oldest first.
func tierRuns(ix *Index, tier int) []*run {
	var rs []*run
	for _, r := range ix.runs {
		if r.tier == tier {
			rs = append(rs, r)
		}
	}
	return rs
}

// TestMergeRecordOrder: flush and compaction merge under
// summary.CompareRecords, which breaks a key tie on the position's
// little-endian bytes — 256 (00 01 …) before 1 (01 00 …), the reverse of
// the integers. Records of one key at such positions are spread over three
// memtable pieces at every flush and over the four runs a compaction merges,
// and every flushed run and the compacted one must be the reference sort of
// its records.
func TestMergeRecordOrder(t *testing.T) {
	ix, _, _ := buildFixture(t, 16*summary.RecordSize) // a 16-record memtable
	defer ix.Close()
	rng := rand.New(rand.NewSource(17))
	var tie summary.Key
	rng.Read(tie[:])
	// Positions 1, 257, 2, 258, …: each low one's twin 256 above it sorts
	// first under the record order and second as an integer.
	var recs []summary.Record
	for j := 0; j < fanout*16; j++ {
		rec := summary.Record{Key: tie, Pos: int64(1 + j/2 + 256*(j%2))}
		if j%5 == 0 {
			rng.Read(rec.Key[:])
		}
		recs = append(recs, rec)
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	// The reference is bytes.Compare on the encoded records.
	enc := func(r summary.Record) []byte {
		return binary.LittleEndian.AppendUint64(append([]byte(nil), r.Key[:]...), uint64(r.Pos))
	}
	sorted := func(recs []summary.Record) []summary.Record {
		out := slices.Clone(recs)
		slices.SortFunc(out, func(a, b summary.Record) int { return bytes.Compare(enc(a), enc(b)) })
		return out
	}
	if ref := sorted(recs); slices.IsSortedFunc(ref, func(a, b summary.Record) int {
		if c := a.Key.Compare(b.Key); c != 0 {
			return c
		}
		return int(a.Pos - b.Pos)
	}) {
		t.Fatal("the records order the same by integer positions: the test would not tell the orders apart")
	}
	for f := 0; f < fanout; f++ {
		flush := recs[f*16 : (f+1)*16]
		// Pieces of 12, 3 and 1 records: none is at most twice as long as the
		// next, so the flush the last one triggers merges all three.
		for i, cut := range [][2]int{{0, 12}, {12, 15}, {15, 16}} {
			if err := ix.InsertRecords(flush[cut[0]:cut[1]]); err != nil {
				t.Fatal(err)
			}
			if cut[1] < 16 && len(ix.memEnds) != i+1 {
				t.Fatalf("flush %d: %d memtable pieces after %d records, want %d", f, len(ix.memEnds), cut[1], i+1)
			}
		}
		if f == fanout-1 {
			break // the fourth flush made a group, which compacted inline
		}
		rs := tierRuns(ix.Index, 0)
		if len(rs) != f+1 {
			t.Fatalf("flush %d: %d tier-0 runs, want %d", f, len(rs), f+1)
		}
		if got := runRecords(t, rs[f]); !slices.Equal(got, sorted(flush)) {
			t.Fatalf("flush %d: the run is not the reference sort of its records", f)
		}
	}
	rs := tierRuns(ix.Index, 1)
	if len(rs) != 1 || len(tierRuns(ix.Index, 0)) != 0 {
		t.Fatalf("after %d flushes: %d tier-1 runs and %d tier-0, want one compacted run", fanout, len(rs), len(tierRuns(ix.Index, 0)))
	}
	if got := runRecords(t, rs[0]); !slices.Equal(got, sorted(recs)) {
		t.Fatal("the compacted run is not the reference sort of its inputs' union")
	}
}

// TestCompactionRottedInputFailsTyped: a compaction whose input run rotted
// after it was opened — its blocks resident in nobody's hands but the file's
// — fails with ErrCorruptData, because every input block is CRC checked as
// the merge decodes it; it leaves no output, and its inputs stay in place.
func TestCompactionRottedInputFailsTyped(t *testing.T) {
	ix, fs := buildFaultable(t)
	defer ix.Close()
	stream := dataset.Generate(dataset.NewRandomWalk(), fanout*16, tLen, 3)
	if err := ix.Insert(context.Background(), stream[:(fanout-1)*16]); err != nil {
		t.Fatal(err)
	}
	inputs := tierRuns(ix.Index, 0)
	if len(inputs) != fanout-1 {
		t.Fatalf("%d tier-0 runs, want %d", len(inputs), fanout-1)
	}
	// Past the 16-byte codec header and the 8-byte block head, inside the
	// payload only the block CRC covers.
	rotFile(t, fs, inputs[1].name, 16+8+2)
	if err := ix.Insert(context.Background(), stream[(fanout-1)*16:]); err != nil {
		t.Fatalf("Insert failed on a compaction error: %v", err)
	}
	if err := ix.Flush(); !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("Flush over a rotted compaction input: %v, want ErrCorruptData", err)
	}
	for _, name := range fs.Names() {
		if strings.Contains(name, ".cmp.") {
			t.Fatalf("a failed compaction left %q", name)
		}
	}
	inputs = tierRuns(ix.Index, 0)
	if len(inputs) != fanout {
		t.Fatalf("%d tier-0 runs after the failed compaction, want its %d inputs", len(inputs), fanout)
	}
	for _, r := range inputs {
		if !fs.Exists(r.name) {
			t.Fatalf("input run %q removed by a failed compaction", r.name)
		}
	}
}

// TestCompactionBypassesCache: a compaction reads its inputs through readers
// of its own, so the shared block cache's counters — hits, misses,
// evictions, scan decodes, resident bytes — are the same after it as
// before, even with the inputs' blocks resident.
func TestCompactionBypassesCache(t *testing.T) {
	ix, fs := buildFaultable(t)
	defer ix.Close()
	failMerges(fs) // leave the group ready instead of merging it inline
	stream := dataset.Generate(dataset.NewRandomWalk(), fanout*16, tLen, 5)
	if err := ix.Insert(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	fs.SetFault(nil)
	for _, q := range stream[:8] {
		if _, err := ix.approxSq(context.Background(), q, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.ExactSearch(context.Background(), q, 0); err != nil {
			t.Fatal(err)
		}
	}
	group := ix.findGroupLocked()
	if len(group) != fanout {
		t.Fatalf("no ready group: %d runs", len(group))
	}
	before := ix.CacheStats()
	if before.Bytes == 0 {
		t.Fatal("no block resident: the test would not tell a cached read apart")
	}
	out, err := ix.runCompaction(group)
	if err != nil {
		t.Fatal(err)
	}
	defer out.rb.Close()
	if after := ix.CacheStats(); after != before {
		t.Fatalf("a compaction moved the cache's counters: %+v before, %+v after", before, after)
	}
}
