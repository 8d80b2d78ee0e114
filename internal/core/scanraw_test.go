package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// The tests in this file hold the coalescing raw-candidate scanner to the
// per-record scan it replaced: same answer, same visit count, one read per
// run of file-adjacent candidates, and no distance from bytes that failed a
// check.

// refVerifyRaw is that per-record scan, serial, for the nearest candidate:
// every candidate at or under the running bound costs one read, one CRC, one
// decode and one distance, and a distance tie goes to the lower position —
// the earlier one in the position order the scan runs in.
func refVerifyRaw(t *testing.T, f storage.File, sums *storage.RecordSums, q series.Series, cands []summary.Cand, seedPos int64, seedDist float64) (pos int64, dist float64, visited int64) {
	t.Helper()
	cands = slices.Clone(cands)
	slices.SortFunc(cands, func(a, b summary.Cand) int { return int(a.ID - b.ID) })
	pos, dist = seedPos, seedDist
	buf, x := make([]byte, series.EncodedSize(len(q))), make(series.Series, len(q))
	var fault error
	st := RawStore(f, sums, len(q))
	raw := storage.PinViews(f)
	defer raw.Release(&fault)
	for _, c := range cands {
		if c.LB > dist {
			continue
		}
		enc, err := st.Fetch(raw, c.ID, buf)
		if err != nil {
			t.Fatal(err)
		}
		series.DecodeInto(enc, x)
		visited++
		if sq, ok := series.SquaredEDEarlyAbandon(q, x, dist); ok && sq < dist {
			dist, pos = sq, c.ID
		}
	}
	return pos, dist, visited
}

// verify1 runs VerifyRaw for the nearest candidate from an empty seed and
// an unset shared bound: (-1, +Inf) when it measured none.
func verify1(f storage.File, sums *storage.RecordSums, q series.Series, cands []summary.Cand, workers int) (pos int64, dist float64, visited int64, err error) {
	var bound shard.BSF
	bound.Init(math.Inf(1))
	top := shard.NewKNNHeap(1)
	visited, err = VerifyRaw(context.Background(), RawStore(f, sums, len(q)), q, cands, top, &bound, workers)
	pos, dist = -1, math.Inf(1)
	if ns := top.Sorted(); len(ns) > 0 {
		pos, dist = ns[0].Pos, ns[0].Dist
	}
	return pos, dist, visited, err
}

// runsOf counts the reads the scanner owes positions (ascending) when every
// candidate is measured: one per run of adjacent positions, cut at rawRunCap
// and at the shard boundaries of workers.
func runsOf(positions []int64, workers int) (runs int64) {
	for _, r := range shard.Split(len(positions), workers) {
		for i := r.Lo; i < r.Hi; {
			n := 1
			for n < rawRunCap && i+n < r.Hi && positions[i+n] == positions[i]+int64(n) {
				n++
			}
			runs++
			i += n
		}
	}
	return runs
}

func span(lo, hi int64) (out []int64) {
	for p := lo; p < hi; p++ {
		out = append(out, p)
	}
	return out
}

type scanFixture struct {
	fs   *storage.MemFS
	data []series.Series
	raw  storage.File
	sums *storage.RecordSums
	q    series.Series
}

func newScanFixture(t *testing.T) *scanFixture {
	t.Helper()
	fs, data := fixtureFS(t)
	raw, err := fs.Open("raw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	sums, err := storage.BuildRecordSums(fs, "raw", series.EncodedSize(tLen))
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t)
	for i := range q {
		q[i] += 0.25 // near data[0], at distance 0 from nothing
	}
	return &scanFixture{fs: fs, data: data, raw: raw, sums: sums, q: q}
}

// cands gives every position a valid lower bound: scale times its true
// squared distance (0 prunes nothing, so every candidate is measured).
func (fx *scanFixture) cands(positions []int64, scale float64) []summary.Cand {
	out := make([]summary.Cand, len(positions))
	for i, p := range positions {
		sq, _ := series.SquaredED(fx.q, fx.data[p])
		out[i] = summary.Cand{ID: p, LB: scale * sq}
	}
	return out
}

func TestScanRawMatchesPerRecordScan(t *testing.T) {
	fx := newScanFixture(t)
	recSize := int64(series.EncodedSize(tLen))
	var scattered []int64
	for p := int64(1); p < tCount; p += 3 {
		scattered = append(scattered, p)
	}
	mixed := slices.Concat(span(3, 5), []int64{9}, span(40, 75), []int64{100, 102}, span(300, 316), span(316, 320))
	cases := []struct {
		name      string
		positions []int64
	}{
		{"no adjacency", scattered},
		{"all adjacent", span(0, tCount)},
		{"run longer than the cap", span(200, 200+3*rawRunCap+5)},
		{"run ending at EOF", span(tCount-rawRunCap-3, tCount)},
		{"mixed", mixed},
		{"single", []int64{17}},
		{"empty", nil},
	}
	for _, tc := range cases {
		for _, scale := range []float64{0, 0.5} {
			cands := fx.cands(tc.positions, scale)
			wantPos, wantDist, wantVisited := refVerifyRaw(t, fx.raw, fx.sums, fx.q, cands, -1, math.Inf(1))
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/lb*%v/workers=%d", tc.name, scale, workers)
				before := fx.fs.Stats().Snapshot()
				pos, dist, visited, err := verify1(fx.raw, fx.sums, fx.q, slices.Clone(cands), workers)
				io := fx.fs.Stats().Snapshot().Sub(before)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if pos != wantPos || dist != wantDist {
					t.Fatalf("%s: (%d, %v), per-record scan (%d, %v)", name, pos, dist, wantPos, wantDist)
				}
				// Shards prune each other only when bounds can prune at all.
				if (workers == 1 || scale == 0) && visited != wantVisited {
					t.Fatalf("%s: visited %d, per-record scan %d", name, visited, wantVisited)
				}
				if scale != 0 {
					continue
				}
				if reads, want := io.RandReads+io.SeqReads, runsOf(tc.positions, workers); reads != want {
					t.Fatalf("%s: %d reads for %d runs", name, reads, want)
				}
				if io.BytesRead != visited*recSize {
					t.Fatalf("%s: %d bytes read for %d visited records of %d bytes", name, io.BytesRead, visited, recSize)
				}
			}
		}
	}
}

// A bound improvement in the middle of a run skips the rest of the run
// exactly as the per-record scan skipped them: fetched, but not measured,
// not checked and not counted.
func TestScanRawPruneInsideRun(t *testing.T) {
	fx := newScanFixture(t)
	positions := span(100, 110)
	fx.q = fx.data[104].Clone() // distance 0 at the fifth record of the run
	cands := fx.cands(positions, 0)
	for i := 5; i < len(cands); i++ {
		cands[i].LB = 1
	}
	wantPos, wantDist, wantVisited := refVerifyRaw(t, fx.raw, fx.sums, fx.q, cands, -1, math.Inf(1))
	if wantPos != 104 || wantDist != 0 || wantVisited != 5 {
		t.Fatalf("reference scan: (%d, %v) after %d", wantPos, wantDist, wantVisited)
	}
	// Rot in a record the improvement prunes goes unnoticed, as it did when
	// that record was never read.
	ffs := storage.NewFaultFS(fx.fs)
	if err := ffs.Rot("raw", 107*int64(series.EncodedSize(tLen)), 8); err != nil {
		t.Fatal(err)
	}
	before := fx.fs.Stats().Snapshot()
	pos, dist, visited, err := verify1(fx.raw, fx.sums, fx.q, cands, 1)
	io := fx.fs.Stats().Snapshot().Sub(before)
	if err != nil || pos != wantPos || dist != wantDist || visited != wantVisited {
		t.Fatalf("(%d, %v) after %d, err %v; per-record scan (%d, %v) after %d", pos, dist, visited, err, wantPos, wantDist, wantVisited)
	}
	if io.RandReads+io.SeqReads != 1 || io.BytesRead != int64(len(positions)*series.EncodedSize(tLen)) {
		t.Fatalf("one run of %d records read as %v", len(positions), io)
	}
}

// Over FaultFS: rot in the k-th record of a coalesced run is an
// ErrCorruptData naming that record, a short read is an error, and neither
// yields a distance.
func TestScanRawDetectsRotAndShortReads(t *testing.T) {
	recSize := int64(series.EncodedSize(tLen))
	for _, k := range []int64{0, 7, rawRunCap - 1, rawRunCap + 2} {
		fx := newScanFixture(t)
		ffs := storage.NewFaultFS(fx.fs)
		first := int64(50)
		if err := ffs.Rot("raw", (first+k)*recSize+11, 1); err != nil {
			t.Fatal(err)
		}
		_, _, visited, err := verify1(fx.raw, fx.sums, fx.q, fx.cands(span(first, first+2*rawRunCap), 0), 1)
		if !errors.Is(err, storage.ErrCorruptData) || !strings.Contains(err.Error(), fmt.Sprintf("raw series %d:", first+k)) {
			t.Fatalf("rot in record %d of the run: %v", k, err)
		}
		if visited != k {
			t.Fatalf("rot in record %d of the run: %d records measured", k, visited)
		}
	}
	fx := newScanFixture(t)
	if err := fx.raw.Truncate(tCount*recSize - recSize/2); err != nil {
		t.Fatal(err)
	}
	pos, _, visited, err := verify1(fx.raw, fx.sums, fx.q, fx.cands(span(tCount-4, tCount), 0), 1)
	if err == nil || pos != -1 || visited != 0 {
		t.Fatalf("short read of the last run: pos %d after %d, err %v", pos, visited, err)
	}
}

// BenchmarkScanRaw measures the verification scan alone on a real file: the
// 13% of a skewed dataset nearest the query — the survival share of the
// benchmark's small-cache workload, and clustered in the file the same way —
// verified in position order under the tightening bound, with the raw file
// serving views and with that capability hidden (the ReadAt path, which is
// all bench/e2e's traced runs can measure).
func BenchmarkScanRaw(b *testing.B) {
	const (
		n         = 8192
		seriesLen = 256
		survivors = n * 13 / 100
	)
	fs, err := storage.NewOSFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	gen := dataset.NewSkewed()
	if _, err := dataset.WriteFile(fs, "raw", gen, n, seriesLen, 5); err != nil {
		b.Fatal(err)
	}
	sums, err := storage.BuildRecordSums(fs, "raw", series.EncodedSize(seriesLen))
	if err != nil {
		b.Fatal(err)
	}
	data, err := storage.ReadFileAll(fs, "raw")
	if err != nil {
		b.Fatal(err)
	}
	q := dataset.Queries(gen, 1, seriesLen, 6)[0]
	cands := make([]summary.Cand, n)
	for i := range cands {
		sq, _ := series.SquaredEDEarlyAbandonEncoded(q, data[i*len(data)/n:(i+1)*len(data)/n], math.Inf(1))
		cands[i] = summary.Cand{ID: int64(i), LB: sq}
	}
	slices.SortFunc(cands, func(a, b summary.Cand) int { return cmp.Compare(a.LB, b.LB) })
	cands = cands[:survivors]
	for i := range cands {
		cands[i].LB = 0 // a bound that prunes nothing: every survivor is visited
	}
	for _, mode := range []string{"views", "readat"} {
		b.Run(mode, func(b *testing.B) {
			raw, err := fs.Open("raw")
			if err != nil {
				b.Fatal(err)
			}
			defer raw.Close()
			if mode == "readat" {
				raw = struct{ storage.File }{raw}
			}
			scratch := make([]summary.Cand, survivors)
			before := fs.Stats().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch, cands)
				if _, _, visited, err := verify1(raw, sums, q, scratch, 1); err != nil || visited != survivors {
					b.Fatalf("visited %d, err %v", visited, err)
				}
			}
			io := fs.Stats().Snapshot().Sub(before)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*survivors), "ns/cand")
			b.ReportMetric(float64(io.RandReads+io.SeqReads)/float64(b.N*survivors), "reads/cand")
		})
	}
}
