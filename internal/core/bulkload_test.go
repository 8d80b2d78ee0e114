package core

// Tests of the bulk load's two byte-level contracts: the Coconut-Tree leaf
// file is the sorted record run and nothing else (no page padding, no
// per-leaf header), and a build reads the raw dataset exactly once (the CRC sidecar comes out of the summarization
// pass, byte-identical to storage.BuildRecordSums).

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// writeRaw stores data as the raw dataset file "raw", followed by torn stray
// bytes (a partial trailing record).
func writeRaw(t *testing.T, fs storage.FS, data []series.Series, torn int) {
	t.Helper()
	var enc []byte
	for _, s := range data {
		enc = series.AppendEncode(enc, s)
	}
	enc = append(enc, bytes.Repeat([]byte{0x5a}, torn)...)
	if err := storage.WriteFileAll(fs, "raw", enc); err != nil {
		t.Fatal(err)
	}
}

// sortedStream is the reference leaf file: every series' (key, position[,
// raw]) record, ordered by key with ties on the full record bytes.
func sortedStream(t *testing.T, s *summary.Summarizer, data []series.Series, materialized bool) []byte {
	t.Helper()
	recs := make([][]byte, len(data))
	for i, d := range data {
		key, err := s.KeyOf(d)
		if err != nil {
			t.Fatal(err)
		}
		rec := binary.LittleEndian.AppendUint64(append([]byte(nil), key[:]...), uint64(i))
		if materialized {
			rec = series.AppendEncode(rec, d)
		}
		recs[i] = rec
	}
	slices.SortFunc(recs, bytes.Compare)
	return bytes.Join(recs, nil)
}

// logicalBytes reads a checksummed block file's logical content.
func logicalBytes(t *testing.T, fs storage.FS, name string) []byte {
	t.Helper()
	inner, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	cf, err := storage.OpenChecksumFile(inner)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := cf.Size()
	buf := make([]byte, size)
	if size > 0 {
		if n, err := cf.ReadAt(buf, 0); int64(n) != size {
			t.Fatalf("read %s: %d of %d bytes: %v", name, n, size, err)
		}
	}
	return buf
}

// treeShape is everything OpenTree must reproduce.
type treeShape struct {
	rows      []uint8
	positions []int64
}

func shapeOf(ix *TreeIndex) treeShape {
	return treeShape{rows: ix.sims.col.Syms, positions: ix.sims.positions}
}

func (a treeShape) equal(b treeShape) bool {
	return slices.Equal(a.rows, b.rows) && slices.Equal(a.positions, b.positions)
}

// TestTreeLeafFileIsTheSortedRun: at every worker count, sort budget (one
// that spills several runs and one that sorts the input in memory) and
// materialization, on a random walk, an empty and a one-record dataset, one
// of identical keys, and runs of exactly two leaves' records and of one
// record more, the tree's leaf file is the sorted record stream and nothing
// else, its leaves are its checksum blocks, all full but the last, and
// OpenTree reproduces the build's summary array.
func TestTreeLeafFileIsTheSortedRun(t *testing.T) {
	walk := dataset.Generate(dataset.NewRandomWalk(), tCount, tLen, 42)
	equal := make([]series.Series, 40)
	for i := range equal {
		equal[i] = walk[7]
	}
	fixed := func(data []series.Series) func(int) []series.Series {
		return func(int) []series.Series { return data }
	}
	// Each dataset is a function of the records one leaf holds, so the
	// block-boundary cases land on the boundary in both record layouts.
	datasets := []struct {
		name string
		data func(per int) []series.Series
	}{
		{"walk", fixed(walk)},
		{"empty", fixed(nil)},
		{"single", fixed(walk[:1])},
		{"all-equal-keys", fixed(equal)},
		{"two-full-leaves", func(per int) []series.Series { return walk[:2*per] }},
		{"two-full-leaves-plus-one", func(per int) []series.Series { return walk[:2*per+1] }},
	}
	s := tSummarizer(t)
	for _, d := range datasets {
		for _, mat := range []bool{false, true} {
			rs := (&Options{S: s, Materialized: mat}).recordSize()
			ds := struct {
				name string
				data []series.Series
			}{d.name, d.data(leafBlockSize(rs) / rs)}
			want := sortedStream(t, s, ds.data, mat)
			for _, budget := range []int64{16 << 10, 64 << 20} {
				name := fmt.Sprintf("%s/mat=%v/budget=%d", ds.name, mat, budget)
				t.Run(name, func(t *testing.T) {
					var fs *storage.MemFS
					var ix *loneTree
					opt := func(workers int) Options {
						o := baseOptions(t, fs, mat)
						// 16 KiB spills several runs, so a real merge writes
						// the leaves; 64 MiB sorts the input in memory.
						o.Workers, o.MemBudgetBytes = workers, budget
						return o
					}
					// Every worker count writes the same leaf file; the last
					// build (workers=8) stays open for the checks below.
					for _, workers := range []int{1, 2, 8} {
						ok := t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
							fs = storage.NewMemFS()
							writeRaw(t, fs, ds.data, 0)
							var err error
							if ix, err = buildTree(opt(workers)); err != nil {
								t.Fatal(err)
							}
							size := ix.SizeBytes()
							if workers != 8 {
								ix.Close()
							}
							if got := int64(len(ds.data)) * int64(ix.opt.recordSize()); size != got {
								t.Fatalf("logical leaf-file size %d, want Count*recordSize = %d", size, got)
							}
							if got := logicalBytes(t, fs, "cx.leaves"); !bytes.Equal(got, want) {
								t.Fatalf("leaf file (%d bytes) is not the sorted record stream (%d bytes)", len(got), len(want))
							}
							if names := fs.Names(); len(names) != 4 {
								t.Fatalf("build left %v, want raw, leaves, manifest and the sidecar only", names)
							}
						})
						if !ok {
							if workers == 8 && ix != nil {
								ix.Close()
							}
							return
						}
					}
					defer func() { ix.Close() }()

					per := leafBlockSize(ix.opt.recordSize()) / ix.opt.recordSize()
					sh := ix.Shape()
					if want := (len(ds.data) + per - 1) / per; sh.Leaves != want {
						t.Fatalf("%d leaves, want %d checksum blocks of %d records", sh.Leaves, want, per)
					}
					if sh.Leaves > 0 {
						if want := float64(len(ds.data)) / float64(sh.Leaves*per); sh.LeafFill != want {
							t.Fatalf("LeafFill = %v, want occupancy %v", sh.LeafFill, want)
						}
					}
					// On disk, each leaf is one checksum block: a CRC and
					// per records, the last block holding the rest.
					inner, err := fs.Open("cx.leaves")
					if err != nil {
						t.Fatal(err)
					}
					cf, err := storage.OpenChecksumFile(inner)
					if err != nil {
						inner.Close()
						t.Fatal(err)
					}
					bs := cf.BlockSize()
					inner.Close()
					if bs != leafBlockSize(ix.opt.recordSize()) {
						t.Fatalf("checksum block of %d bytes, want one leaf of %d", bs, leafBlockSize(ix.opt.recordSize()))
					}
					if phys, want := fs.FileSize("cx.leaves"), storage.ChecksumHeaderSize+int64(sh.Leaves)*4+int64(len(ds.data)*ix.opt.recordSize()); phys != want {
						t.Fatalf("leaf file is %d bytes on disk, want header, %d block CRCs and the records = %d", phys, sh.Leaves, want)
					}

					built := shapeOf(ix.TreeIndex)
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}
					re, err := openTree(opt(1))
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					ix = re
					if !built.equal(shapeOf(re.TreeIndex)) {
						t.Fatal("OpenTree did not reproduce the build-time keys and positions")
					}
				})
			}
		}
	}
}

// readLog is a file that logs the extent of every ReadAt made through it.
type readLog struct {
	storage.File
	reads [][2]int64 // offset, length
}

func (f *readLog) ReadAt(p []byte, off int64) (int, error) {
	f.reads = append(f.reads, [2]int64{off, int64(len(p))})
	return f.File.ReadAt(p, off)
}

// blockBytes is what reading the n bytes at off of a leaf run costs on the
// device: every checksum block they touch, with its CRC.
func blockBytes(off, n, block int64) int64 {
	return ((off+n-1)/block - off/block + 1) * (block + 4)
}

// TestFullCandidateRunReadsOnlyItsBlocks fails if page padding or a
// leaf-sized read unit ever comes back: a materialized exact search reads
// its candidates from the leaf run as the raw-file scan does, one read per
// run of adjacent candidates (at most rawRunCap records, starting at a
// record the search visits), and each read costs only the checksum blocks
// its records touch.
func TestFullCandidateRunReadsOnlyItsBlocks(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, true)
	opt.QueryWorkers = 1
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	log := &readLog{File: ix.file}
	ix.file = log
	recSize := int64(opt.recordSize())
	block := int64(leafBlockSize(opt.recordSize()))
	var visited int64
	for _, q := range dataset.Queries(dataset.NewRandomWalk(), 5, tLen, 13) {
		seed, _, err := approxKNN(context.Background(), ix.TreeIndex, q, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var bound shard.BSF
		bound.Init(seed[0].Dist)
		log.reads = nil
		before := fs.Stats().Snapshot()
		_, res, err := ix.ExactVerify(context.Background(), q, 1, seed, &bound)
		if err != nil {
			t.Fatal(err)
		}
		got := fs.Stats().Snapshot().Sub(before).BytesRead
		var want int64
		for _, r := range log.reads {
			if r[0]%recSize != 0 || r[1]%recSize != 0 || r[1]/recSize > rawRunCap {
				t.Fatalf("read of %d bytes at %d is not a run of at most %d records", r[1], r[0], rawRunCap)
			}
			want += blockBytes(r[0], r[1], block)
		}
		if int64(len(log.reads)) > res.VisitedRecords || got > want {
			t.Fatalf("exact search visiting %d records made %d reads of %d bytes, want at most one a visit and %d bytes (their blocks)",
				res.VisitedRecords, len(log.reads), got, want)
		}
		visited += res.VisitedRecords
	}
	if visited == 0 {
		t.Fatal("no exact search visited a record: the bound checks nothing")
	}
}

// TestFullApproxReadsOnlyVisitedBlocks: a materialized approximate search
// reads each record it visits, and nothing else, from its leaf run — the
// checksum block holding the record.
func TestFullApproxReadsOnlyVisitedBlocks(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, true)
	opt.QueryWorkers = 1
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	block := int64(leafBlockSize(opt.recordSize()))
	for _, radius := range []int{0, 1, 4} {
		for _, q := range dataset.Queries(dataset.NewRandomWalk(), 5, tLen, 13) {
			before := fs.Stats().Snapshot()
			res, err := ix.ApproxSearch(context.Background(), q, radius)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fs.Stats().Snapshot().Sub(before).BytesRead, res.VisitedRecords*(block+4); got > want {
				t.Fatalf("radius %d: approximate search visiting %d records read %d bytes, want at most %d (a checksum block each)",
					radius, res.VisitedRecords, got, want)
			}
		}
	}
}

// TestBuildReadsRawOnce: a tree build, at any worker count, writes the
// sidecar storage.BuildRecordSums would and reads the raw file once — its
// reads stay within 5% of the raw size plus what the sort and the bulk
// loader read back of their own temporaries. A materialized (-Full) build
// reads it once more and no more: the sort carries keys and positions only,
// and the leaf writer fetches each record's series by position. A torn trailing
// partial record is not part of the dataset, and a stale sidecar from a
// longer dataset is replaced.
func TestBuildReadsRawOnce(t *testing.T) {
	data := dataset.Generate(dataset.NewRandomWalk(), tCount, tLen, 42)
	rawSize := int64(len(data) * series.EncodedSize(tLen))
	// whole checks that ix holds exactly the whole records of data: stray
	// bytes after them are in no count and behind no answer.
	whole := func(t *testing.T, ix *loneTree) {
		t.Helper()
		if ix.Count() != int64(len(data)) {
			t.Fatalf("Count = %d, want the %d whole records", ix.Count(), len(data))
		}
		last := len(data) - 1
		if r, err := ix.ExactSearch(context.Background(), data[last], 0); err != nil || r.Pos != int64(last) || r.Dist != 0 {
			t.Fatalf("exact search for the last whole record: %+v, %v", r, err)
		}
	}
	for _, variant := range []struct {
		name string
		mat  bool
	}{{"tree", false}, {"tree-full", true}} {
		for _, workers := range []int{1, 2, 8} {
			for _, tc := range []struct {
				name        string
				torn, stale int
			}{{"clean", 0, 0}, {"torn-tail", 11, 0}, {"stale-sidecar", 0, tCount + 30}} {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", variant.name, workers, tc.name), func(t *testing.T) {
					fs := storage.NewMemFS()
					if tc.stale > 0 {
						writeRaw(t, fs, dataset.Generate(dataset.NewRandomWalk(), tc.stale, tLen, 9), 0)
						if _, err := storage.BuildRecordSums(fs, "raw", series.EncodedSize(tLen)); err != nil {
							t.Fatal(err)
						}
					}
					writeRaw(t, fs, data, tc.torn)
					opt := baseOptions(t, fs, variant.mat)
					opt.Workers = workers
					before := fs.Stats().Snapshot()
					ix, err := buildTree(opt)
					if err != nil {
						t.Fatal(err)
					}
					io := fs.Stats().Snapshot().Sub(before)
					whole(t, ix)
					ix.Close()
					// Own temporaries: the sort's runs are read once by its
					// merge, and the tree reads the sorted file once more.
					temporaries := 2 * int64(len(data)) * summary.RecordSize
					passes := int64(1)
					if variant.mat {
						passes = 2
					}
					if limit := passes*rawSize + rawSize/20 + temporaries; io.BytesRead > limit {
						t.Fatalf("build read %d bytes of a %d-byte dataset, want at most %d (%d passes)", io.BytesRead, rawSize, limit, passes)
					}
					fused, err := storage.ReadFileAll(fs, storage.RecordSumsName("raw"))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := storage.BuildRecordSums(fs, "raw", series.EncodedSize(tLen)); err != nil {
						t.Fatal(err)
					}
					want, _ := storage.ReadFileAll(fs, storage.RecordSumsName("raw"))
					if !bytes.Equal(fused, want) {
						t.Fatalf("build's sidecar (%d bytes) differs from BuildRecordSums's (%d bytes)", len(fused), len(want))
					}
					re, err := openTree(opt)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					whole(t, re)
					re.Close()
				})
			}
		}
	}
}
