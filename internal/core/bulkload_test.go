package core

// Tests of the bulk load's two byte-level contracts: the Coconut-Trie leaf
// file is the sorted record run and nothing else (no page padding, no
// per-leaf header, directory derived at open), and a build reads the raw
// dataset exactly once (the CRC sidecar comes out of the summarization
// pass, byte-identical to storage.BuildRecordSums).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
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

// trieShape is everything OpenTrie must reproduce.
type trieShape struct {
	rows      []uint8
	positions []int64
	starts    []int
}

func shapeOf(ix *TrieIndex) trieShape {
	return trieShape{rows: ix.sims.col.Syms, positions: ix.sims.positions, starts: ix.starts}
}

func (a trieShape) equal(b trieShape) bool {
	return slices.Equal(a.rows, b.rows) && slices.Equal(a.positions, b.positions) && slices.Equal(a.starts, b.starts)
}

// checkTrieLeaves asserts the leaf-level trie invariant: the leaves tile
// the run, and each is a maximal prefix-aligned group — no record outside a
// leaf shares the common prefix of its records, a leaf holds more than
// LeafCap records only when its keys are all equal, and the records sharing
// the longest prefix a leaf shares with an outside record are more than
// LeafCap (else they would be one leaf), unless that prefix stops short of
// the root fan-out's first bit of every segment.
func checkTrieLeaves(t *testing.T, ix *TrieIndex) {
	t.Helper()
	col, p := ix.sims.col, ix.opt.S.Params()
	shared := func(a, b int) int { return summary.RowPrefixBits(col.Row(a), col.Row(b), p.CardBits) }
	starts := ix.starts
	if starts[0] != 0 || starts[len(starts)-1] != col.Len() {
		t.Fatalf("leaves cover records [%d, %d) of %d", starts[0], starts[len(starts)-1], col.Len())
	}
	for li := 0; li+1 < len(starts); li++ {
		lo, hi := starts[li], starts[li+1]
		if hi <= lo {
			t.Fatalf("leaf %d is empty", li)
		}
		common := shared(lo, hi-1)
		if hi-lo > ix.opt.LeafCap && common < p.Segments*p.CardBits {
			t.Fatalf("leaf %d holds %d distinct-key records, capacity %d", li, hi-lo, ix.opt.LeafCap)
		}
		outside := -1
		if lo > 0 {
			outside = shared(lo-1, lo)
		}
		if hi < col.Len() {
			outside = max(outside, shared(hi-1, hi))
		}
		if outside >= common {
			t.Fatalf("leaf %d: a record outside it shares its %d-bit prefix", li, common)
		}
		if outside < p.Segments {
			continue
		}
		group := hi - lo
		for i := lo - 1; i >= 0 && shared(i, lo) >= outside; i-- {
			group++
		}
		for i := hi; i < col.Len() && shared(lo, i) >= outside; i++ {
			group++
		}
		if group <= ix.opt.LeafCap {
			t.Fatalf("leaf %d is not maximal: the %d records sharing its %d-bit parent prefix fit one leaf", li, group, outside)
		}
	}
}

// digest condenses a leaf directory — its starts or its counts — for
// comparison with recorded values.
func digest(xs []int) string {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprintf(h, "%d,", x)
	}
	return fmt.Sprintf("%d:%016x", len(xs), h.Sum64())
}

// parentTrieStarts are the trie's leaf starts on the datasets of
// TestTrieLeafFileIsTheSortedRun by leaf capacity, as digest renders them,
// recorded from the trie built as a tree of trie.Node objects.
var parentTrieStarts = map[string]map[int]string{
	"walk":           {2: "468:9b75b8e2a485881e", 16: "160:ef91d460fdc995a8", 2000: "131:2c0f2585cd095344"},
	"empty":          {2: "0:cbf29ce484222325", 16: "0:cbf29ce484222325", 2000: "0:cbf29ce484222325"},
	"single":         {2: "1:07fbfc07b4bcf299", 16: "1:07fbfc07b4bcf299", 2000: "1:07fbfc07b4bcf299"},
	"all-equal-keys": {2: "1:07fbfc07b4bcf299", 16: "1:07fbfc07b4bcf299", 2000: "1:07fbfc07b4bcf299"},
}

func TestTrieLeafFileIsTheSortedRun(t *testing.T) {
	walk := dataset.Generate(dataset.NewRandomWalk(), tCount, tLen, 42)
	equal := make([]series.Series, 40)
	for i := range equal {
		equal[i] = walk[7]
	}
	datasets := []struct {
		name string
		data []series.Series
	}{{"walk", walk}, {"empty", nil}, {"single", walk[:1]}, {"all-equal-keys", equal}}
	s := tSummarizer(t)
	for _, ds := range datasets {
		for _, mat := range []bool{false, true} {
			want := sortedStream(t, s, ds.data, mat)
			for _, leafCap := range []int{2, 16, 2000} {
				name := fmt.Sprintf("%s/mat=%v/leafcap=%d", ds.name, mat, leafCap)
				t.Run(name, func(t *testing.T) {
					var fs *storage.MemFS
					var ix *loneTrie
					opt := func(workers int) Options {
						o := baseOptions(t, fs, mat)
						o.LeafCap, o.Workers = leafCap, workers
						o.MemBudgetBytes = 16 << 10 // several runs: a real merge writes the leaves
						return o
					}
					// Every worker count writes the same leaf file; the last
					// build (workers=8) stays open for the checks below.
					for _, workers := range []int{1, 2, 8} {
						ok := t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
							fs = storage.NewMemFS()
							writeRaw(t, fs, ds.data, 0)
							var err error
							if ix, err = buildTrie(opt(workers)); err != nil {
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

					checkTrieLeaves(t, ix.TrieIndex)
					if got, want := digest(ix.starts[:len(ix.starts)-1]), parentTrieStarts[ds.name][leafCap]; got != want {
						t.Fatalf("leaf starts %s, the node-built trie's were %s", got, want)
					}
					if ds.name == "all-equal-keys" && (ix.Shape().Leaves != 1 || ix.starts[1] != 40) {
						t.Fatalf("identical keys split into %d leaves", ix.Shape().Leaves)
					}
					if n := ix.Shape().Leaves; n > 0 {
						if fill, want := ix.Shape().LeafFill, float64(len(ds.data))/float64(n*leafCap); fill != want {
							t.Fatalf("AvgLeafFill = %v, want logical occupancy %v", fill, want)
						}
					}

					built := shapeOf(ix.TrieIndex)
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}
					re, err := openTrie(opt(1))
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					ix = re
					if !built.equal(shapeOf(re.TrieIndex)) {
						t.Fatal("OpenTrie did not reproduce the build-time keys, positions and leaf starts")
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

// TestTrieCandidateRunReadsOnlyItsBlocks fails if page padding or a
// leaf-sized read unit ever comes back: a materialized exact search reads
// its candidates as the raw-file scan does, one read per run of adjacent
// candidates (at most rawRunCap records, starting at a record the search
// visits), and each read costs only the checksum blocks its records touch —
// over a LeafCap-2000 trie too, whose leaves span hundreds of records.
func TestTrieCandidateRunReadsOnlyItsBlocks(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, true)
	opt.LeafCap, opt.QueryWorkers = 2000, 1
	ix, err := buildTrie(opt)
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
		seed, _, err := approxKNN(context.Background(), ix, q, 1, 1)
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
// checksum block holding the record — however large the leaf around it (a
// LeafCap-2000 tree holds the whole fixture in one leaf).
func TestFullApproxReadsOnlyVisitedBlocks(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, true)
	opt.LeafCap, opt.QueryWorkers = 2000, 1
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

// TestTrieLeafFileDamageIsTyped: a leaf file shorter than the manifest's
// record count is both corrupt data and a broken manifest promise, a longer
// one a broken promise, a flipped bit corrupt data, and a missing one fails
// the open.
func TestTrieLeafFileDamageIsTyped(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	ix, err := buildTrie(opt)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	good, err := storage.ReadFileAll(fs, "cx.leaves")
	if err != nil {
		t.Fatal(err)
	}
	stride := 4 + leafBlockSize(opt.recordSize()) // one whole checksum block
	tail := len(good) - (len(good)-storage.ChecksumHeaderSize)%stride
	if tail == len(good) {
		tail -= stride
	}
	reopen := func(data []byte) error {
		t.Helper()
		if err := storage.WriteFileAll(fs, "cx.leaves", data); err != nil {
			t.Fatal(err)
		}
		re, err := openTrie(opt)
		if err == nil {
			re.Close()
		}
		return err
	}
	for _, cut := range []int{tail, len(good) - 5} {
		err := reopen(good[:cut])
		if !errors.Is(err, storage.ErrCorruptData) || !errors.Is(err, manifest.ErrCorruptManifest) {
			t.Fatalf("leaf file cut to %d of %d bytes: got %v, want ErrCorruptData and ErrCorruptManifest", cut, len(good), err)
		}
	}
	// One stray (correctly checksummed) record past the manifest's count.
	if err := storage.WriteFileAll(fs, "cx.leaves", good); err != nil {
		t.Fatal(err)
	}
	inner, err := fs.Open("cx.leaves")
	if err != nil {
		t.Fatal(err)
	}
	cf, err := storage.OpenChecksumFile(inner)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := cf.Size()
	if _, err := cf.WriteAt(make([]byte, opt.recordSize()), size); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	longer, err := storage.ReadFileAll(fs, "cx.leaves")
	if err != nil {
		t.Fatal(err)
	}
	if err := reopen(longer); !errors.Is(err, manifest.ErrCorruptManifest) {
		t.Fatalf("leaf file with a stray record: got %v, want ErrCorruptManifest", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	if err := reopen(flipped); !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("flipped leaf byte: got %v, want ErrCorruptData", err)
	}
	if err := fs.Remove("cx.leaves"); err != nil {
		t.Fatal(err)
	}
	if _, err := openTrie(opt); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("missing leaf file: got %v, want ErrNotExist", err)
	}
	if err := reopen(good); err != nil {
		t.Fatalf("restored leaf file failed to open: %v", err)
	}
}

// TestBuildReadsRawOnce: a tree or trie build, at any worker
// count, writes the sidecar storage.BuildRecordSums would and reads the raw
// file once — its reads stay within 5% of the raw size plus what the sort
// and the bulk loader read back of their own temporaries. A torn trailing
// partial record is not part of the dataset, and a stale sidecar from a
// longer dataset is replaced.
func TestBuildReadsRawOnce(t *testing.T) {
	data := dataset.Generate(dataset.NewRandomWalk(), tCount, tLen, 42)
	rawSize := int64(len(data) * series.EncodedSize(tLen))
	type index interface {
		Close() error
		Count() int64
		ExactSearch(ctx context.Context, q series.Series, radius int) (Result, error)
	}
	type entry struct{ build, open func(Options) (index, error) }
	entries := map[string]entry{
		"tree": {func(o Options) (index, error) { return buildTree(o) }, func(o Options) (index, error) { return openTree(o) }},
		"trie": {func(o Options) (index, error) { return buildTrie(o) }, func(o Options) (index, error) { return openTrie(o) }},
	}
	// whole checks that ix holds exactly the whole records of data: stray
	// bytes after them are in no count and behind no answer.
	whole := func(t *testing.T, ix index) {
		t.Helper()
		if ix.Count() != int64(len(data)) {
			t.Fatalf("Count = %d, want the %d whole records", ix.Count(), len(data))
		}
		last := len(data) - 1
		if r, err := ix.ExactSearch(context.Background(), data[last], 0); err != nil || r.Pos != int64(last) || r.Dist != 0 {
			t.Fatalf("exact search for the last whole record: %+v, %v", r, err)
		}
	}
	for variant, e := range entries {
		for _, workers := range []int{1, 2, 8} {
			for _, tc := range []struct {
				name        string
				torn, stale int
			}{{"clean", 0, 0}, {"torn-tail", 11, 0}, {"stale-sidecar", 0, tCount + 30}} {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", variant, workers, tc.name), func(t *testing.T) {
					fs := storage.NewMemFS()
					if tc.stale > 0 {
						writeRaw(t, fs, dataset.Generate(dataset.NewRandomWalk(), tc.stale, tLen, 9), 0)
						if _, err := storage.BuildRecordSums(fs, "raw", series.EncodedSize(tLen)); err != nil {
							t.Fatal(err)
						}
					}
					writeRaw(t, fs, data, tc.torn)
					opt := baseOptions(t, fs, false)
					opt.Workers = workers
					before := fs.Stats().Snapshot()
					ix, err := e.build(opt)
					if err != nil {
						t.Fatal(err)
					}
					io := fs.Stats().Snapshot().Sub(before)
					whole(t, ix)
					ix.Close()
					// Own temporaries: the sort's runs are read once by its
					// merge, and the tree reads the sorted file once more.
					temporaries := 2 * int64(len(data)) * int64(opt.recordSize())
					if limit := rawSize + rawSize/20 + temporaries; io.BytesRead > limit {
						t.Fatalf("build read %d bytes of a %d-byte dataset, want at most %d (one pass)", io.BytesRead, rawSize, limit)
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
					re, err := e.open(opt)
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
