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
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
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

// logicalBytes reads a block file's logical content.
func logicalBytes(t *testing.T, fs storage.FS, name string, checksums bool) []byte {
	t.Helper()
	if !checksums {
		data, err := storage.ReadFileAll(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
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
	keys      []summary.Key
	positions []int64
	leafStart []int
	prefixes  []string
}

func shapeOf(ix *TrieIndex) trieShape {
	sh := trieShape{keys: ix.keys, positions: ix.positions, leafStart: ix.leafStart}
	for _, l := range ix.leaves {
		sh.prefixes = append(sh.prefixes, fmt.Sprintf("%x/%v/%d/%v", l.Syms, l.Bits, l.Count, l.Leaf))
	}
	return sh
}

func (a trieShape) equal(b trieShape) bool {
	return slices.Equal(a.keys, b.keys) && slices.Equal(a.positions, b.positions) &&
		slices.Equal(a.leafStart, b.leafStart) && slices.Equal(a.prefixes, b.prefixes)
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
				for _, checksums := range []bool{true, false} {
					name := fmt.Sprintf("%s/mat=%v/leafcap=%d/checksums=%v", ds.name, mat, leafCap, checksums)
					t.Run(name, func(t *testing.T) {
						var fs *storage.MemFS
						var ix *TrieIndex
						opt := func(workers int) Options {
							o := baseOptions(t, fs, mat)
							o.LeafCap, o.Checksums, o.Workers = leafCap, checksums, workers
							o.MemBudgetBytes = 16 << 10 // several runs: a real merge writes the leaves
							return o
						}
						for _, workers := range []int{1, 2, 8} {
							fs = storage.NewMemFS()
							writeRaw(t, fs, ds.data, 0)
							var err error
							if ix, err = BuildTrie(opt(workers)); err != nil {
								t.Fatal(err)
							}
							size := ix.SizeBytes()
							if workers != 8 {
								ix.Close()
							}
							if got := int64(len(ds.data)) * int64(ix.opt.recordSize()); size != got {
								t.Fatalf("workers=%d: logical leaf-file size %d, want Count*recordSize = %d", workers, size, got)
							}
							if got := logicalBytes(t, fs, "cx.leaves", checksums); !bytes.Equal(got, want) {
								t.Fatalf("workers=%d: leaf file (%d bytes) is not the sorted record stream (%d bytes)", workers, len(got), len(want))
							}
							if names := fs.Names(); len(names) != 3+boolInt(checksums) {
								t.Fatalf("workers=%d: build left %v, want raw, leaves, manifest and the sidecar only", workers, names)
							}
						}
						defer func() { ix.Close() }()

						// The logical directory: leaves tile the run, and only a
						// leaf of identical keys may exceed the capacity.
						next := 0
						for i, l := range ix.leaves {
							if ix.leafStart[i] != next || l.Count == 0 {
								t.Fatalf("leaf %d: starts at %d with %d records, want start %d", i, ix.leafStart[i], l.Count, next)
							}
							next += int(l.Count)
							if int(l.Count) > leafCap && ix.keys[ix.leafStart[i]] != ix.keys[next-1] {
								t.Fatalf("leaf %d holds %d distinct-key records, capacity %d", i, l.Count, leafCap)
							}
						}
						if next != len(ds.data) {
							t.Fatalf("leaves hold %d records, want %d", next, len(ds.data))
						}
						if ds.name == "all-equal-keys" && (ix.Shape().Leaves != 1 || ix.leaves[0].Count != 40) {
							t.Fatalf("identical keys split into %d leaves", ix.Shape().Leaves)
						}
						if n := ix.Shape().Leaves; n > 0 {
							if fill, want := ix.Shape().LeafFill, float64(len(ds.data))/float64(n*leafCap); fill != want {
								t.Fatalf("AvgLeafFill = %v, want logical occupancy %v", fill, want)
							}
						}

						built := shapeOf(ix)
						if err := ix.Close(); err != nil {
							t.Fatal(err)
						}
						re, err := OpenTrie(opt(1))
						if err != nil {
							t.Fatalf("reopen: %v", err)
						}
						ix = re
						if !built.equal(shapeOf(re)) {
							t.Fatal("OpenTrie did not reproduce the build-time keys, positions, leaf starts and prefixes")
						}
						if err := re.Trie().CheckInvariants(8); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTrieLeafVisitReadsOnlyTheLeaf fails if page padding ever comes back: a
// materialized leaf visit may read the leaf's own bytes rounded out to the
// checksum blocks they touch, and an exact search over a LeafCap-2000 trie
// (leaves a few records full) reads kilobytes, not a megabyte per leaf.
func TestTrieLeafVisitReadsOnlyTheLeaf(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, true)
	opt.LeafCap, opt.Checksums, opt.QueryWorkers = 2000, true, 1
	ix, err := BuildTrie(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	recSize := int64(opt.recordSize())
	block := int64(leafBlockSize(opt.recordSize()))
	var maxLeaf int64
	for li, l := range ix.leaves {
		lo := int64(ix.leafStart[li]) * recSize
		hi := lo + l.Count*recSize
		bound := ((hi-1)/block - lo/block + 1) * (block + 4)
		before := fs.Stats().Snapshot()
		if _, err := ix.readLeafRecords(li); err != nil {
			t.Fatal(err)
		}
		if got := fs.Stats().Snapshot().Sub(before).BytesRead; got > bound {
			t.Fatalf("leaf %d (%d records, %d bytes) read %d bytes, more than its checksum blocks (%d)", li, l.Count, hi-lo, got, bound)
		}
		maxLeaf = max(maxLeaf, hi-lo)
	}
	for _, q := range dataset.Queries(dataset.NewRandomWalk(), 5, tLen, 13) {
		before := fs.Stats().Snapshot()
		res, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		bound := res.VisitedLeaves * (maxLeaf + 2*(block+4))
		if got := fs.Stats().Snapshot().Sub(before).BytesRead; got > bound {
			t.Fatalf("exact search visiting %d leaves read %d bytes, want at most %d", res.VisitedLeaves, got, bound)
		}
	}
}

// TestTrieLeafFileDamageIsTyped: a leaf file shorter than the manifest's
// record count is both corrupt data and a broken manifest promise, a longer
// one a broken promise, and a flipped bit under checksums corrupt data.
func TestTrieLeafFileDamageIsTyped(t *testing.T) {
	for _, checksums := range []bool{true, false} {
		fs, _ := fixtureFS(t)
		opt := baseOptions(t, fs, false)
		opt.Checksums = checksums
		ix, err := BuildTrie(opt)
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()
		good, err := storage.ReadFileAll(fs, "cx.leaves")
		if err != nil {
			t.Fatal(err)
		}
		stride := opt.recordSize() // flat: one record
		if checksums {
			stride = 4 + leafBlockSize(opt.recordSize()) // one whole checksum block
		}
		tail := len(good) - (len(good)-storage.ChecksumHeaderSize*boolInt(checksums))%stride
		if tail == len(good) {
			tail -= stride
		}
		reopen := func(data []byte) error {
			t.Helper()
			if err := storage.WriteFileAll(fs, "cx.leaves", data); err != nil {
				t.Fatal(err)
			}
			re, err := OpenTrie(opt)
			if err == nil {
				re.Close()
			}
			return err
		}
		for _, cut := range []int{tail, len(good) - 5} {
			err := reopen(good[:cut])
			if !errors.Is(err, storage.ErrCorruptData) || !errors.Is(err, manifest.ErrCorruptManifest) {
				t.Fatalf("checksums=%v: leaf file cut to %d of %d bytes: got %v, want ErrCorruptData and ErrCorruptManifest", checksums, cut, len(good), err)
			}
		}
		if !checksums {
			longer := append(append([]byte(nil), good...), good[:opt.recordSize()]...)
			if err := reopen(longer); !errors.Is(err, manifest.ErrCorruptManifest) {
				t.Fatalf("leaf file with a stray record: got %v, want ErrCorruptManifest", err)
			}
		} else {
			flipped := append([]byte(nil), good...)
			flipped[len(flipped)/2] ^= 0x10
			if err := reopen(flipped); !errors.Is(err, storage.ErrCorruptData) {
				t.Fatalf("flipped leaf byte: got %v, want ErrCorruptData", err)
			}
		}
		if err := reopen(good); err != nil {
			t.Fatalf("checksums=%v: restored leaf file failed to open: %v", checksums, err)
		}
	}
}

// TestBuildReadsRawOnce: a checksummed tree or trie build, at any worker
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
		"tree": {func(o Options) (index, error) { return BuildTree(o) }, func(o Options) (index, error) { return OpenTree(o) }},
		"trie": {func(o Options) (index, error) { return BuildTrie(o) }, func(o Options) (index, error) { return OpenTrie(o) }},
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
					opt.Checksums, opt.Workers = true, workers
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
