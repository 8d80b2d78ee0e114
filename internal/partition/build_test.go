package partition

// Build-path contracts of the partition layer: the parent reads the raw
// dataset once (boundary sample by positioned reads, CRC sidecar out of the
// scatter's summarization pass), and a build that fails at any storage
// operation leaves no file behind.

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// scanBoundaries is the reference selectBoundaries is checked against: the
// same fixed-stride sample and quantile walk, taken by reading the whole
// dataset sequentially.
func scanBoundaries(raw storage.File, s *summary.Summarizer, parts int) ([]summary.Key, error) {
	p := s.Params()
	sz := int64(series.EncodedSize(p.SeriesLen))
	size, err := raw.Size()
	if err != nil {
		return nil, err
	}
	count := size / sz
	target := min(max(int64(32*parts), 256), count)
	stride := count / target
	sr := storage.NewSequentialReader(raw, 0, -1, 0)
	buf := make([]byte, sz)
	ser := make(series.Series, p.SeriesLen)
	var sample []summary.Key
	for rec := int64(0); int64(len(sample)) < target; rec++ {
		if _, err := io.ReadFull(sr, buf); err != nil {
			return nil, err
		}
		if rec%stride == 0 {
			series.DecodeInto(buf, ser)
			key, err := s.KeyOf(ser)
			if err != nil {
				return nil, err
			}
			sample = append(sample, key)
		}
	}
	sort.Slice(sample, func(a, b int) bool { return sample[a].Less(sample[b]) })
	var bounds []summary.Key
	prev, cursor := sample[0], 1
	for j := 1; j < parts; j++ {
		i := max(j*len(sample)/parts, cursor)
		for i < len(sample) && sample[i].Compare(prev) <= 0 {
			i++
		}
		if i == len(sample) {
			return nil, fmt.Errorf("too few distinct keys")
		}
		bounds = append(bounds, sample[i])
		prev, cursor = sample[i], i+1
	}
	return bounds, nil
}

func TestSelectBoundariesMatchesSequentialScan(t *testing.T) {
	s := ptSummarizer(t)
	for _, count := range []int{8, 300, 1000, 5003} {
		fs := storage.NewMemFS()
		if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), count, ptLen, 42); err != nil {
			t.Fatal(err)
		}
		raw, err := fs.Open("raw")
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{2, 4, 8} {
			want, err := scanBoundaries(raw, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			before := fs.Stats().Snapshot()
			got, err := selectBoundaries(raw, s, parts)
			if err != nil {
				t.Fatalf("count=%d parts=%d: %v", count, parts, err)
			}
			if len(got) != parts-1 || !equalKeys(got, want) {
				t.Fatalf("count=%d parts=%d: boundaries differ from the sequential scan's", count, parts)
			}
			sample := int64(min(max(32*parts, 256), count) * series.EncodedSize(ptLen))
			if read := fs.Stats().Snapshot().Sub(before).BytesRead; read != sample {
				t.Fatalf("count=%d parts=%d: sampling read %d bytes, want the %d of the sampled records", count, parts, read, sample)
			}
		}
		raw.Close()
	}

	// The error cases keep their messages.
	for _, tc := range []struct {
		name  string
		data  []series.Series
		torn  int
		parts int
		want  string
	}{
		{"too-few-series", dataset.Generate(dataset.NewRandomWalk(), 3, ptLen, 1), 0, 4, "too few for 4 partitions"},
		{"too-few-distinct-keys", make([]series.Series, 50), 0, 2, "too few distinct keys"},
		{"misaligned", dataset.Generate(dataset.NewRandomWalk(), 20, ptLen, 1), 5, 2, "not aligned"},
	} {
		fs := storage.NewMemFS()
		var enc []byte
		for _, d := range tc.data {
			if d == nil {
				d = make(series.Series, ptLen)
			}
			enc = series.AppendEncode(enc, d)
		}
		if err := storage.WriteFileAll(fs, "raw", append(enc, make([]byte, tc.torn)...)); err != nil {
			t.Fatal(err)
		}
		raw, err := fs.Open("raw")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := selectBoundaries(raw, s, tc.parts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		raw.Close()
	}
}

func equalKeys(a, b []summary.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// variants are the three kinds of index over one option set.
func variants(t *testing.T, fs storage.FS, workers int) map[string]Variant {
	opt := core.Options{FS: fs, Name: "px", S: ptSummarizer(t), RawName: "raw", LeafCap: 16,
		MemBudgetBytes: 1 << 20, Workers: workers, Checksums: true}
	return map[string]Variant{
		"tree": TreeVariant(opt, false),
		"trie": TrieVariant(opt, false),
		"lsm": LSMVariant(lsm.Options{FS: fs, Name: "px", S: ptSummarizer(t), RawName: "raw",
			MemBudgetBytes: 1 << 20, Workers: workers, Checksums: true}),
	}
}

// buildIndex builds variant over fs — the lone index for parts == 1, the
// Composite otherwise.
func buildIndex(t *testing.T, variant string, fs storage.FS, workers, parts int) (Index, error) {
	v := variants(t, fs, workers)[variant]
	if parts == 1 {
		return v.Build()
	}
	c, err := Build(v, parts)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// TestPartitionedBuildReadsRawOnce: every partitioned build, at any worker
// count, persists the sidecar storage.BuildRecordSums would — also over a
// stale one from a longer dataset — and reads the raw file once: the
// boundary sample, one summarization pass, and its own temporaries.
func TestPartitionedBuildReadsRawOnce(t *testing.T) {
	const count, parts = 2000, 3
	rawRec := series.EncodedSize(ptLen)
	rawSize := int64(count * rawRec)
	for _, variant := range []string{"tree", "trie", "lsm"} {
		for _, workers := range []int{1, 2, 8} {
			for _, stale := range []int{0, count + 100} {
				t.Run(fmt.Sprintf("%s/workers=%d/stale=%d", variant, workers, stale), func(t *testing.T) {
					fs := storage.NewMemFS()
					gen := dataset.NewRandomWalk()
					if stale > 0 {
						if _, err := dataset.WriteFile(fs, "raw", gen, stale, ptLen, 9); err != nil {
							t.Fatal(err)
						}
						if _, err := storage.BuildRecordSums(fs, "raw", rawRec); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := dataset.WriteFile(fs, "raw", gen, count, ptLen, 42); err != nil {
						t.Fatal(err)
					}
					before := fs.Stats().Snapshot()
					ix, err := buildIndex(t, variant, fs, workers, parts)
					if err != nil {
						t.Fatal(err)
					}
					io := fs.Stats().Snapshot().Sub(before)
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}
					// Temporaries read back once each: scatter files, sort
					// runs and the tree's sorted file, 24 bytes a record.
					sample, temporaries := int64(256*rawRec), int64(3*count*24)
					if limit := rawSize + rawSize/20 + sample + temporaries; io.BytesRead > limit {
						t.Fatalf("build read %d bytes of a %d-byte dataset, want at most %d (one pass)", io.BytesRead, rawSize, limit)
					}
					fused, err := storage.ReadFileAll(fs, storage.RecordSumsName("raw"))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := storage.BuildRecordSums(fs, "raw", rawRec); err != nil {
						t.Fatal(err)
					}
					want, _ := storage.ReadFileAll(fs, storage.RecordSumsName("raw"))
					if !bytes.Equal(fused, want) {
						t.Fatalf("build's sidecar (%d bytes) differs from BuildRecordSums's (%d bytes)", len(fused), len(want))
					}
				})
			}
		}
	}
}

// TestFaultFSFailedBuildLeavesNoFiles fails the k-th storage operation —
// reads and opens included — for every k of a small tree, trie and LSM
// build, unpartitioned and 2-partition: whenever the build reports the
// failure, the device afterwards holds the raw file and at most its sidecar.
func TestFaultFSFailedBuildLeavesNoFiles(t *testing.T) {
	all := []storage.Op{storage.OpCreate, storage.OpOpen, storage.OpRead, storage.OpWrite,
		storage.OpSync, storage.OpRename, storage.OpRemove}
	for _, variant := range []string{"tree", "trie", "lsm"} {
		for _, parts := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parts=%d", variant, parts), func(t *testing.T) {
				newFS := func() (*storage.MemFS, *storage.FaultFS) {
					inner := storage.NewMemFS()
					if _, err := dataset.WriteFile(inner, "raw", dataset.NewRandomWalk(), 300, ptLen, 42); err != nil {
						t.Fatal(err)
					}
					ffs := storage.NewFaultFS(inner)
					ffs.SetCounted(all...)
					return inner, ffs
				}
				_, dry := newFS()
				ix, err := buildIndex(t, variant, dry, 2, parts)
				if err != nil {
					t.Fatal(err)
				}
				ix.Close()
				ops := dry.OpCount()
				failed := 0
				for k := int64(1); k <= ops; k++ {
					inner, ffs := newFS()
					ffs.FailAt(k)
					ix, err := buildIndex(t, variant, ffs, 2, parts)
					if err == nil {
						// The fault hit an operation whose failure the build
						// may ignore (removing a temporary), or one past its
						// end at this interleaving.
						ix.Close()
						continue
					}
					failed++
					for _, name := range inner.Names() {
						if name != "raw" && name != storage.RecordSumsName("raw") {
							t.Fatalf("op %d of %d failed the build (%v) and left %q behind (device: %v)", k, ops, err, name, inner.Names())
						}
					}
				}
				if failed < int(ops)/2 {
					t.Fatalf("only %d of %d injected faults failed the build", failed, ops)
				}
			})
		}
	}
}
