package partition

// Build-path contracts of the partition layer: the parent reads the raw
// dataset once (boundary sample by positioned reads, CRC sidecar out of the
// sort's summarization pass), a one-chunk build writes no byte twice, and a
// build that fails at any storage operation leaves no file behind.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
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

// variants are the two kinds of index over one option set, and a
// materialized (-Full) tree, whose budget keeps its 280-byte records of a
// 2000-series dataset in one sort chunk at 8 workers, as the 24-byte
// records of the others are.
func variants(t *testing.T, fs storage.FS, workers int) map[string]Variant {
	opt := core.Options{FS: fs, Name: "px", S: ptSummarizer(t), RawName: "raw",
		MemBudgetBytes: 1 << 20, Workers: workers}
	full := opt
	full.Materialized, full.MemBudgetBytes = true, 8<<20
	return map[string]Variant{
		"tree":      TreeVariant(opt),
		"tree-full": TreeVariant(full),
		"lsm": LSMVariant(lsm.Options{FS: fs, Name: "px", S: ptSummarizer(t), RawName: "raw",
			MemBudgetBytes: 1 << 20, Workers: workers}),
	}
}

// buildIndex builds the parts-way Composite of variant over fs.
func buildIndex(t *testing.T, variant string, fs storage.FS, workers, parts int) (*Composite, error) {
	return Build(variants(t, fs, workers)[variant], parts, nil)
}

// TestPartitionedBuildReadsRawOnce: every partitioned build, at any worker
// count, persists the sidecar storage.BuildRecordSums would — also over a
// stale one from a longer dataset — and reads the raw file once: the
// boundary sample and one summarization pass, whose records, sorted in one
// chunk, are read back from no file. A materialized tree's children read it
// once more between them, each record's series fetched by position as its
// child's leaf writer writes it.
func TestPartitionedBuildReadsRawOnce(t *testing.T) {
	const count, parts = 2000, 3
	rawRec := series.EncodedSize(ptLen)
	rawSize := int64(count * rawRec)
	for _, variant := range []string{"tree", "tree-full", "lsm"} {
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
					// The records fit one sort chunk: no temporary is
					// written, so none is read back. Beyond the raw file and
					// the sample, the build reads only what opening its
					// index files reads (leaf-run headers, LSM run
					// directories and footers) — far below one read of the
					// 24-byte records.
					sample := int64(256 * rawRec)
					passes := int64(1)
					if variant == "tree-full" {
						passes = 2
					}
					if limit := passes*rawSize + rawSize/100 + sample; io.BytesRead > limit {
						t.Fatalf("build read %d bytes of a %d-byte dataset, want at most %d (%d passes)", io.BytesRead, rawSize, limit, passes)
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

// TestPartitionedBuildWritesItsFilesOnce: a partitioned build whose records
// fit one sort chunk writes every byte once — the bytes it writes are
// exactly those of the files it leaves behind (child leaf runs or LSM runs,
// child and parent manifests, the raw sidecar) — and creates no file that
// does not survive it but a manifest's commit temporary: the sorted stream
// is written straight into the children.
func TestPartitionedBuildWritesItsFilesOnce(t *testing.T) {
	for _, variant := range []string{"tree", "tree-full", "lsm"} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", variant, workers), func(t *testing.T) {
				fs := storage.NewMemFS()
				if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), 2000, ptLen, 42); err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var created []string
				fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
					if op == storage.OpCreate {
						mu.Lock()
						created = append(created, name)
						mu.Unlock()
					}
					return nil
				})
				before := fs.Stats().Snapshot()
				ix, err := buildIndex(t, variant, fs, workers, 3)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				written := fs.Stats().Snapshot().Sub(before).BytesWritten
				left := map[string]bool{}
				var size int64
				for _, name := range fs.Names() {
					if name == "raw" {
						continue
					}
					left[name] = true
					b, err := storage.ReadFileAll(fs, name)
					if err != nil {
						t.Fatal(err)
					}
					size += int64(len(b))
				}
				if written != size {
					t.Fatalf("build wrote %d bytes, its files %v hold %d", written, fs.Names(), size)
				}
				for _, name := range created {
					if !left[name] && !strings.HasSuffix(name, ".tmp") {
						t.Fatalf("build created %q and removed it (created %v)", name, created)
					}
				}
			})
		}
	}
}

// TestFaultFSFailedBuildLeavesNoFiles fails the k-th storage operation —
// reads and opens included — for every k of a small tree and LSM
// build, unpartitioned and 2-partition: whenever the build reports the
// failure, the device afterwards holds the raw file and at most its sidecar.
func TestFaultFSFailedBuildLeavesNoFiles(t *testing.T) {
	all := []storage.Op{storage.OpCreate, storage.OpOpen, storage.OpRead, storage.OpWrite,
		storage.OpSync, storage.OpRename, storage.OpRemove}
	for _, variant := range []string{"tree", "tree-full", "lsm"} {
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

// TestBuildRefusesRottedSpillRun: a build whose sort spills reads its runs
// back block by block, each checked against its CRC. One byte of the first
// spilled run, rotted as the merge opens it, fails the build of every
// variant at 1 and 3 partitions with storage.ErrCorruptData naming the run,
// and the device keeps the raw file and its sidecar alone.
func TestBuildRefusesRottedSpillRun(t *testing.T) {
	const budget = 16 << 10
	for _, kind := range []string{"tree", "lsm"} {
		for _, parts := range []int{1, 3} {
			inner := storage.NewMemFS()
			if _, err := dataset.WriteFile(inner, "raw", dataset.NewRandomWalk(), 2000, ptLen, 42); err != nil {
				t.Fatal(err)
			}
			ffs := storage.NewFaultFS(inner)
			var rotErr error
			ffs.SetHook(func(op storage.Op, name string) {
				if op == storage.OpOpen && name == "px.sort.run.0" && len(ffs.Rots()) == 0 {
					run, err := storage.ReadFileAll(inner, name)
					if rotErr = err; err == nil {
						rotErr = ffs.Rot(name, int64(len(run)/2), 1)
					}
				}
			})
			opt := core.Options{FS: ffs, Name: "px", S: ptSummarizer(t), RawName: "raw",
				MemBudgetBytes: budget, Workers: 2}
			v := map[string]Variant{"tree": TreeVariant(opt),
				"lsm": LSMVariant(lsm.Options{FS: ffs, Name: "px", S: opt.S, RawName: "raw",
					MemBudgetBytes: budget, Workers: 2})}[kind]
			ix, err := Build(v, parts, nil)
			if rotErr != nil {
				t.Fatal(rotErr)
			}
			if len(ffs.Rots()) == 0 {
				t.Fatalf("%s parts=%d: the build opened no spill run", kind, parts)
			}
			if err == nil {
				ix.Close()
			}
			if !errors.Is(err, storage.ErrCorruptData) || !strings.Contains(err.Error(), "px.sort.run.0") {
				t.Fatalf("%s parts=%d: a build over a rotted spill returned %v, want ErrCorruptData naming the run", kind, parts, err)
			}
			for _, name := range inner.Names() {
				if name != "raw" && name != storage.RecordSumsName("raw") {
					t.Fatalf("%s parts=%d: the failed build left %q (device: %v)", kind, parts, name, inner.Names())
				}
			}
		}
	}
}

// TestMaterializedBuildVerifiesTheGather: a materialized build reads each
// raw series back by position as it writes the leaf run, verified against
// the raw log its summarization pass filled. A raw file that rots after the
// pass — as the first leaf run is created — fails the build with
// storage.ErrCorruptData, and the device keeps the raw file and its sidecar
// alone.
func TestMaterializedBuildVerifiesTheGather(t *testing.T) {
	for _, parts := range []int{1, 3} {
		inner := storage.NewMemFS()
		if _, err := dataset.WriteFile(inner, "raw", dataset.NewRandomWalk(), 500, ptLen, 42); err != nil {
			t.Fatal(err)
		}
		ffs := storage.NewFaultFS(inner)
		var once sync.Once
		var rotErr error
		ffs.SetHook(func(op storage.Op, name string) {
			if op == storage.OpCreate && strings.HasSuffix(name, ".leaves") {
				once.Do(func() { rotErr = ffs.Rot("raw", int64(100*series.EncodedSize(ptLen)+3), 1) })
			}
		})
		v := TreeVariant(core.Options{FS: ffs, Name: "px", S: ptSummarizer(t), RawName: "raw",
			Materialized: true, MemBudgetBytes: 1 << 20, Workers: 2})
		ix, err := Build(v, parts, nil)
		if rotErr != nil {
			t.Fatal(rotErr)
		}
		if err == nil {
			ix.Close()
		}
		if !errors.Is(err, storage.ErrCorruptData) {
			t.Fatalf("parts=%d: a build over rotted raw bytes returned %v, want ErrCorruptData", parts, err)
		}
		for _, name := range inner.Names() {
			if name != "raw" && name != storage.RecordSumsName("raw") {
				t.Fatalf("parts=%d: the failed build left %q (device: %v)", parts, name, inner.Names())
			}
		}
	}
}
