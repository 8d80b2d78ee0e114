package partition

// Crash conformance for the partitioned write path: the children of a
// partitioned Coconut-LSM share one raw log — the raw file and its CRC
// sidecar — which the Composite appends to and commits once per insert, and
// each child recovers its own un-flushed records from it. The durability
// contract is the single index's: after a crash every acknowledged append
// survives, and the recovered index answers exactly as a never-crashed
// unpartitioned one over the same series does.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

const ptLen = 64

func ptSummarizer(t *testing.T) *summary.Summarizer {
	t.Helper()
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: ptLen, Segments: 8, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lsmOptions is the LSM the crash tests run over fs: a memtable no stream
// here fills, so every flush is an explicit one.
func lsmOptions(t *testing.T, fs storage.FS) lsm.Options {
	t.Helper()
	return lsm.Options{FS: fs, Name: "x", S: ptSummarizer(t), RawName: "raw", MemBudgetBytes: 1 << 20}
}

// lsmLayout builds (or reopens) the parts-way Composite of opt's LSMs: 1 is
// the unpartitioned index.
func lsmLayout(opt lsm.Options, parts int, build bool) (*Composite, error) {
	if build {
		return Build(LSMVariant(opt), parts, nil)
	}
	return reopen(LSMVariant(opt), parts)
}

// reopen is Open of v's index from the manifest it loads, as the public
// Open does.
func reopen(v Variant, parts int) (*Composite, error) {
	m, err := manifest.Load(v.fs, v.name)
	if err != nil {
		return nil, err
	}
	return Open(v, parts, m)
}

// rawSeed writes n random-walk series as the raw file of a fresh MemFS.
func rawSeed(t *testing.T, n int) *storage.MemFS {
	t.Helper()
	fs := storage.NewMemFS()
	if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), n, ptLen, 42); err != nil {
		t.Fatal(err)
	}
	return fs
}

type answer struct {
	pos  int64
	dist float64
}

// answers are ix's exact and approximate answers to queries, in turn.
func answers(t *testing.T, ix *Composite, queries []series.Series) []answer {
	t.Helper()
	out := make([]answer, 0, 2*len(queries))
	for _, q := range queries {
		e, err := ix.ExactSearch(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ix.ApproxSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, answer{e.Pos, e.Dist}, answer{a.Pos, a.Dist})
	}
	return out
}

// referenceAnswers memoizes the answers of a never-crashed unpartitioned LSM
// over the seed plus the first c series of stream. Exact answers are exact
// and approximate ones a pure function of the record multiset, so every
// layout and every run split must give the same.
func referenceAnswers(t *testing.T, base int, stream, queries []series.Series) func(c int) []answer {
	refs := map[int][]answer{}
	return func(c int) []answer {
		if a, ok := refs[c]; ok {
			return a
		}
		ix, err := lsmLayout(lsmOptions(t, rawSeed(t, base)), 1, true)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if c > 0 {
			if err := ix.Insert(context.Background(), stream[:c]); err != nil {
				t.Fatal(err)
			}
		}
		refs[c] = answers(t, ix, queries)
		return refs[c]
	}
}

// TestPartitionedAppendCrashSweep power-fails an acknowledged append stream
// — with four flushes inside it, the last of which compacts the unpartitioned
// index's tier 0 — at every counted storage operation, over the
// unpartitioned LSM and a Composite of three whose children share one raw
// log. After every crash point: (a) every acknowledged append is recovered,
// (b) nothing beyond the one append in flight, (c) exact and approximate
// answers equal a never-crashed reference over the recovered series, and
// (d) the recovered index takes another acknowledged append.
func TestPartitionedAppendCrashSweep(t *testing.T) {
	const base = 128
	stream := dataset.Generate(dataset.NewSeismic(), 24, ptLen, 77)
	extra := dataset.Generate(dataset.NewSeismic(), 1, ptLen, 78)
	queries := dataset.Queries(dataset.NewRandomWalk(), 4, ptLen, 5)
	reference := referenceAnswers(t, base, stream, queries)
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dp", parts), func(t *testing.T) {
			seed := rawSeed(t, base)
			ix, err := lsmLayout(lsmOptions(t, seed), parts, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			clone := func() *storage.FaultFS { return storage.NewFaultFS(storage.NewFaultFS(seed).Recover(0)) }
			// workload reopens the seed and appends the stream in acknowledged
			// batches of three, stopping at the first failure; inFlight is
			// the batch an Insert failed on.
			workload := func(fs storage.FS) (acked, inFlight int) {
				ix, err := lsmLayout(lsmOptions(t, fs), parts, false)
				if err != nil {
					return 0, 0 // a crash during the open itself
				}
				defer ix.Close() // fails after the injected crash; the crash is the point
				for lo := 0; lo < len(stream); lo += 3 {
					if err := ix.Insert(context.Background(), stream[lo:lo+3]); err != nil {
						return acked, 3
					}
					acked += 3
					if lo%6 == 3 {
						if err := ix.Flush(); err != nil {
							return acked, 0
						}
					}
				}
				return acked, 0
			}
			dry := clone()
			if acked, _ := workload(dry); acked != len(stream) {
				t.Fatalf("dry run acknowledged %d/%d appends", acked, len(stream))
			}
			total := dry.OpCount()
			t.Logf("sweeping %d crash points", total)
			for k := int64(1); k <= total; k++ {
				ffs := clone()
				ffs.PowerLossAt(k)
				acked, inFlight := workload(ffs)
				if !ffs.Crashed() {
					t.Fatalf("fault at op %d never fired (dry run counted %d ops)", k, total)
				}
				re, err := lsmLayout(lsmOptions(t, ffs.Recover(int(k%7))), parts, false)
				if err != nil {
					t.Fatalf("crash at op %d: reopen: %v", k, err)
				}
				c := int(re.Count()) - base
				if c < acked || c > acked+inFlight {
					re.Close()
					t.Fatalf("crash at op %d: recovered %d appended series, acknowledged %d, in flight %d", k, c, acked, inFlight)
				}
				if got, want := answers(t, re, queries), reference(c); !slices.Equal(got, want) {
					re.Close()
					t.Fatalf("crash at op %d: answers %v, never-crashed reference %v", k, got, want)
				}
				if err := re.Insert(context.Background(), extra); err != nil {
					t.Fatalf("crash at op %d: append on the recovered index: %v", k, err)
				}
				if got := int(re.Count()) - base; got != c+1 {
					t.Fatalf("crash at op %d: count %d after a post-recovery append, want %d", k, got, c+1)
				}
				if err := re.Close(); err != nil {
					t.Fatalf("crash at op %d: close the recovered index: %v", k, err)
				}
			}
		})
	}
}

// treeOptions is the Coconut-Tree the crash tests run over fs.
func treeOptions(t *testing.T, fs storage.FS) core.Options {
	t.Helper()
	return core.Options{FS: fs, Name: "x", S: ptSummarizer(t), RawName: "raw"}
}

// scrubClean checks everything the manifest of index "x" on fs names as
// Scrub does — the manifest itself, every tree partition's leaf run through
// the loader Open runs, every LSM partition's runs, and the raw file against
// its sidecar — and fails t on the first damage.
func scrubClean(t *testing.T, fs storage.FS) {
	t.Helper()
	m, err := manifest.Load(fs, "x")
	if err != nil {
		t.Fatalf("scrub: manifest: %v", err)
	}
	for i, l := range m.Children {
		if m.Variant == manifest.VariantTree {
			if file, _, err := core.VerifyLeafRun(fs, manifest.ChildName("x", i, len(m.Children)), m, l); err != nil {
				t.Fatalf("scrub: %s: %v", file, err)
			}
		}
		for _, ri := range l.Runs {
			if _, err := lsm.VerifyRun(fs, ri); err != nil {
				t.Fatalf("scrub: %s: %v", ri.Name, err)
			}
		}
	}
	if _, err := storage.VerifyRecordSums(fs, m.RawName, series.EncodedSize(m.SeriesLen)); err != nil {
		t.Fatalf("scrub: raw file: %v", err)
	}
}

// TestPartitionedTreeSyncCrashSweep power-fails a tree's Sync, unpartitioned
// and over three partitions: the index reopens, takes one 24-series insert
// batch and Syncs it, and power is lost at every counted storage operation
// of that schedule. A Sync is all or nothing — the one manifest names every
// partition's new run generation in one rename — so after every crash point:
// (a) the recovered index holds the pre-batch or the post-batch records,
// never part of the batch, and the post-batch ones once Sync returned, (b)
// exact and approximate answers equal a never-crashed reference over them,
// (c) everything the manifest names verifies, and (d) the recovered index
// takes one more insert and Sync.
func TestPartitionedTreeSyncCrashSweep(t *testing.T) {
	const base = 128
	batch := dataset.Generate(dataset.NewSeismic(), 24, ptLen, 77)
	extra := dataset.Generate(dataset.NewSeismic(), 1, ptLen, 78)
	queries := dataset.Queries(dataset.NewRandomWalk(), 4, ptLen, 5)
	reference := referenceAnswers(t, base, batch, queries)
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dp", parts), func(t *testing.T) {
			seed := rawSeed(t, base)
			ix, err := Build(TreeVariant(treeOptions(t, seed)), parts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			clone := func() *storage.FaultFS { return storage.NewFaultFS(storage.NewFaultFS(seed).Recover(0)) }
			// workload reopens the seed, inserts the batch and Syncs it;
			// synced says the Sync returned.
			workload := func(fs storage.FS) (synced bool) {
				ix, err := reopen(TreeVariant(treeOptions(t, fs)), parts)
				if err != nil {
					return false // a crash during the open itself
				}
				defer ix.Close() // fails after the injected crash; the crash is the point
				if err := ix.Insert(context.Background(), batch); err != nil {
					return false
				}
				return ix.Sync() == nil
			}
			dry := clone()
			if !workload(dry) {
				t.Fatal("dry run did not sync")
			}
			total := dry.OpCount()
			t.Logf("sweeping %d crash points", total)
			for k := int64(1); k <= total; k++ {
				ffs := clone()
				ffs.PowerLossAt(k)
				synced := workload(ffs)
				if !ffs.Crashed() {
					t.Fatalf("fault at op %d never fired (dry run counted %d ops)", k, total)
				}
				img := ffs.Recover(int(k % 7))
				re, err := reopen(TreeVariant(treeOptions(t, img)), parts)
				if err != nil {
					t.Fatalf("crash at op %d: reopen: %v", k, err)
				}
				c := int(re.Count()) - base
				if (c != 0 && c != len(batch)) || (synced && c != len(batch)) {
					re.Close()
					t.Fatalf("crash at op %d: recovered %d of the %d-series batch (Sync returned: %v)", k, c, len(batch), synced)
				}
				if got, want := answers(t, re, queries), reference(c); !slices.Equal(got, want) {
					re.Close()
					t.Fatalf("crash at op %d: answers %v, never-crashed reference %v", k, got, want)
				}
				scrubClean(t, img)
				if err := re.Insert(context.Background(), extra); err != nil {
					t.Fatalf("crash at op %d: insert on the recovered index: %v", k, err)
				}
				if err := re.Sync(); err != nil {
					t.Fatalf("crash at op %d: sync on the recovered index: %v", k, err)
				}
				if got := int(re.Count()) - base; got != c+1 {
					t.Fatalf("crash at op %d: count %d after a post-recovery insert, want %d", k, got, c+1)
				}
				if err := re.Close(); err != nil {
					t.Fatalf("crash at op %d: close the recovered index: %v", k, err)
				}
			}
		})
	}
}

// TestColdPartitionRecoversOwnRecords: a child that takes no insert for a
// long stretch keeps an old flushed position — its key range is cold — so
// after a crash it re-reads a long raw tail that is almost all its siblings'
// records. It must recover only its own: every child's Count, and every
// answer, equal a never-crashed index's.
func TestColdPartitionRecoversOwnRecords(t *testing.T) {
	const base = 256
	ffs := storage.NewFaultFS(rawSeed(t, base))
	c, err := Build(LSMVariant(lsmOptions(t, ffs)), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := dataset.Generate(dataset.NewRandomWalk(), 600, ptLen, 99)
	keys, err := ptSummarizer(t).KeysOf(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cold, hot []series.Series
	for i, k := range keys {
		if route(c.bounds, k) == 0 {
			cold = append(cold, pool[i])
		} else {
			hot = append(hot, pool[i])
		}
	}
	if len(cold) < 4 || len(hot) < 210 {
		t.Fatalf("pool splits %d cold / %d hot, want at least 4 / 210", len(cold), len(hot))
	}
	stream := slices.Concat(cold[:2], hot[:200], cold[2:4], hot[200:210])
	insert := func(lo, hi int) {
		t.Helper()
		for ; lo < hi; lo += 2 {
			if err := c.Insert(context.Background(), stream[lo:min(lo+2, hi)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 2)
	if err := c.Flush(); err != nil { // the cold child's last flush
		t.Fatal(err)
	}
	insert(2, 202)
	if err := c.Flush(); err != nil { // the hot children flush; the cold one has nothing
		t.Fatal(err)
	}
	insert(202, len(stream)) // un-flushed in every child
	queries := dataset.Queries(dataset.NewRandomWalk(), 6, ptLen, 5)
	want := answers(t, c, queries)
	wantCounts := make([]int64, len(c.kids))
	for i, k := range c.kids {
		wantCounts[i] = k.Count()
	}
	ffs.Crash()
	c.Close()

	img := ffs.Recover(0)
	m, err := manifest.Load(img, "x")
	if err != nil {
		t.Fatal(err)
	}
	if end, cold := int64(base+len(stream)), m.Children[0]; cold.Flushed != base+2 {
		t.Fatalf("cold child flushed through %d of %d, want %d", cold.Flushed, end, base+2)
	}
	re, err := reopen(LSMVariant(lsmOptions(t, img)), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, k := range re.kids {
		if k.Count() != wantCounts[i] {
			t.Fatalf("child %d recovered %d records, the never-crashed index held %d", i, k.Count(), wantCounts[i])
		}
	}
	if got := answers(t, re, queries); !slices.Equal(got, want) {
		t.Fatalf("recovered answers %v, never-crashed %v", got, want)
	}
	if got, ref := want, referenceAnswers(t, base, stream, queries)(len(stream)); !slices.Equal(got, ref) {
		t.Fatalf("partitioned answers %v, unpartitioned reference %v", got, ref)
	}
}

// TestFailedFsyncIsStickyAndNeverAcknowledged fails the raw file's fsync, and
// separately the sidecar's, inside an acknowledging Insert, over 1 and 3
// partitions. The Insert returns the error; the next Insert and Sync return
// it too although the device works again — the log is poisoned, not retried
// — and after a crash the recovered series lie between the acknowledged ones
// and those plus the failed batch.
func TestFailedFsyncIsStickyAndNeverAcknowledged(t *testing.T) {
	const base = 128
	batch := dataset.Generate(dataset.NewSeismic(), 4, ptLen, 3)
	for _, parts := range []int{1, 3} {
		// An acknowledging Insert's counted operations: the raw write, the
		// raw fsync, the sidecar entries' write, the sidecar fsync.
		for _, target := range []struct {
			file string
			op   int64
		}{{"raw", 2}, {storage.RecordSumsName("raw"), 4}} {
			t.Run(fmt.Sprintf("%dp/%s", parts, target.file), func(t *testing.T) {
				ffs := storage.NewFaultFS(rawSeed(t, base))
				ix, err := lsmLayout(lsmOptions(t, ffs), parts, true)
				if err != nil {
					t.Fatal(err)
				}
				acked := 0
				for i := 0; i < 3; i++ {
					if err := ix.Insert(context.Background(), batch); err != nil {
						t.Fatal(err)
					}
					acked += len(batch)
				}
				ffs.FailAt(ffs.OpCount() + target.op)
				err = ix.Insert(context.Background(), batch)
				if !errors.Is(err, storage.ErrInjected) || !strings.Contains(err.Error(), fmt.Sprintf("sync %q", target.file)) {
					t.Fatalf("insert over a failed fsync of %s: %v", target.file, err)
				}
				if err := ix.Insert(context.Background(), batch); !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("insert after the failed fsync: %v, want the same error", err)
				}
				if err := ix.Sync(); !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("sync after the failed fsync: %v, want the same error", err)
				}
				ffs.Crash()
				ix.Close()
				re, err := lsmLayout(lsmOptions(t, ffs.Recover(0)), parts, false)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if c := int(re.Count()) - base; c < acked || c > acked+len(batch) {
					t.Fatalf("recovered %d appended series, acknowledged %d, attempted %d", c, acked, acked+len(batch))
				}
			})
		}
	}
}

// TestCompositeOffersWhatItsChildrenDo: every Composite takes inserts — a
// materialized tree's too, whose children merge the batch's series into
// their leaf runs — and has LSM housekeeping exactly when its children do —
// a Composite of trees refuses a flush typed, never with a panic or a silent no-op — and answers
// k-NN over every variant, exact search being its k = 1.
func TestCompositeOffersWhatItsChildrenDo(t *testing.T) {
	batch := dataset.Generate(dataset.NewSeismic(), 4, ptLen, 3)
	q := dataset.Queries(dataset.NewRandomWalk(), 1, ptLen, 5)[0]
	for _, tc := range []struct {
		variant string
		flush   bool
	}{
		{"tree", false},
		{"tree-full", false},
		{"lsm", true},
	} {
		t.Run(tc.variant, func(t *testing.T) {
			fs := storage.NewMemFS()
			if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), 300, ptLen, 42); err != nil {
				t.Fatal(err)
			}
			v := variants(t, fs, 2)[tc.variant]
			c, err := Build(v, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			lone, err := Build(variants(t, storage.NewMemFS(), 2)[tc.variant], 1, nil)
			if err == nil {
				t.Fatal("a build over a device with no dataset succeeded")
			}
			if lone != nil {
				t.Fatalf("failed build returned a non-nil index %T", lone)
			}
			var kid Child
			for _, k := range c.kids {
				kid = k
			}
			if _, kidFlush := kid.(Maintainer); kidFlush != tc.flush {
				t.Fatalf("a %s child: maintain=%v, want %v", tc.variant, kidFlush, tc.flush)
			}
			supported := func(what string, err error, want bool) {
				t.Helper()
				if want && err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !want && (!errors.Is(err, ErrUnsupported) || !errors.Is(err, errors.ErrUnsupported)) {
					t.Fatalf("%s: err = %v, want ErrUnsupported", what, err)
				}
			}
			ns, _, err := c.ExactSearchKNN(context.Background(), q, 3)
			supported("k-NN", err, true)
			if len(ns) != 3 {
				t.Fatalf("k-NN returned %d neighbors, want 3", len(ns))
			}
			rawSize := func() int64 {
				b, err := storage.ReadFileAll(fs, "raw")
				if err != nil {
					t.Fatal(err)
				}
				return int64(len(b))
			}
			before, rawBefore := c.Count(), rawSize()
			supported("insert", c.Insert(context.Background(), batch), true)
			wantCount, wantRaw := before+int64(len(batch)), rawBefore+int64(len(batch)*series.EncodedSize(ptLen))
			if got := c.Count(); got != wantCount {
				t.Fatalf("count %d after insert, want %d", got, wantCount)
			}
			if got := rawSize(); got != wantRaw {
				t.Fatalf("dataset holds %d bytes after insert, want %d", got, wantRaw)
			}
			supported("flush", c.Flush(), tc.flush)
			if err := c.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			var res core.Result
			if res, err = c.ExactSearch(context.Background(), q); err != nil || res.Pos < 0 {
				t.Fatalf("exact search after the capability calls: %+v, %v", res, err)
			}
		})
	}
}
