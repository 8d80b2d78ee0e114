package partition

// Crash conformance for the partitioned write path: a partitioned
// Coconut-LSM keeps one WAL per partition, but the durability contract is
// the same as the single index's — after a crash, every acknowledged
// append survives replay and the recovered index answers queries exactly
// as it did before the crash, and (for exact search) exactly as an
// unpartitioned index over the same stream does.

import (
	"context"
	"errors"
	"testing"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/lsm"
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

// lsmLike is the surface the single LSM and the Composite of LSMs share.
type lsmLike interface {
	Index
	Inserter
	Maintainer
}

func TestPartitionedWALCrashConformance(t *testing.T) {
	const base = 256
	const appended = 96
	gen := dataset.NewRandomWalk()
	batches := dataset.Generate(dataset.NewSeismic(), appended, ptLen, 77)
	queries := dataset.Queries(gen, 6, ptLen, 5)

	type answer struct {
		pos  int64
		dist float64
	}
	collect := func(ix lsmLike) []answer {
		t.Helper()
		out := make([]answer, 0, 2*len(queries))
		for _, q := range queries {
			e, err := ix.ExactSearch(context.Background(), q, 0)
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

	// run builds a parts-way layout (1 = the unpartitioned lsm.Index),
	// appends the stream in acknowledged batches with a mid-stream flush
	// (so replay has both a durable flush cursor to skip below and a
	// WAL-only suffix to reconstruct), crashes without closing, and
	// reopens from the durable image.
	run := func(parts int) (pre, post []answer) {
		inner := storage.NewMemFS()
		if _, err := dataset.WriteFile(inner, "raw", gen, base, ptLen, 42); err != nil {
			t.Fatal(err)
		}
		ffs := storage.NewFaultFS(inner)
		opt := lsm.Options{
			FS: ffs, Name: "x", S: ptSummarizer(t), RawName: "raw",
			MemBudgetBytes: 1 << 20, Fanout: 2,
		}
		var ix lsmLike
		var err error
		if parts == 1 {
			ix, err = lsm.Build(opt)
		} else {
			ix, err = Build(LSMVariant(opt), parts)
		}
		if err != nil {
			t.Fatalf("parts=%d: build: %v", parts, err)
		}
		for lo := 0; lo < len(batches); lo += 8 {
			if err := ix.Insert(context.Background(), batches[lo:lo+8]); err != nil {
				t.Fatalf("parts=%d: append: %v", parts, err)
			}
			if lo == 48 {
				if err := ix.Flush(); err != nil {
					t.Fatalf("parts=%d: flush: %v", parts, err)
				}
			}
		}
		if got := ix.Count(); got != base+appended {
			t.Fatalf("parts=%d: count %d before crash, want %d", parts, got, base+appended)
		}
		pre = collect(ix)
		ffs.Crash()
		ix.Close() // fails post-crash; the crash is the point

		rec := ffs.Recover(0)
		opt.FS = rec
		var re lsmLike
		if parts == 1 {
			re, err = lsm.Open(opt)
		} else {
			re, err = Open(LSMVariant(opt), 0)
		}
		if err != nil {
			t.Fatalf("parts=%d: reopen after crash: %v", parts, err)
		}
		if got := re.Count(); got != base+appended {
			t.Fatalf("parts=%d: recovered %d series, %d were acknowledged", parts, got, base+appended)
		}
		post = collect(re)
		// The recovered index is live: another acknowledged batch lands.
		if err := re.Insert(context.Background(), batches[:1]); err != nil {
			t.Fatalf("parts=%d: append on recovered index: %v", parts, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("parts=%d: close recovered index: %v", parts, err)
		}
		return pre, post
	}

	singlePre, singlePost := run(1)
	partPre, partPost := run(3)

	for i := range singlePre {
		kind, qi := "exact", i/2
		if i%2 == 1 {
			kind = "approx"
		}
		// Crash + replay must not move any answer in either layout.
		if singlePost[i] != singlePre[i] {
			t.Errorf("1 partition, %s query %d: answer moved across crash: %+v -> %+v",
				kind, qi, singlePre[i], singlePost[i])
		}
		if partPost[i] != partPre[i] {
			t.Errorf("3 partitions, %s query %d: answer moved across crash: %+v -> %+v",
				kind, qi, partPre[i], partPost[i])
		}
	}
	// And exact answers agree across layouts: partitioning is invisible.
	for qi := range queries {
		if singlePost[2*qi] != partPost[2*qi] {
			t.Errorf("exact query %d: 1 vs 3 partitions disagree after crash: %+v vs %+v",
				qi, singlePost[2*qi], partPost[2*qi])
		}
	}
}

// TestCompositeOffersWhatItsChildrenDo: the Composite has k-NN, inserts and
// LSM housekeeping exactly when its children do — a Composite of tries takes
// no insert and answers no k-NN, with a typed refusal before any byte moves,
// never a panic or a silent no-op.
func TestCompositeOffersWhatItsChildrenDo(t *testing.T) {
	batch := dataset.Generate(dataset.NewSeismic(), 4, ptLen, 3)
	q := dataset.Queries(dataset.NewRandomWalk(), 1, ptLen, 5)[0]
	for _, tc := range []struct {
		variant            string
		knn, insert, flush bool
	}{
		{"tree", true, true, false},
		{"trie", false, false, false},
		{"lsm", false, true, true},
	} {
		t.Run(tc.variant, func(t *testing.T) {
			fs := storage.NewMemFS()
			if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), 300, ptLen, 42); err != nil {
				t.Fatal(err)
			}
			v := variants(t, fs, 2)[tc.variant]
			c, err := Build(v, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			lone, err := variants(t, storage.NewMemFS(), 2)[tc.variant].Build()
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
			_, kidKNN := kid.(KNNSearcher)
			_, kidInsert := kid.(Inserter)
			_, kidFlush := kid.(Maintainer)
			if kidKNN != tc.knn || kidInsert != tc.insert || kidFlush != tc.flush {
				t.Fatalf("a %s child: knn=%v insert=%v maintain=%v, want %v %v %v",
					tc.variant, kidKNN, kidInsert, kidFlush, tc.knn, tc.insert, tc.flush)
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
			ns, _, err := c.ExactSearchKNN(context.Background(), q, 3, 1)
			supported("k-NN", err, tc.knn)
			if tc.knn && len(ns) != 3 {
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
			supported("insert", c.Insert(context.Background(), batch), tc.insert)
			wantCount, wantRaw := before, rawBefore
			if tc.insert {
				wantCount, wantRaw = before+int64(len(batch)), rawBefore+int64(len(batch)*series.EncodedSize(ptLen))
			}
			if got := c.Count(); got != wantCount {
				t.Fatalf("count %d after insert, want %d", got, wantCount)
			}
			if got := rawSize(); got != wantRaw {
				t.Fatalf("dataset holds %d bytes after insert, want %d", got, wantRaw)
			}
			supported("flush", c.Flush(), tc.flush)
			supported("repair", c.RebuildQuarantined(), tc.flush)
			if err := c.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			var res core.Result
			if res, err = c.ExactSearch(context.Background(), q, 1); err != nil || res.Pos < 0 {
				t.Fatalf("exact search after the capability calls: %+v, %v", res, err)
			}
		})
	}
}
