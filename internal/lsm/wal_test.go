package lsm

// Crash-injection tests for the WAL write path. The sweep is the
// headline: it replays the same append workload once per counted storage
// operation, injecting a power loss at exactly that operation, and proves
// after every single crash point that (a) no acknowledged append is lost,
// (b) no un-acknowledged append beyond the one in flight becomes visible,
// (c) the recovered index answers exact and approximate queries
// identically to a never-crashed index holding the same series, and
// (d) the recovered index accepts new appends. The remaining tests pin
// the torn-record suffix rule and that queries are never gated on an
// in-flight manifest fsync.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
)

// sweepBase is the series count of the bulk-loaded seed the crash
// workload appends on top of.
const sweepBase = 64

// sweepOptions: a deliberately tiny memtable (16 records) so the short
// append stream crosses several flushes, rotations, manifest commits, and
// segment recycles — the windows the sweep wants to crash inside of.
// Compaction is synchronous so the op sequence is deterministic.
func sweepOptions(t *testing.T, fs storage.FS) Options {
	t.Helper()
	return Options{
		FS: fs, Name: "lsm", S: tSummarizer(t), RawName: "raw",
		MemBudgetBytes: 16 * recordSize,
		Fanout:         2,
	}
}

// sweepSeed builds and cleanly closes the seed index on a fresh MemFS;
// wrapping the result in a FaultFS marks all of it durable.
func sweepSeed(t *testing.T) *storage.MemFS {
	t.Helper()
	fs := storage.NewMemFS()
	if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), sweepBase, tLen, 42); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(sweepOptions(t, fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWALCrashWindowSweep(t *testing.T) {
	stream := dataset.Generate(dataset.NewSeismic(), 40, tLen, 911)
	extra := dataset.Generate(dataset.NewRandomWalk(), 1, tLen, 7777)
	queries := dataset.Queries(dataset.NewRandomWalk(), 4, tLen, 321)

	// workload reopens the seed and appends the stream one acknowledged
	// series at a time, stopping at the first injected failure. Append
	// returns only after the WAL made the series durable, so everything
	// counted in acked must survive any later crash.
	workload := func(fs storage.FS) (acked int, appendFailed bool) {
		ix, err := Open(sweepOptions(t, fs))
		if err != nil {
			// Crash during recovery itself: nothing appended, nothing acked.
			return 0, false
		}
		for i := range stream {
			if err := ix.Insert(context.Background(), stream[i:i+1]); err != nil {
				appendFailed = true
				break
			}
			acked++
		}
		ix.Close() // fails after the injected crash; the crash is the point
		return acked, appendFailed
	}

	// Reference indexes, one per possible recovered count C: the same seed
	// plus the first C stream series, never crashed — so its run layout
	// differs from any recovered index's, which is exactly what
	// makes the answer comparison meaningful (exact search is exact, and
	// ApproxSearch's merged window is a pure function of the record
	// multiset, so both must agree across layouts).
	refs := map[int]*Index{}
	t.Cleanup(func() {
		for _, ix := range refs {
			ix.Close()
		}
	})
	type answer struct {
		pos  int64
		dist float64
	}
	refAnswers := func(c int) []answer {
		if ix, ok := refs[c]; ok {
			_ = ix
		} else {
			fs := storage.NewMemFS()
			if _, err := dataset.WriteFile(fs, "raw", dataset.NewRandomWalk(), sweepBase, tLen, 42); err != nil {
				t.Fatal(err)
			}
			ix, err := Build(sweepOptions(t, fs))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c; i++ {
				if err := ix.Insert(context.Background(), stream[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
			refs[c] = ix
		}
		out := make([]answer, 0, 2*len(queries))
		for _, q := range queries {
			e, err := refs[c].ExactSearch(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := refs[c].ApproxSearch(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, answer{e.Pos, e.Dist}, answer{a.Pos, a.Dist})
		}
		return out
	}

	// Dry run: count every storage operation the un-faulted workload
	// performs. The workload is serial (each append waits for durability
	// before the next), so the op sequence is deterministic and op k in
	// the sweep below crashes the same point every time.
	dry := storage.NewFaultFS(sweepSeed(t))
	if acked, failed := workload(dry); acked != len(stream) || failed {
		t.Fatalf("dry run acked %d/%d appends (failed=%v)", acked, len(stream), failed)
	}
	total := dry.OpCount()
	if total < int64(len(stream)) {
		t.Fatalf("dry run counted only %d ops", total)
	}
	t.Logf("sweeping %d crash points over %d appends", total, len(stream))

	for k := int64(1); k <= total; k++ {
		ffs := storage.NewFaultFS(sweepSeed(t))
		ffs.PowerLossAt(k)
		acked, appendFailed := workload(ffs)
		if !ffs.Crashed() {
			t.Fatalf("fault at op %d never fired (dry run counted %d ops)", k, total)
		}
		// Vary the torn tail so crashes land mid-record too.
		rec := ffs.Recover(int(k % 7))
		re, err := Open(sweepOptions(t, rec))
		if err != nil {
			t.Fatalf("crash at op %d: reopen: %v", k, err)
		}
		c := int(re.Count()) - sweepBase
		// attempted admits the single in-flight append: its WAL record can
		// be durable even though the acknowledgment never came back.
		attempted := acked
		if appendFailed {
			attempted++
		}
		if c < acked || c > attempted {
			re.Close()
			t.Fatalf("crash at op %d: recovered %d appended series, acknowledged %d, attempted %d",
				k, c, acked, attempted)
		}
		want := refAnswers(c)
		for qi, q := range queries {
			e, err := re.ExactSearch(context.Background(), q, 0)
			if err != nil {
				t.Fatalf("crash at op %d: exact query %d: %v", k, qi, err)
			}
			a, err := re.ApproxSearch(context.Background(), q, 0)
			if err != nil {
				t.Fatalf("crash at op %d: approx query %d: %v", k, qi, err)
			}
			we, wa := want[2*qi], want[2*qi+1]
			if e.Pos != we.pos || e.Dist != we.dist {
				t.Fatalf("crash at op %d: exact query %d: got (%d, %v), reference (%d, %v)",
					k, qi, e.Pos, e.Dist, we.pos, we.dist)
			}
			if a.Pos != wa.pos || a.Dist != wa.dist {
				t.Fatalf("crash at op %d: approx query %d: got (%d, %v), reference (%d, %v)",
					k, qi, a.Pos, a.Dist, wa.pos, wa.dist)
			}
		}
		// The recovered index is fully live: it accepts and acknowledges
		// new durable appends.
		if err := re.Insert(context.Background(), extra); err != nil {
			t.Fatalf("crash at op %d: append on recovered index: %v", k, err)
		}
		if got := int(re.Count()) - sweepBase; got != c+1 {
			t.Fatalf("crash at op %d: count %d after post-recovery append, want %d", k, got, c+1)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("crash at op %d: close recovered index: %v", k, err)
		}
	}
}

// TestWALOneFsyncPairPerAppend pins who fsyncs for an acknowledged append:
// the committer's raw + segment pair for one the memtable absorbs, and for
// one that fills the memtable the flush's own raw fsync and syncActive —
// with the committer standing by, not adding a second pair for the same
// LSN. Either way an append costs exactly one raw and one segment fsync,
// which is what makes the sweep's op count repeatable.
func TestWALOneFsyncPairPerAppend(t *testing.T) {
	stream := dataset.Generate(dataset.NewSeismic(), 40, tLen, 911)
	ffs := storage.NewFaultFS(sweepSeed(t))
	var mu sync.Mutex
	var rawSyncs, segSyncs int
	ffs.SetHook(func(op storage.Op, name string) {
		if op != storage.OpSync {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case name == "raw":
			rawSyncs++
		case strings.HasPrefix(name, "lsm.wal."):
			segSyncs++
		}
	})
	ix, err := Open(sweepOptions(t, ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	flushes := 0
	for i := range stream {
		mu.Lock()
		raw0, seg0 := rawSyncs, segSyncs
		mu.Unlock()
		runs := ix.Shape().Runs
		if err := ix.Insert(context.Background(), stream[i:i+1]); err != nil {
			t.Fatal(err)
		}
		ix.mu.RLock()
		flushed := len(ix.mem) == 0
		ix.mu.RUnlock()
		if flushed {
			flushes++
		} else if ix.Shape().Runs != runs {
			t.Fatalf("append %d changed the run set without emptying the memtable", i)
		}
		mu.Lock()
		raw, seg := rawSyncs-raw0, segSyncs-seg0
		mu.Unlock()
		if raw != 1 || seg != 1 {
			t.Fatalf("append %d (flushed=%v): %d raw and %d segment fsyncs, want 1 and 1", i, flushed, raw, seg)
		}
	}
	if flushes < 2 {
		t.Fatalf("workload crossed %d flushes, want several", flushes)
	}
}

// TestWALRotDetectedAndRecovered: a flipped byte inside a fully-present
// WAL frame is bit-rot, not a crash artifact (a torn write only truncates,
// and torn recovery is prefix truncation), so strict replay refuses to
// open with storage.ErrCorruptData instead of silently dropping the
// acknowledged suffix. Under AllowDegraded the open succeeds and every
// acknowledged append is recovered anyway, reconstructed from the raw
// dataset (raw writes precede their log record and the image is fully
// durable here).
func TestWALTornRecordRejected(t *testing.T) {
	inner := storage.NewMemFS()
	if _, err := dataset.WriteFile(inner, "raw", dataset.NewRandomWalk(), sweepBase, tLen, 42); err != nil {
		t.Fatal(err)
	}
	ffs := storage.NewFaultFS(inner)
	o := sweepOptions(t, ffs)
	o.MemBudgetBytes = 1 << 20 // no flushes: everything lives in the WAL
	ix, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	stream := dataset.Generate(dataset.NewSeismic(), 5, tLen, 13)
	for i := range stream {
		if err := ix.Insert(context.Background(), stream[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Crash()
	ix.Close()

	// Intact image: every acknowledged append replays.
	check := func(rec *storage.MemFS, want int) {
		t.Helper()
		o := sweepOptions(t, rec)
		re, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(re.Count()) - sweepBase; got != want {
			t.Fatalf("recovered %d appended series, want %d", got, want)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check(ffs.Recover(0), len(stream))

	// One flipped byte inside record 2's payload.
	rec := ffs.Recover(0)
	seg := walSegName("lsm", 0)
	data, err := storage.ReadFileAll(rec, seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := walRecHeaderSize + 4 + recordSize
	data[walHeaderSize+2*recLen+walRecHeaderSize+2] ^= 0xff
	if err := storage.WriteFileAll(rec, seg, data); err != nil {
		t.Fatal(err)
	}

	// Strict mode: the rot is detected, never silently dropped.
	if _, err := Open(sweepOptions(t, rec)); !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("open over rotted WAL frame: err = %v, want ErrCorruptData", err)
	}

	// Degraded mode: open succeeds and recovers ALL acknowledged appends
	// from the raw dataset — strictly better than the old lenient replay,
	// which would have silently lost records 2..4.
	o2 := sweepOptions(t, rec)
	o2.AllowDegraded = true
	re, err := Open(o2)
	if err != nil {
		t.Fatalf("degraded open over rotted WAL frame: %v", err)
	}
	if got := int(re.Count()) - sweepBase; got != len(stream) {
		t.Fatalf("degraded recovery found %d appended series, want %d", got, len(stream))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// The reconstruction re-logged everything into a fresh generation; a
	// plain strict reopen of the same image must now succeed.
	check(rec, len(stream))
}

// TestQueriesProceedDuringSlowManifestCommit: the manifest commit happens
// off the handle lock, so a stalled fsync of the manifest temp file (a
// slow device, here a FaultFS hook parking the sync) must not gate
// searches.
func TestQueriesProceedDuringSlowManifestCommit(t *testing.T) {
	inner := storage.NewMemFS()
	if _, err := dataset.WriteFile(inner, "raw", dataset.NewRandomWalk(), 200, tLen, 42); err != nil {
		t.Fatal(err)
	}
	ffs := storage.NewFaultFS(inner)
	var arm atomic.Bool
	block := make(chan struct{})
	var relOnce sync.Once
	release := func() { relOnce.Do(func() { close(block) }) }
	defer release()
	entered := make(chan struct{}, 1)
	tmpName := manifest.FileName("lsm") + ".tmp"
	ffs.SetHook(func(op storage.Op, name string) {
		if op == storage.OpSync && name == tmpName && arm.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-block
		}
	})
	o := sweepOptions(t, ffs)
	o.MemBudgetBytes = 1 << 20
	ix, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	batch := dataset.Generate(dataset.NewSeismic(), 10, tLen, 3)
	if err := ix.Insert(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	q := batch[0]
	want, err := ix.ExactSearch(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}

	arm.Store(true)
	flushDone := make(chan error, 1)
	go func() { flushDone <- ix.Flush() }()
	<-entered // the flush is now parked inside the manifest fsync

	qDone := make(chan error, 1)
	var got core.Result
	go func() {
		var err error
		got, err = ix.ExactSearch(context.Background(), q, 0)
		qDone <- err
	}()
	select {
	case err := <-qDone:
		if err != nil {
			release()
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("ExactSearch blocked behind an in-flight manifest commit")
	}
	release()
	if err := <-flushDone; err != nil {
		t.Fatal(err)
	}
	if got.Pos != want.Pos || got.Dist != want.Dist {
		t.Fatalf("query during commit answered (%d, %v), want (%d, %v)",
			got.Pos, got.Dist, want.Pos, want.Dist)
	}
}
