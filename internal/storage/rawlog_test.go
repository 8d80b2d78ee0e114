package storage

// Tests of the raw file as the log: RecordSums is the one append and commit
// point of every index, and the sidecar's persisted length is the
// acknowledged end of the dataset.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const logRecSize = 16

func logRecord(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, logRecSize) }

// logSeed writes n records and their sidecar to a fresh MemFS.
func logSeed(t *testing.T, n int) *MemFS {
	t.Helper()
	fs := NewMemFS()
	var data []byte
	for i := 0; i < n; i++ {
		data = append(data, logRecord(i)...)
	}
	if err := WriteFileAll(fs, "raw", data); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildRecordSums(fs, "raw", logRecSize); err != nil {
		t.Fatal(err)
	}
	return fs
}

func loadLog(t *testing.T, fs FS) *RecordSums {
	t.Helper()
	raw, err := fs.Open("raw")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	r, err := LoadRecordSums(fs, "raw", logRecSize, raw)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRawLogEndIsTheSidecar: raw bytes past the sidecar's end were never
// acknowledged — the log ends where the sidecar does, the next append
// overwrites them — while a raw file shorter than its sidecar is refused.
func TestRawLogEndIsTheSidecar(t *testing.T) {
	fs := logSeed(t, 10)
	raw, err := fs.Open("raw")
	if err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{0xEE}, logRecSize+logRecSize/2)
	if _, err := raw.WriteAt(garbage, 10*logRecSize); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	r := loadLog(t, fs)
	if r.Records() != 10 {
		t.Fatalf("log holds %d records, want the sidecar's 10", r.Records())
	}
	if pos, err := r.Append(logRecord(10)); err != nil || pos != 10 {
		t.Fatalf("Append: pos %d, %v; want 10", pos, err)
	}
	if err := r.Commit(context.Background(), 11); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := VerifyRecordSums(fs, "raw", logRecSize); err != nil || n != 11 {
		t.Fatalf("VerifyRecordSums: %d, %v; want 11 records", n, err)
	}
	data, err := ReadFileAll(fs, "raw")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[10*logRecSize:11*logRecSize], logRecord(10)) {
		t.Fatal("the append did not overwrite the unacknowledged tail")
	}
	if err := WriteFileAll(fs, "raw", data[:10*logRecSize]); err != nil {
		t.Fatal(err)
	}
	raw, err = fs.Open("raw")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := LoadRecordSums(fs, "raw", logRecSize, raw); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("raw file shorter than its sidecar: %v, want ErrCorruptData", err)
	}
}

// TestRawLogCrashAtEveryOp power-fails an append and its commit at every
// counted operation: the recovered log holds the seed, or the seed plus the
// appended record, never anything else, and always verifies clean — a
// persisted entry never describes raw bytes that were lost.
func TestRawLogCrashAtEveryOp(t *testing.T) {
	run := func(ffs *FaultFS) error {
		r := loadLog(t, ffs)
		defer r.Close()
		if _, err := r.Append(logRecord(10)); err != nil {
			return err
		}
		return r.Commit(context.Background(), 11)
	}
	dry := NewFaultFS(logSeed(t, 10))
	if err := run(dry); err != nil {
		t.Fatal(err)
	}
	total := dry.OpCount()
	if total != 4 {
		t.Fatalf("an append and its commit took %d counted ops, want 4 (raw write, raw sync, entry write, sidecar sync)", total)
	}
	for k := int64(1); k <= total; k++ {
		for torn := 0; torn < 6; torn++ {
			ffs := NewFaultFS(logSeed(t, 10))
			ffs.PowerLossAt(k)
			acked := run(ffs) == nil
			rec := ffs.Recover(torn)
			n, err := VerifyRecordSums(rec, "raw", logRecSize)
			if err != nil {
				t.Fatalf("crash at op %d (torn %d): %v", k, torn, err)
			}
			if n < 10 || n > 11 || (acked && n != 11) {
				t.Fatalf("crash at op %d (torn %d): %d records recovered, acknowledged=%v", k, torn, n, acked)
			}
		}
	}
}

// TestRawLogFailedFsyncIsSticky: a failed fsync — of the raw file or of the
// sidecar — fails the commit and poisons the log: every later Append and
// Commit returns it, even though the device would now succeed.
func TestRawLogFailedFsyncIsSticky(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   int64 // counted ops after the append: raw sync, entry write, sidecar sync
	}{{"raw", 1}, {"sidecar", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := NewFaultFS(logSeed(t, 10))
			r := loadLog(t, ffs)
			defer r.Close()
			if _, err := r.Append(logRecord(10)); err != nil {
				t.Fatal(err)
			}
			ffs.FailAt(ffs.OpCount() + tc.op)
			if err := r.Commit(context.Background(), 11); !errors.Is(err, ErrInjected) {
				t.Fatalf("commit over a failed fsync: %v, want ErrInjected", err)
			}
			if _, err := r.Append(logRecord(11)); !errors.Is(err, ErrInjected) {
				t.Fatalf("append after a failed fsync: %v, want ErrInjected", err)
			}
			if err := r.Commit(context.Background(), 10); !errors.Is(err, ErrInjected) {
				t.Fatalf("commit after a failed fsync: %v, want ErrInjected", err)
			}
		})
	}
}

// TestRawLogGroupCommit: appenders that arrive while a round's fsync is in
// flight share the next round instead of each paying a pair.
func TestRawLogGroupCommit(t *testing.T) {
	const writers = 8
	ffs := NewFaultFS(logSeed(t, 10))
	var rawSyncs, sideSyncs atomic.Int64
	ffs.SetHook(func(op Op, name string) {
		if op != OpSync {
			return
		}
		if name == "raw" && rawSyncs.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond) // the first round is slow: the rest pile up
		}
		if name == RecordSumsName("raw") {
			sideSyncs.Add(1)
		}
	})
	r := loadLog(t, ffs)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pos, err := r.Append(logRecord(10 + w))
			if err == nil {
				err = r.Commit(context.Background(), pos+1)
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sideSyncs.Load(); n >= writers || n != rawSyncs.Load() {
		t.Fatalf("%d acknowledged appends took %d raw and %d sidecar fsyncs, want fewer shared pairs", writers, rawSyncs.Load(), n)
	}
	if n, err := VerifyRecordSums(ffs.Recover(0), "raw", logRecSize); err != nil || n != 10+writers {
		t.Fatalf("recovered %d records (%v), want %d", n, err, 10+writers)
	}
}

// TestRawLogAbandonedWaitStillCommits: a caller whose context ends while its
// round is in flight returns ctx.Err() at once, and the round still makes
// the record durable.
func TestRawLogAbandonedWaitStillCommits(t *testing.T) {
	ffs := NewFaultFS(logSeed(t, 10))
	release := make(chan struct{})
	ffs.SetHook(func(op Op, name string) {
		if op == OpSync && name == RecordSumsName("raw") {
			<-release
		}
	})
	r := loadLog(t, ffs)
	if _, err := r.Append(logRecord(10)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Commit(ctx, 11); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("commit past its deadline: %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if err := r.Close(); err != nil { // waits the round out
		t.Fatal(err)
	}
	if n, err := VerifyRecordSums(ffs.Recover(0), "raw", logRecSize); err != nil || n != 11 {
		t.Fatalf("recovered %d records (%v), want the abandoned wait's 11", n, err)
	}
}
