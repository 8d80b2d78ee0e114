package coconut

// The end-to-end corruption sweep: every class of persistent artifact —
// LSM run file, B+-tree page file, trie leaf file, raw dataset, WAL
// segment — is bit-rotted in turn, on both storage backends and for both
// single and partitioned indexes, and the public API must (1) never
// return a silently wrong answer, (2) surface typed ErrCorruptData from
// strict opens and reads, (3) quarantine and keep serving the healthy
// remainder under AllowDegraded, and (4) restore byte-identical answers
// after Scrub + Repair (the raw dataset, being source data, is the one
// unrepairable class and must say so).

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
)

const (
	sweepLen  = 64
	sweepN    = 400
	sweepQ    = 8
	sweepSeed = 77
)

// sweepFS is the backend contract: any FS that can also enumerate its
// files, so the sweep can locate the artifact to rot.
type sweepFS interface {
	storage.FS
	Names() []string
}

func sweepBackends(t *testing.T) map[string]func(t *testing.T) sweepFS {
	return map[string]func(t *testing.T) sweepFS{
		"memfs": func(t *testing.T) sweepFS { return storage.NewMemFS() },
		"osfs": func(t *testing.T) sweepFS {
			fs, err := storage.NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
}

func sweepSetup(t *testing.T, inner sweepFS) (*storage.FaultFS, []Series) {
	t.Helper()
	ffs := storage.NewFaultFS(inner)
	if err := GenerateDataset(ffs, "data.bin", RandomWalk, sweepN, sweepLen, sweepSeed); err != nil {
		t.Fatal(err)
	}
	qs, err := GenerateQueries(RandomWalk, sweepQ, sweepLen, sweepSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	return ffs, qs
}

func sweepConfig(fs Storage, parts int) Config {
	return Config{
		Storage:      fs,
		Name:         "sw",
		DataFile:     "data.bin",
		SeriesLen:    sweepLen,
		Segments:     8,
		LeafSize:     32,
		Partitions:   parts,
		Workers:      2,
		QueryWorkers: 2,
	}
}

type sweepSearcher interface {
	Search(Series) (Result, error)
}

func sweepBaseline(t *testing.T, ix sweepSearcher, qs []Series) []Result {
	t.Helper()
	base := make([]Result, len(qs))
	for i, q := range qs {
		res, err := ix.Search(q)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		base[i] = res
	}
	return base
}

// requireCorrupt asserts a strict-mode failure is typed, never a panic or
// an untyped error string.
func requireCorrupt(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("corruption went undetected: no error")
	}
	if !errors.Is(err, ErrCorruptData) && !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("corruption error is untyped: %v", err)
	}
}

// assertNoWrongAnswer: with corruption present, each query must either
// fail typed or return exactly the pre-rot answer — a differing answer
// with a nil error is the one forbidden outcome.
func assertNoWrongAnswer(t *testing.T, ix sweepSearcher, qs []Series, base []Result) {
	t.Helper()
	for i, q := range qs {
		res, err := ix.Search(q)
		if err != nil {
			requireCorrupt(t, err)
			continue
		}
		if res.Position != base[i].Position || math.Abs(res.Distance-base[i].Distance) > 1e-9 {
			t.Fatalf("silently wrong answer for query %d: got (pos %d, dist %v), want (pos %d, dist %v)",
				i, res.Position, res.Distance, base[i].Position, base[i].Distance)
		}
	}
}

// assertDegradedAnswers: a degraded index answers over the healthy
// remainder — a subset of the records — so every answer must be no closer
// than the true nearest neighbor.
func assertDegradedAnswers(t *testing.T, ix sweepSearcher, qs []Series, base []Result) {
	t.Helper()
	for i, q := range qs {
		res, err := ix.Search(q)
		if err != nil {
			requireCorrupt(t, err)
			continue
		}
		if res.Distance < base[i].Distance-1e-9 {
			t.Fatalf("degraded answer for query %d is impossibly better than the true NN: %v < %v",
				i, res.Distance, base[i].Distance)
		}
	}
}

// assertExactAnswers: after repair, answers must be byte-identical to the
// pre-rot baseline.
func assertExactAnswers(t *testing.T, ix sweepSearcher, qs []Series, base []Result) {
	t.Helper()
	for i, q := range qs {
		res, err := ix.Search(q)
		if err != nil {
			t.Fatalf("post-repair query %d: %v", i, err)
		}
		if res.Position != base[i].Position || math.Abs(res.Distance-base[i].Distance) > 1e-9 {
			t.Fatalf("post-repair answer for query %d differs: got (pos %d, dist %v), want (pos %d, dist %v)",
				i, res.Position, res.Distance, base[i].Position, base[i].Distance)
		}
	}
}

// findLargest returns the largest file whose name contains substr (the
// largest is the one guaranteed to hold data, e.g. a WAL segment with
// acknowledged frames).
func findLargest(t *testing.T, fs sweepFS, substr string) string {
	t.Helper()
	var best string
	var bestSize int64 = -1
	for _, n := range fs.Names() {
		if !strings.Contains(n, substr) {
			continue
		}
		f, err := fs.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if size > bestSize {
			best, bestSize = n, size
		}
	}
	if best == "" {
		t.Fatalf("no file matching %q in %v", substr, fs.Names())
	}
	return best
}

// requireScrubFlags runs Scrub and asserts it reports exactly the rotted
// file as corrupt (detection must be precise, not just "something broke").
func requireScrubFlags(t *testing.T, fs Storage, name, file string) {
	t.Helper()
	rep, err := Scrub(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("scrub missed the corruption in %q", file)
	}
	for _, f := range rep.Corrupt() {
		if f.File != file {
			t.Fatalf("scrub flags %q (%v), but only %q was rotted", f.File, f.Err, file)
		}
		requireCorrupt(t, f.Err)
	}
}

func requireRepairClean(t *testing.T, fs Storage, name string) {
	t.Helper()
	rep, err := Repair(Config{Storage: fs, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, f := range rep.Corrupt() {
			t.Errorf("still corrupt after repair: %s: %v", f.File, f.Err)
		}
		t.FailNow()
	}
}

func TestCorruptionSweep(t *testing.T) {
	for beName, mkFS := range sweepBackends(t) {
		for _, parts := range []int{1, 3} {
			prefix := fmt.Sprintf("%s/parts=%d/", beName, parts)
			t.Run(prefix+"tree-page", func(t *testing.T) { sweepTreePage(t, mkFS(t), parts) })
			t.Run(prefix+"trie-leaf", func(t *testing.T) { sweepTrieLeaf(t, mkFS(t), parts) })
			t.Run(prefix+"lsm-run", func(t *testing.T) { sweepLSMRun(t, mkFS(t), parts) })
			t.Run(prefix+"raw", func(t *testing.T) { sweepRaw(t, mkFS(t), parts) })
			t.Run(prefix+"wal", func(t *testing.T) { sweepWAL(t, mkFS(t), parts) })
		}
	}
}

// sweepTreePage rots the first page block of a B+-tree leaf file. Tree
// pages are read lazily, so the open may succeed; the SIMS pass of every
// exact search reads the leaves, so detection lands on the first query.
func sweepTreePage(t *testing.T, inner sweepFS, parts int) {
	ffs, qs := sweepSetup(t, inner)
	ix, err := BuildTreeIndex(sweepConfig(ffs, parts))
	if err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	leaves := findLargest(t, inner, ".leaves")
	if err := ffs.Rot(leaves, storage.ChecksumHeaderSize+4, 8); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTreeIndex(Config{Storage: ffs, Name: "sw"})
	if err != nil {
		requireCorrupt(t, err)
	} else {
		assertNoWrongAnswer(t, re, qs, base)
		re.Close()
	}
	requireScrubFlags(t, ffs, "sw", leaves)
	requireRepairClean(t, ffs, "sw")

	re2, err := OpenTreeIndex(Config{Storage: ffs, Name: "sw"})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	assertExactAnswers(t, re2, qs, base)
}

// sweepTrieLeaf rots a trie leaf block. The trie reloads every leaf at
// open, so strict opens fail typed; a partitioned open with AllowDegraded
// quarantines the damaged child and serves the remainder.
func sweepTrieLeaf(t *testing.T, inner sweepFS, parts int) {
	ffs, qs := sweepSetup(t, inner)
	ix, err := BuildTrieIndex(sweepConfig(ffs, parts))
	if err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	leaves := findLargest(t, inner, ".leaves")
	if err := ffs.Rot(leaves, storage.ChecksumHeaderSize+4, 8); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenTrieIndex(Config{Storage: ffs, Name: "sw"}); err == nil {
		t.Fatal("strict open of a rotted trie succeeded")
	} else {
		requireCorrupt(t, err)
	}
	if parts > 1 {
		dx, err := OpenTrieIndex(Config{Storage: ffs, Name: "sw", AllowDegraded: true})
		if err != nil {
			t.Fatalf("degraded open: %v", err)
		}
		if !dx.Degraded() {
			t.Fatal("degraded open did not report Degraded()")
		}
		assertDegradedAnswers(t, dx, qs, base)
		if err := dx.Close(); err != nil {
			t.Fatal(err)
		}
	}
	requireScrubFlags(t, ffs, "sw", leaves)
	requireRepairClean(t, ffs, "sw")

	re, err := OpenTrieIndex(Config{Storage: ffs, Name: "sw"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Degraded() {
		t.Fatal("repaired index still degraded")
	}
	assertExactAnswers(t, re, qs, base)
}

// sweepLSMRun rots a sorted-run key block. The run's keys are reloaded at
// open, so strict opens fail typed; AllowDegraded quarantines the run and
// Repair re-derives it from the raw dataset.
func sweepLSMRun(t *testing.T, inner sweepFS, parts int) {
	ffs, qs := sweepSetup(t, inner)
	ix, err := BuildLSMIndex(sweepConfig(ffs, parts))
	if err != nil {
		t.Fatal(err)
	}
	// A second, smaller run: quarantining the bulk run must leave a
	// healthy remainder to serve degraded queries from.
	extra, err := GenerateQueries(Astronomy, 30, sweepLen, sweepSeed+3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	run := findLargest(t, inner, ".run.")
	if err := ffs.Rot(run, storage.ChecksumHeaderSize+4, 8); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenLSMIndex(Config{Storage: ffs, Name: "sw"}); err == nil {
		t.Fatal("strict open of a rotted run succeeded")
	} else {
		requireCorrupt(t, err)
	}
	requireScrubFlags(t, ffs, "sw", run)

	dx, err := OpenLSMIndex(Config{Storage: ffs, Name: "sw", AllowDegraded: true})
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	if !dx.Degraded() {
		t.Fatal("degraded open did not report Degraded()")
	}
	assertDegradedAnswers(t, dx, qs, base)
	if err := dx.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if dx.Degraded() {
		t.Fatal("index still degraded after Repair")
	}
	// Repair must restore the exact record multiset: a partition child
	// rebuilding from the shared raw dataset must not re-index records
	// its siblings own.
	if got := dx.Count(); got != sweepN+30 {
		t.Fatalf("repaired index holds %d records, want %d", got, sweepN+30)
	}
	assertExactAnswers(t, dx, qs, base)
	if err := dx.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(ffs, "sw")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("scrub not clean after repair: %+v", rep.Corrupt())
	}
	re, err := OpenLSMIndex(Config{Storage: ffs, Name: "sw"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertExactAnswers(t, re, qs, base)
}

// sweepRaw rots the tail record of the raw dataset. The dataset is source
// data: reads that touch the record fail typed, scrub pinpoints the file,
// and Repair must refuse — nothing can re-derive it.
func sweepRaw(t *testing.T, inner sweepFS, parts int) {
	ffs, qs := sweepSetup(t, inner)
	ix, err := BuildTreeIndex(sweepConfig(ffs, parts))
	if err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	recSize := int64(sweepLen * 8)
	if err := ffs.Rot("data.bin", int64(sweepN)*recSize-recSize+3, 4); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTreeIndex(Config{Storage: ffs, Name: "sw"})
	if err != nil {
		requireCorrupt(t, err)
	} else {
		assertNoWrongAnswer(t, re, qs, base)
		re.Close()
	}
	requireScrubFlags(t, ffs, "sw", "data.bin")
	if _, err := Repair(Config{Storage: ffs, Name: "sw"}); err == nil {
		t.Fatal("repair claimed to fix rotted source data")
	} else if !errors.Is(err, ErrCorruptData) {
		t.Fatalf("repair refusal is untyped: %v", err)
	}
}

// sweepWAL crashes an LSM mid-stream so a WAL segment with acknowledged
// frames survives, rots a full frame, and requires: strict replay fails
// typed (a full-frame CRC mismatch can only be rot, never a torn write),
// and Repair reconstructs the acknowledged tail from the raw dataset.
func sweepWAL(t *testing.T, inner sweepFS, parts int) {
	ffs, qs := sweepSetup(t, inner)
	ix, err := BuildLSMIndex(sweepConfig(ffs, parts))
	if err != nil {
		t.Fatal(err)
	}
	extra, err := GenerateQueries(Astronomy, 10, sweepLen, sweepSeed+2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	ffs.Crash()
	// The durable image is what a machine reboot leaves behind; the WAL
	// holds the acknowledged inserts (Recover always images into memory,
	// regardless of backend).
	img := ffs.Recover(0)
	wal := findLargest(t, img, ".wal.")
	rfs := storage.NewFaultFS(img)
	if err := rfs.Rot(wal, 16+8+1, 4); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenLSMIndex(Config{Storage: img, Name: "sw"}); err == nil {
		t.Fatal("strict open of a rotted WAL succeeded")
	} else {
		requireCorrupt(t, err)
	}
	requireScrubFlags(t, img, "sw", wal)
	requireRepairClean(t, img, "sw")

	re, err := OpenLSMIndex(Config{Storage: img, Name: "sw"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Count(); got != sweepN+10 {
		t.Fatalf("repaired index holds %d records, want %d", got, sweepN+10)
	}
	assertExactAnswers(t, re, qs, base)
}
