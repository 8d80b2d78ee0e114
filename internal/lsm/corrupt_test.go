package lsm

// Bit-rot tests for the LSM artifacts: a rotted run file is detected at
// Open by the run codec's own CRCs — the file's one integrity layer, which
// leaves no byte of it unchecked — (strict: typed failure; degraded:
// quarantine over the healthy remainder, repairable from the raw dataset),
// and a rotted raw record is detected at fetch time: the index never
// returns a silently wrong answer from corrupted bytes.

import (
	"context"
	"errors"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

const corruptBase = 64

// corruptSeed builds an LSM index with enough appends to leave several
// runs, closes it cleanly, and returns the FaultFS whose Recover clones
// independent durable images for each corruption scenario.
func corruptSeed(t *testing.T) *storage.FaultFS {
	t.Helper()
	inner := storage.NewMemFS()
	if _, err := dataset.WriteFile(inner, "raw", dataset.NewRandomWalk(), corruptBase, tLen, 42); err != nil {
		t.Fatal(err)
	}
	ffs := storage.NewFaultFS(inner)
	ix, err := Build(sweepOptions(t, ffs))
	if err != nil {
		t.Fatal(err)
	}
	stream := dataset.Generate(dataset.NewSeismic(), 40, tLen, 911)
	for i := range stream {
		if err := ix.Insert(context.Background(), stream[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return ffs
}

// pickRun returns the name and count of a manifest-referenced non-bulk run.
func pickRun(t *testing.T, fs storage.FS) (string, int64) {
	t.Helper()
	m, err := manifest.Load(fs, "lsm")
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range m.LSM.Runs {
		if ri.Tier != manifest.BulkTier {
			return ri.Name, ri.Count
		}
	}
	t.Fatal("no non-bulk run in manifest")
	return "", 0
}

func rotFile(t *testing.T, fs storage.FS, name string, off int64) {
	t.Helper()
	data, err := storage.ReadFileAll(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if off >= int64(len(data)) {
		t.Fatalf("rot offset %d beyond %q (%d bytes)", off, name, len(data))
	}
	data[off] ^= 0xa5
	if err := storage.WriteFileAll(fs, name, data); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRottedRunStrictAndQuarantine rots one byte of a run in each of
// the three regions the run codec checks — a block, the directory, the
// footer — and follows each through strict open, quarantine and repair.
func TestOpenRottedRunStrictAndQuarantine(t *testing.T) {
	const footer, dirEntry = 88, summary.KeySize + 8 + 4 // runblock's footer and directory entry
	cases := []struct {
		name  string
		rotAt func(size int64) int64
	}{
		// Past the 16-byte codec header and the 8-byte block head, squarely
		// inside the front-coded payload the codec's block CRC covers.
		{"block-crc-only", func(int64) int64 { return 16 + 8 + 2 }},
		// The last directory entry's record count.
		{"directory", func(size int64) int64 { return size - footer - dirEntry + summary.KeySize + 8 }},
		// The footer's record count.
		{"footer", func(size int64) int64 { return size - footer + 16 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { rottedRunStrictAndQuarantine(t, tc.rotAt) })
	}
}

func rottedRunStrictAndQuarantine(t *testing.T, rotAt func(size int64) int64) {
	ffs := corruptSeed(t)
	queries := dataset.Queries(dataset.NewRandomWalk(), 4, tLen, 321)

	// Reference answers from an intact image.
	ref, err := Open(sweepOptions(t, ffs.Recover(0)))
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Count()
	type answer struct {
		pos  int64
		dist float64
	}
	refAns := make([]answer, len(queries))
	for i, q := range queries {
		r, err := ref.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		refAns[i] = answer{r.Pos, r.Dist}
	}
	ref.Close()

	img := ffs.Recover(0)
	victim, victimCount := pickRun(t, img)
	data, err := storage.ReadFileAll(img, victim)
	if err != nil {
		t.Fatal(err)
	}
	rotFile(t, img, victim, rotAt(int64(len(data))))

	// Strict open: typed, loud, no panic — and typed as BOTH the stored-
	// bytes corruption and the broken-manifest-promise error.
	if _, err := Open(sweepOptions(t, img)); !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("strict open over rotted run: err = %v, want ErrCorruptData", err)
	} else if !errors.Is(err, manifest.ErrCorruptManifest) {
		t.Fatalf("strict open over rotted run: err = %v, want ErrCorruptManifest too", err)
	}

	// Degraded open: the rotted run is quarantined, queries answer over the
	// healthy remainder, and no answer can be better than the full index's.
	o := sweepOptions(t, img)
	o.AllowDegraded = true
	ix, err := Open(o)
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	if !ix.Degraded() {
		t.Fatal("index over a rotted run is not Degraded")
	}
	if names := ix.QuarantinedRuns(); len(names) != 1 || names[0] != victim {
		t.Fatalf("QuarantinedRuns() = %v, want [%s]", names, victim)
	}
	if got := ix.Count(); got != total-victimCount {
		t.Fatalf("degraded Count() = %d, want %d - %d", got, total, victimCount)
	}
	for i, q := range queries {
		r, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatalf("degraded exact query %d: %v", i, err)
		}
		if r.Dist < refAns[i].dist {
			t.Fatalf("degraded query %d returned distance %v better than full index's %v — corrupt bytes leaked into an answer",
				i, r.Dist, refAns[i].dist)
		}
	}

	// Repair: the quarantined run's records are re-derived from the raw
	// dataset; answers are byte-identical to the reference afterwards.
	if err := ix.RebuildQuarantined(); err != nil {
		t.Fatalf("RebuildQuarantined: %v", err)
	}
	if ix.Degraded() {
		t.Fatal("index still Degraded after RebuildQuarantined")
	}
	if got := ix.Count(); got != total {
		t.Fatalf("repaired Count() = %d, want %d", got, total)
	}
	for i, q := range queries {
		r, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatalf("repaired exact query %d: %v", i, err)
		}
		if r.Pos != refAns[i].pos || r.Dist != refAns[i].dist {
			t.Fatalf("repaired query %d: got (%d, %v), reference (%d, %v)",
				i, r.Pos, r.Dist, refAns[i].pos, refAns[i].dist)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// The repaired image reopens strict: the corrupt file is gone and the
	// manifest no longer references it.
	re, err := Open(sweepOptions(t, img))
	if err != nil {
		t.Fatalf("strict reopen after repair: %v", err)
	}
	if re.Count() != total {
		t.Fatalf("reopened Count() = %d, want %d", re.Count(), total)
	}
	re.Close()
}

// TestRawRotDetectedAtFetch: flipping a byte of one raw record makes any
// query that would fetch it fail with ErrCorruptData — never a silently
// wrong distance computed from rotted bytes.
func TestRawRotDetectedAtFetch(t *testing.T) {
	ffs := corruptSeed(t)
	img := ffs.Recover(0)

	// Query with an exact member of the bulk dataset, then rot that very
	// record: its indexed key (clean) lower-bounds to ~0, so evaluation
	// must fetch it first.
	victim := dataset.Generate(dataset.NewRandomWalk(), corruptBase, tLen, 42)[7]
	recSize := int64(series.EncodedSize(tLen))
	rotFile(t, img, "raw", 7*recSize+3)

	ix, err := Open(sweepOptions(t, img))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.ExactSearch(context.Background(), victim, 0); !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("exact search over rotted raw record: err = %v, want ErrCorruptData", err)
	}
	if _, err := ix.ApproxSearch(context.Background(), victim, 0); !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("approx search over rotted raw record: err = %v, want ErrCorruptData", err)
	}
}

// TestRunFileEveryByteCovered pins that the run codec alone leaves no byte
// of a run file unchecked: in a run of three blocks written by the LSM's own
// bulk-load writer, each byte is flipped in turn, and at every offset a
// strict Open fails with ErrCorruptData while a degraded Open quarantines
// the run.
func TestRunFileEveryByteCovered(t *testing.T) {
	const n = 3*runblock.DefaultBlockRecords - 100 // the last block partial
	inner := storage.NewMemFS()
	if _, err := dataset.WriteFile(inner, "raw", dataset.NewRandomWalk(), n, tLen, 5); err != nil {
		t.Fatal(err)
	}
	ffs := storage.NewFaultFS(inner)
	strict := Options{FS: ffs, Name: "lsm", S: tSummarizer(t), RawName: "raw"}
	ix, err := Build(strict)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	run := pickBulkRun(t, ffs)
	f, err := ffs.Open(run)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := runblock.OpenReader(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blocks := rb.NumBlocks(); blocks != 3 {
		t.Fatalf("run %s holds %d blocks, want 3", run, blocks)
	}
	rb.Close()

	degraded := strict
	degraded.AllowDegraded = true
	for off := int64(0); off < size; off++ {
		if err := ffs.Rot(run, off, 1); err != nil {
			t.Fatal(err)
		}
		if ix, err := Open(strict); !errors.Is(err, storage.ErrCorruptData) {
			if err == nil {
				ix.Close()
			}
			t.Fatalf("byte %d of %d flipped: strict open: %v, want ErrCorruptData", off, size, err)
		}
		ix, err := Open(degraded)
		if err != nil {
			t.Fatalf("byte %d of %d flipped: degraded open: %v", off, size, err)
		}
		quarantined := ix.QuarantinedRuns()
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		if len(quarantined) != 1 || quarantined[0] != run {
			t.Fatalf("byte %d of %d flipped: degraded open quarantined %v, want [%s]", off, size, quarantined, run)
		}
		if err := ffs.Rot(run, off, 1); err != nil { // XOR again: the byte is restored
			t.Fatal(err)
		}
	}
	ix, err = Open(strict)
	if err != nil {
		t.Fatalf("restored run: strict open: %v", err)
	}
	if ix.Count() != n {
		t.Fatalf("restored run: Count = %d, want %d", ix.Count(), n)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// pickBulkRun returns the name of the manifest's bulk-loaded run.
func pickBulkRun(t *testing.T, fs storage.FS) string {
	t.Helper()
	m, err := manifest.Load(fs, "lsm")
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range m.LSM.Runs {
		if ri.Tier == manifest.BulkTier {
			return ri.Name
		}
	}
	t.Fatal("no bulk run in manifest")
	return ""
}
