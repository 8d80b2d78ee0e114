package lsm

// Bit-rot tests for the LSM artifacts: a rotted run file fails Open typed,
// detected by the run codec's own CRCs — the file's one integrity layer,
// which leaves no byte of it unchecked (the every-byte sweep and the repair
// by rebuild live in the public package) — and a rotted raw record is
// detected at fetch time: the index never returns a silently wrong answer
// from corrupted bytes.

import (
	"context"
	"errors"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
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
	ix, err := buildLone(sweepOptions(t, ffs))
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

// pickRun returns the name of a manifest-referenced non-bulk run.
func pickRun(t *testing.T, fs storage.FS) string {
	t.Helper()
	m, err := manifest.Load(fs, "lsm")
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range m.LSM.Runs {
		if ri.Tier != manifest.BulkTier {
			return ri.Name
		}
	}
	t.Fatal("no non-bulk run in manifest")
	return ""
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

// TestOpenRottedRunFailsTyped rots one byte of a run in each of the three
// regions the run codec checks — a block, the directory, the footer — and
// asserts each fails Open typed.
func TestOpenRottedRunFailsTyped(t *testing.T) {
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
	ffs := corruptSeed(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := ffs.Recover(0)
			victim := pickRun(t, img)
			data, err := storage.ReadFileAll(img, victim)
			if err != nil {
				t.Fatal(err)
			}
			rotFile(t, img, victim, tc.rotAt(int64(len(data))))
			// Typed as BOTH the stored-bytes corruption and the
			// broken-manifest-promise error.
			if _, err := openLone(sweepOptions(t, img)); !errors.Is(err, storage.ErrCorruptData) {
				t.Fatalf("open over rotted run: err = %v, want ErrCorruptData", err)
			} else if !errors.Is(err, manifest.ErrCorruptManifest) {
				t.Fatalf("open over rotted run: err = %v, want ErrCorruptManifest too", err)
			}
		})
	}
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

	ix, err := openLone(sweepOptions(t, img))
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
