package bptree

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
)

// TestReadPageTruncatedFile covers the typed short-read path: a leaf file
// cut below what the directory claims yields ErrCorruptPage (and hence
// storage.ErrCorruptData), never raw ReadAt semantics.
func TestReadPageTruncatedFile(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(100, 3), nil)
	dir := slices.Clone(tree.Leaves())
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	name := tree.cfg.leafFileName()
	data, err := storage.ReadFileAll(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteFileAll(fs, name, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	re, err := Open(testConfig(fs), dir)
	if err != nil {
		// The open may already detect the cut (torn trailing block); that
		// is a valid typed outcome.
		if !errors.Is(err, storage.ErrCorruptData) {
			t.Fatalf("open error %v is not ErrCorruptData", err)
		}
		return
	}
	defer re.Close()
	err = re.ScanAll(func([]byte) error { return nil })
	if !errors.Is(err, ErrCorruptPage) || !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("scan over truncated file: %v, want ErrCorruptPage wrapping ErrCorruptData", err)
	}
}

// TestOpenRejectsOtherPageSize: a leaf file whose blocks are not pages of
// the configured geometry is a different tree's, and fails Open typed.
func TestOpenRejectsOtherPageSize(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(50, 4), nil)
	dir := slices.Clone(tree.Leaves())
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(fs)
	cfg.LeafCap++
	if _, err := Open(cfg, dir); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("open with leaf capacity %d: %v, want ErrCorruptPage", cfg.LeafCap, err)
	}
}

// TestPagesWrittenAfterSyncFailTyped: inserts rewrite pages in place, so a
// crash after them leaves pages newer than the last committed directory.
// Every such page fails typed against that directory — an in-place insert,
// a split, and a split whose lower half refilled to the committed count,
// which only its stamp tells apart — both when read and under Verify.
func TestPagesWrittenAfterSyncFailTyped(t *testing.T) {
	cases := map[string]struct {
		fill float64
		keys []uint64
	}{
		"in-place":       {0.5, []uint64{1}},
		"split":          {1, []uint64{1}},
		"split-refilled": {1, []uint64{1, 1, 1, 1}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			fs := storage.NewMemFS()
			recs := make([][]byte, 40)
			for i := range recs {
				recs[i] = mkRecord(uint64(10*i+10), uint64(i))
			}
			tree := buildTree(t, fs, recs, func(c *Config) { c.FillFactor = tc.fill })
			if err := tree.Sync(); err != nil {
				t.Fatal(err)
			}
			committed := slices.Clone(tree.Leaves())
			want := collect(t, tree)
			for i, k := range tc.keys {
				if err := tree.Insert(mkRecord(k, uint64(100+i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.DropCache(); err != nil {
				t.Fatal(err)
			}
			if got := tree.Leaves()[0].Count; got != committed[0].Count && name == "split-refilled" {
				t.Fatalf("refilled lower half holds %d records, committed %d", got, committed[0].Count)
			}
			re, err := Open(testConfig(fs), slices.Clone(committed))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if err := re.ScanAll(func([]byte) error { return nil }); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("scan against the committed directory: %v, want ErrCorruptPage", err)
			}
			if _, err := Verify(testConfig(fs), slices.Clone(committed)); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("verify against the committed directory: %v, want ErrCorruptPage", err)
			}
			// The live directory describes the pages: a second Sync commits it.
			if err := tree.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := Verify(testConfig(fs), slices.Clone(tree.Leaves())); err != nil {
				t.Fatalf("verify against the live directory: %v", err)
			}
			if got := collect(t, tree); len(got) != len(want)+len(tc.keys) || !bytes.Equal(got[len(tc.keys)], want[0]) {
				t.Fatalf("%d records after the inserts, want %d", len(got), len(want)+len(tc.keys))
			}
		})
	}
}

// TestFailedPageLoadLeavesCacheEmpty: an insert whose page fails to load
// must not leave the write-back cache claiming the previously cached page
// while holding the bytes of the failed one.
func TestFailedPageLoadLeavesCacheEmpty(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(40, 8), func(c *Config) { c.FillFactor = 0.5 })
	defer tree.Close()
	want := collect(t, tree)
	if err := tree.Insert(mkRecord(0, 1)); err != nil { // caches leaf 0
		t.Fatal(err)
	}
	want = append([][]byte{mkRecord(0, 1)}, want...)
	last := len(tree.dir) - 1
	tree.dir[last].Stamp++ // the last leaf's page no longer matches its entry
	if err := tree.Insert(mkRecord(1<<62, 2)); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("insert into a mismatched page: %v, want ErrCorruptPage", err)
	}
	tree.dir[last].Stamp--
	if !slices.EqualFunc(want, collect(t, tree), bytes.Equal) {
		t.Fatal("records changed after a failed page load")
	}
}

// TestChecksummedTreeRoundTrip proves the checksummed page file is
// transparent to every tree operation: bulk load, inserts with median
// splits (in-place rewrites of whole pages), sync, reopen and scans return
// exactly the records that went in.
func TestChecksummedTreeRoundTrip(t *testing.T) {
	recs := sortedRecords(300, 5)
	fs := storage.NewMemFS()
	tr := buildTree(t, fs, recs, nil)
	for i := 0; i < 60; i++ {
		rec := mkRecord(uint64(i*7+3), uint64(1000+i))
		if err := tr.Insert(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := checkDir(tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	want := collect(t, tr)
	if len(want) != len(recs) {
		t.Fatalf("scan returned %d records, %d went in", len(want), len(recs))
	}
	dir := slices.Clone(tr.Leaves())
	tr.Close()

	re, err := Open(testConfig(fs), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !slices.EqualFunc(want, collect(t, re), bytes.Equal) {
		t.Fatal("records differ after reopen")
	}
}

// TestChecksummedTreeDetectsRot flips one payload byte of a page on disk
// and asserts the read path and Verify report typed corruption rather than
// serving the page.
func TestChecksummedTreeDetectsRot(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(200, 6), nil)
	dir := slices.Clone(tree.Leaves())
	tree.Close()
	ff := storage.NewFaultFS(fs)
	// Flip a byte inside the second page's payload (past header + CRC).
	off := int64(storage.ChecksumHeaderSize) + (4 + tree.cfg.pageSize()) + 4 + 17
	if err := ff.Rot(tree.cfg.leafFileName(), off, 1); err != nil {
		t.Fatal(err)
	}
	re, err := Open(testConfig(fs), slices.Clone(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	err = re.ScanAll(func([]byte) error { return nil })
	if !errors.Is(err, ErrCorruptPage) || !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("scan over rotted page: %v, want ErrCorruptPage", err)
	}
	if pages, err := Verify(testConfig(fs), dir); !errors.Is(err, storage.ErrCorruptData) || pages != 1 {
		t.Fatalf("verify over rotted page 1: %d pages, %v; want the failure at page 1", pages, err)
	}
}
