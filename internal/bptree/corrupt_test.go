package bptree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
)

// TestReadPageTruncatedFile covers the typed short-read path: a leaf file
// cut below what the directory claims yields ErrCorruptPage (and hence
// storage.ErrCorruptData), never raw ReadAt semantics.
func TestReadPageTruncatedFile(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(100, 3), nil)
	if err := tree.Save(); err != nil {
		t.Fatal(err)
	}
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
	re, err := Open(Config{FS: fs, Name: tree.cfg.Name})
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

// TestReadPageOutOfRange covers the typed out-of-range path.
func TestReadPageOutOfRange(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(50, 4), nil)
	defer tree.Close()
	buf := make([]byte, tree.cfg.pageSize())
	for _, id := range []int64{-1, tree.nextPage, tree.nextPage + 10} {
		if err := tree.readPage(id, buf); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("readPage(%d): %v, want ErrCorruptPage", id, err)
		}
		if _, err := tree.loadPage(id); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("loadPage(%d): %v, want ErrCorruptPage", id, err)
		}
	}
}

// TestChecksummedTreeRoundTrip proves the checksummed page file is
// transparent to every tree operation: bulk load, inserts with median
// splits (in-place rewrites of whole pages), save, reopen and scans return
// exactly the records that went in.
func TestChecksummedTreeRoundTrip(t *testing.T) {
	recs := sortedRecords(300, 5)
	collect := func(tr *Tree) [][]byte {
		var out [][]byte
		if err := tr.ScanAll(func(rec []byte) error {
			out = append(out, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	fs := storage.NewMemFS()
	tr := buildTree(t, fs, recs, nil)
	for i := 0; i < 60; i++ {
		rec := mkRecord(uint64(i*7+3), uint64(1000+i))
		if err := tr.Insert(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(); err != nil {
		t.Fatal(err)
	}
	want := collect(tr)
	if len(want) != len(recs) {
		t.Fatalf("scan returned %d records, %d went in", len(want), len(recs))
	}
	tr.Close()

	re, err := Open(Config{FS: fs, Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := collect(re)
	if len(got) != len(want) {
		t.Fatalf("reopened scan returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("record %d differs after reopen", i)
		}
	}
}

// TestChecksummedTreeDetectsRot flips one payload byte of a page on disk
// and asserts the read path reports typed corruption rather than serving
// the page.
func TestChecksummedTreeDetectsRot(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(200, 6), nil)
	if err := tree.Save(); err != nil {
		t.Fatal(err)
	}
	tree.Close()
	ff := storage.NewFaultFS(fs)
	// Flip a byte inside the second page's payload (past header + CRC).
	off := int64(storage.ChecksumHeaderSize) + (4 + tree.cfg.pageSize()) + 4 + 17
	if err := ff.Rot(tree.cfg.leafFileName(), off, 1); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{FS: fs, Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	err = re.ScanAll(func([]byte) error { return nil })
	if !errors.Is(err, ErrCorruptPage) || !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("scan over rotted page: %v, want ErrCorruptPage", err)
	}
}

// TestMetaShapeChecksBehindCRC covers the checks the meta's CRC trailer
// does not make redundant: a meta whose CRC matches but whose fields do
// not describe a well-formed directory — a leaf count that overflows the
// size computation, one that disagrees with the directory length, a
// directory cut mid-entry, an impossible geometry, a header cut short —
// fails Open and VerifyMeta with ErrCorruptPage, never a panic.
func TestMetaShapeChecksBehindCRC(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(100, 6), nil)
	if err := tree.Save(); err != nil {
		t.Fatal(err)
	}
	leaves := int64(len(tree.leafDir))
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	name := tree.cfg.metaFileName()
	orig, err := storage.ReadFileAll(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := VerifyMeta(fs, tree.cfg.Name); err != nil || n != leaves {
		t.Fatalf("intact meta: VerifyMeta = %d, %v; want %d leaves", n, err, leaves)
	}
	const numLeavesOff = 4*5 + 8*2
	body := orig[:len(orig)-metaCRCBytes]
	cases := map[string]func(b []byte) []byte{
		"leaf-count-overflow": func(b []byte) []byte { b[numLeavesOff+7] |= 0x80; return b },
		"leaf-count-short": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[numLeavesOff:], uint64(leaves-1))
			return b
		},
		"leaf-count-long": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[numLeavesOff:], uint64(leaves+1))
			return b
		},
		"directory-cut-mid-entry": func(b []byte) []byte { return b[:len(b)-3] },
		"key-longer-than-record": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], testRecSize+1)
			return b
		},
		"header-cut-short": func(b []byte) []byte { return b[:metaHeader-1] },
	}
	for caseName, mutate := range cases {
		t.Run(caseName, func(t *testing.T) {
			b := mutate(append([]byte(nil), body...))
			b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, metaCRCTable))
			if err := storage.WriteFileAll(fs, name, b); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := storage.WriteFileAll(fs, name, orig); err != nil {
					t.Fatal(err)
				}
			}()
			if re, err := Open(Config{FS: fs, Name: tree.cfg.Name}); !errors.Is(err, ErrCorruptPage) || !errors.Is(err, storage.ErrCorruptData) {
				if err == nil {
					re.Close()
				}
				t.Fatalf("open: %v, want ErrCorruptPage wrapping ErrCorruptData", err)
			}
			if _, err := VerifyMeta(fs, tree.cfg.Name); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("VerifyMeta: %v, want ErrCorruptPage", err)
			}
		})
	}
}
