package core

// Tests of the tree's inserts: the run an insert batch merges into, against
// the one recorded when the tree still kept a leaf directory, and the leaves
// it counts.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
)

// runDigest is the SHA-256 of the tree's current leaf run, its records as
// its checksum blocks frame them.
func runDigest(t *testing.T, fs storage.FS, ix *loneTree) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(logicalBytes(t, fs, runName(ix.opt.Name, ix.gen))))
}

// TestTreeInsertsMatchParent: inserts after a bulk load, in batches of
// several sizes and with duplicates of indexed series, leave the leaf run
// the tree wrote when it kept a leaf directory in its manifest (whatever
// the batch size: the run is the sorted records), every leaf but the last
// full, exact answers equal to brute force, and a tree that reopens after
// Sync with the same run and answers.
func TestTreeInsertsMatchParent(t *testing.T) {
	const want = "082596e709bc0283a0b753067fc0da595ae50b4cf810bc0ee70249595e3434c6"
	ctx := context.Background()
	extra := dataset.Generate(dataset.NewRandomWalk(), 600, tLen, 77)
	queries := dataset.Queries(dataset.NewRandomWalk(), 4, tLen, 19)
	for _, batch := range []int{1, 7, 100, 600} {
		fs, data := fixtureFS(t)
		opt := baseOptions(t, fs, false)
		ix, err := buildTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		ins := append(slices.Clone(extra), data[:50]...)
		for lo := 0; lo < len(ins); lo += batch {
			if err := ix.Insert(ctx, ins[lo:min(lo+batch, len(ins))]); err != nil {
				t.Fatal(err)
			}
		}
		if got := runDigest(t, fs, ix); got != want {
			t.Fatalf("batch %d: leaf run %s, the parent's was %s", batch, got, want)
		}
		checkTreeRun(t, ix)
		all := append(slices.Clone(data), ins...)
		checkExact(t, ix, queries, all)
		leaves := ix.Shape().Leaves
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := openTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		if re.Shape().Leaves != leaves || re.Count() != int64(len(all)) || runDigest(t, fs, re) != want {
			t.Fatalf("batch %d: reopened with %d leaves over %d records, want %d over %d",
				batch, re.Shape().Leaves, re.Count(), leaves, len(all))
		}
		checkExact(t, re, queries, all)
		re.Close()
		if names := fs.Names(); len(names) != 4 {
			t.Fatalf("files after Close: %v, want the raw file, its sidecar, the manifest and one leaf run", names)
		}
	}
}

// TestTreeInsertIntoEmpty: a tree built over no records grows by inserts
// alone into the run the parent's tree wrote, every leaf but the last full.
func TestTreeInsertIntoEmpty(t *testing.T) {
	fs := storage.NewMemFS()
	writeRaw(t, fs, nil, 0)
	opt := baseOptions(t, fs, false)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if sh := ix.Shape(); sh.Leaves != 0 || ix.Count() != 0 {
		t.Fatalf("empty tree: %+v, %d records", sh, ix.Count())
	}
	extra := dataset.Generate(dataset.NewRandomWalk(), 600, tLen, 77)
	for lo := 0; lo < len(extra); lo += 33 {
		if err := ix.Insert(context.Background(), extra[lo:min(lo+33, len(extra))]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := runDigest(t, fs, ix), "ee58d6bd950d4e27fdd915a529bd8ae8902be8137c3dd1d8a3fa4f60652613ce"; got != want {
		t.Fatalf("leaf run %s, the parent's was %s", got, want)
	}
	if sh := ix.Shape(); sh.Leaves != 4 || sh.LeafFill != 600.0/680 {
		t.Fatalf("600 records in %d leaves %v full, want 4 checksum blocks of 170", sh.Leaves, sh.LeafFill)
	}
	checkTreeRun(t, ix)
	checkExact(t, ix, dataset.Queries(dataset.NewRandomWalk(), 4, tLen, 19), extra)
}

func checkExact(t *testing.T, ix *loneTree, queries, data []series.Series) {
	t.Helper()
	for qi, q := range queries {
		res, err := ix.ExactSearch(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce1NN(q, data); math.Abs(res.Dist-want) > 1e-9 {
			t.Fatalf("query %d: exact %v, brute force %v", qi, res.Dist, want)
		}
	}
}

// TestLeafBlocks: the leaves a range of ordinals spans are the checksum
// blocks its records lie in, for plain records (170 a block), materialized
// ones of a few series lengths (7, 1 and 1 a block) and every range of a
// run that ends mid-block.
func TestLeafBlocks(t *testing.T) {
	for _, recSize := range []int{24, 24 + 64*8, 24 + 256*8, 24 + 1024*8} {
		per := leafBlockSize(recSize) / recSize
		n := 3*per + per/2 + 1
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				blocks := map[int]bool{}
				for i := lo; i < hi; i++ {
					blocks[i/per] = true
				}
				if got := leafBlocks(int64(lo), int64(hi), recSize); got != int64(len(blocks)) {
					t.Fatalf("record size %d: [%d, %d) spans %d leaves, want %d", recSize, lo, hi, got, len(blocks))
				}
			}
		}
	}
}
