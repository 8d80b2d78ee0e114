package core

// Tests of the tree's leaf directory: the bulk load's packing, the insert
// policy against a leaf-level B+-tree that splits full leaves at the median,
// and the values the tree had when its leaves were pages of a B+-tree file.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
)

// refTree is the leaf level of a B+-tree over int keys: every leaf's sorted
// keys and its separator, the leaf's first key when it was loaded or split
// off (the first leaf's lowered by inserts below it). insert is the
// top-down insert with median splits the tree's directory must reproduce.
type refTree struct {
	leaves [][]int
	seps   []int
	cap    int
}

func (t *refTree) insert(k int) {
	if len(t.leaves) == 0 {
		t.leaves, t.seps = [][]int{{k}}, []int{k}
		return
	}
	// The leaf where k's first occurrence can live: the number of
	// separators of leaves 1…n−1 below k.
	li := sort.Search(len(t.leaves)-1, func(i int) bool { return t.seps[i+1] >= k })
	leaf := t.leaves[li]
	if len(leaf) < t.cap {
		pos, _ := slices.BinarySearch(leaf, k)
		t.leaves[li] = slices.Insert(leaf, pos, k)
		if pos == 0 {
			t.seps[li] = k
		}
		return
	}
	mid := len(leaf) / 2
	t.leaves = slices.Insert(t.leaves, li+1, slices.Clone(leaf[mid:]))
	t.seps = slices.Insert(t.seps, li+1, leaf[mid])
	t.leaves[li] = slices.Clone(leaf[:mid])
	t.insert(k)
}

func (t *refTree) counts() []int {
	var out []int
	for _, l := range t.leaves {
		out = append(out, len(l))
	}
	return out
}

func countsOf(starts []int) []int {
	var out []int
	for i := 0; i+1 < len(starts); i++ {
		out = append(out, starts[i+1]-starts[i])
	}
	return out
}

// TestPropertyDirectory drives random sorted batches — runs of one
// duplicated key long enough to straddle leaf boundaries among them — into
// bulk-loaded and empty directories, and after every batch holds
// splitStarts to the reference B+-tree's leaf counts: every leaf within
// capacity, every leaf a split made at least half full, the counts summing
// to the records inserted.
func TestPropertyDirectory(t *testing.T) {
	f := func(seed int64, nBatches uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		leafCap := 2 + rng.Intn(8)
		fill := max(int(float64(leafCap)*[]float64{0.5, 0.8, 1}[rng.Intn(3)]), 1)
		keys := make([]int, rng.Intn(60))
		for i := range keys {
			keys[i] = rng.Intn(600)
		}
		slices.Sort(keys)
		starts := packedStarts(len(keys), fill)
		ref := &refTree{cap: leafCap}
		for i := 0; i+1 < len(starts); i++ {
			leaf := slices.Clone(keys[starts[i]:starts[i+1]])
			ref.leaves, ref.seps = append(ref.leaves, leaf), append(ref.seps, leaf[0])
		}
		for b := 0; b < int(nBatches%6)+1; b++ {
			var batch []int
			for i := rng.Intn(40); i > 0; i-- {
				batch = append(batch, rng.Intn(600))
			}
			dup := rng.Intn(600)
			for i := rng.Intn(3 * leafCap); i > 0; i-- {
				batch = append(batch, dup)
			}
			slices.Sort(batch)
			for _, k := range batch {
				ref.insert(k)
			}
			keys = append(keys, batch...)
			slices.Sort(keys)
			lbs := make([]int, len(batch))
			for i, k := range batch {
				lbs[i], _ = slices.BinarySearch(keys, k)
			}
			before := len(starts) - 1
			starts = splitStarts(starts, lbs, leafCap)
			counts := countsOf(starts)
			if !slices.Equal(counts, ref.counts()) {
				t.Logf("cap %d fill %d batch %d: counts %v, reference %v", leafCap, fill, b, counts, ref.counts())
				return false
			}
			total := 0
			for _, c := range counts {
				if c < 1 || c > leafCap {
					t.Logf("leaf of %d records, capacity %d", c, leafCap)
					return false
				}
				total += c
			}
			if total != len(keys) || (before == 0 && len(keys) > 0 && slices.Min(counts) < min(leafCap/2, len(keys))) {
				t.Logf("counts %v for %d keys", counts, len(keys))
				return false
			}
			// The directory's separators are the leaves' first keys.
			for i := 1; i < len(ref.seps); i++ {
				if ref.seps[i] != keys[starts[i]] {
					t.Logf("leaf %d separator %d, first key %d", i, ref.seps[i], keys[starts[i]])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFillFactorControlsPacking: a bulk load packs leaves to the fill
// factor — 0.5 of LeafCap 20 is 10 records a leaf, and a leaf holds at least
// one — and reports their occupancy.
func TestFillFactorControlsPacking(t *testing.T) {
	for _, tc := range []struct {
		fill   float64
		leaves int
	}{{1, 35}, {0.5, 70}, {0.01, 700}} {
		fs, _ := fixtureFS(t)
		opt := baseOptions(t, fs, false)
		opt.FillFactor = tc.fill
		ix, err := buildTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		sh := ix.Shape()
		if sh.Leaves != tc.leaves || sh.LeafFill != float64(tCount)/float64(tc.leaves*opt.LeafCap) {
			t.Fatalf("fill %v: %d leaves %v full, want %d", tc.fill, sh.Leaves, sh.LeafFill, tc.leaves)
		}
		ix.Close()
	}
}

// parentTreeShapes are the tree's leaf counts (as digest renders them) after
// the inserts of TestTreeInsertsMatchParent, recorded from the tree whose
// leaves were pages of a B+-tree file, by fill factor and batch size.
var parentTreeShapes = map[float64]map[int]string{
	1:   {1: "95:bb9960f3d1f2a955", 7: "95:6b0a0c36d30c41ed", 100: "95:12f9ea69b95f2fe3", 600: "96:6c8138e7e483e7ce"},
	0.7: {1: "99:975a83504f9cb6be", 7: "99:42a668946bfa2a48", 100: "100:3a4375595aedecaf", 600: "104:5a9702cec12af77c"},
}

// TestTreeInsertsMatchParent: inserts after a bulk load, in batches of
// several sizes and with duplicates of indexed series, leave the leaf
// directory the B+-tree left, exact answers equal to brute force, and a tree
// that reopens after Sync with the same directory and answers.
func TestTreeInsertsMatchParent(t *testing.T) {
	ctx := context.Background()
	extra := dataset.Generate(dataset.NewRandomWalk(), 600, tLen, 77)
	queries := dataset.Queries(dataset.NewRandomWalk(), 4, tLen, 19)
	for fill, byBatch := range parentTreeShapes {
		for batch, want := range byBatch {
			fs, data := fixtureFS(t)
			opt := baseOptions(t, fs, false)
			opt.FillFactor = fill
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
			if got := digest(countsOf(ix.starts)); got != want {
				t.Fatalf("fill %v batch %d: leaf counts %s, the B+-tree's were %s", fill, batch, got, want)
			}
			all := append(slices.Clone(data), ins...)
			checkExact(t, ix, queries, all)
			starts := slices.Clone(ix.starts)
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := openTree(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(re.starts, starts) || re.Count() != int64(len(all)) {
				t.Fatalf("fill %v batch %d: reopened with %d leaves over %d records, want %d over %d",
					fill, batch, len(re.starts)-1, re.Count(), len(starts)-1, len(all))
			}
			checkExact(t, re, queries, all)
			re.Close()
			if names := fs.Names(); len(names) != 4 {
				t.Fatalf("files after Close: %v, want the raw file, its sidecar, the manifest and one leaf run", names)
			}
		}
	}
}

// TestTreeInsertIntoEmpty: a tree built over no records grows by inserts
// alone; splits keep every leaf at least half full.
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
	if got, want := digest(countsOf(ix.starts)), "41:b7f942a1e5805d06"; got != want {
		t.Fatalf("leaf counts %s, the B+-tree's were %s", got, want)
	}
	if slices.Min(countsOf(ix.starts)) < opt.LeafCap/2 {
		t.Fatalf("a leaf under half full: %v", countsOf(ix.starts))
	}
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
