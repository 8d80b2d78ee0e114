package core

import (
	"context"
	"testing"
)

// TestBuildTreeDeterministicAcrossWorkers: the bulk-load output (tree shape
// and every search answer) must not depend on the sort's worker count.
func TestBuildTreeDeterministicAcrossWorkers(t *testing.T) {
	build := func(workers int) (*loneTree, func()) {
		fs, _ := fixtureFS(t)
		opt := baseOptions(t, fs, false)
		opt.Workers = workers
		// Small budget so the sort actually spills to multi-run merging.
		opt.MemBudgetBytes = 64 * int64(opt.recordSize())
		ix, err := buildTree(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ix, func() { ix.Close() }
	}
	ix1, close1 := build(1)
	defer close1()
	ix8, close8 := build(8)
	defer close8()

	if ix1.Count() != ix8.Count() || ix1.Shape().Leaves != ix8.Shape().Leaves {
		t.Fatalf("shape differs: workers=1 (%d series, %d leaves) vs workers=8 (%d series, %d leaves)",
			ix1.Count(), ix1.Shape().Leaves, ix8.Count(), ix8.Shape().Leaves)
	}
	_, data := fixtureFS(t)
	for qi := 0; qi < 20; qi++ {
		q := data[qi*31%len(data)].Clone()
		e1, err := ix1.ExactSearch(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		e8, err := ix8.ExactSearch(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e1.Pos != e8.Pos || e1.Dist != e8.Dist {
			t.Fatalf("query %d: answers differ: %+v vs %+v", qi, e1, e8)
		}
	}
}
