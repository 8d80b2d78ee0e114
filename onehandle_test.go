package coconut

// One public handle: Build and Open make an Index of any variant, which
// answers every search the same way and fails typed on what its variant
// lacks.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

const (
	handleCount = 1500
	handleLen   = 64
)

// handleCase is a variant and whether the index stores its series
// (Materialized, the paper's "-Full"), which only a tree does.
type handleCase struct {
	name string
	v    Variant
	mat  bool
}

// handleCases are every variant and a materialized tree.
var handleCases = []handleCase{{"tree", Tree, false}, {"tree-full", Tree, true}, {"lsm", LSM, false}}

// config is handleConfig for the case.
func (c handleCase) config(t *testing.T, parts int) Config {
	cfg := handleConfig(t, parts)
	cfg.Materialized = c.mat
	return cfg
}

// handleConfig generates a fresh dataset and configures an index over it in
// parts partitions.
func handleConfig(t *testing.T, parts int) Config {
	t.Helper()
	fs := NewMemStorage()
	if err := GenerateDataset(fs, "h.bin", RandomWalk, handleCount, handleLen, 21); err != nil {
		t.Fatal(err)
	}
	return Config{
		Storage:      fs,
		Name:         "h",
		DataFile:     "h.bin",
		SeriesLen:    handleLen,
		Segments:     8,
		MemoryBudget: 1 << 20,
		Workers:      2,
		QueryWorkers: 2,
		Partitions:   parts,
	}
}

func handleQueries(t *testing.T) []Series {
	t.Helper()
	qs, err := GenerateQueries(RandomWalk, 4, handleLen, 23)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestApproxRadiusOutOfRange: a radius below 0 is radius 0, and a radius
// whose window would overflow is the window over every series — on every
// variant — a materialized tree reading its window from its leaf run —
// unpartitioned and in two partitions, whose fan-out goroutines a panic
// would kill the process on.
func TestApproxRadiusOutOfRange(t *testing.T) {
	qs := handleQueries(t)
	for _, c := range handleCases {
		for _, parts := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dp", c.name, parts), func(t *testing.T) {
				ix, err := Build(context.Background(), c.config(t, parts), c.v)
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				// 32×(covering+1) records cover the whole index.
				covering := handleCount / 16
				for qi, q := range qs {
					zero, err := ix.SearchApprox(q, 0)
					if err != nil {
						t.Fatal(err)
					}
					if zero.Position < 0 {
						t.Fatalf("query %d: radius 0 answered %+v", qi, zero)
					}
					whole, err := ix.SearchApprox(q, covering)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct {
						radius int
						want   Result
					}{{-1, zero}, {-2, zero}, {math.MinInt, zero}, {1 << 58, whole}, {math.MaxInt, whole}} {
						got, err := ix.SearchApprox(q, c.radius)
						if err != nil {
							t.Fatalf("query %d, radius %d: %v", qi, c.radius, err)
						}
						if got != c.want {
							t.Fatalf("query %d, radius %d: %+v, want %+v", qi, c.radius, got, c.want)
						}
					}
				}
			})
		}
	}
}

// answers is what TestOpenDetectsVariant compares between two handles.
type answers struct {
	exact, approx []Result
	knn           [][]Neighbor
}

func answersOf(t *testing.T, ix *Index, qs []Series) answers {
	t.Helper()
	var a answers
	for _, q := range qs {
		e, err := ix.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := ix.SearchApprox(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := ix.SearchKNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		a.exact, a.approx, a.knn = append(a.exact, e), append(a.approx, ap), append(a.knn, ns)
	}
	return a
}

// TestOpenDetectsVariant: Open reads the variant and the materialization
// from the manifest — a partitioned index's children's — and answers
// exactly as the typed Open of that variant does: exact, approximate and
// 5-NN answers, visit counts included.
func TestOpenDetectsVariant(t *testing.T) {
	qs := handleQueries(t)
	typed := map[Variant]func(Config) (*Index, error){
		Tree: OpenTreeIndex,
		LSM: func(cfg Config) (*Index, error) {
			l, err := OpenLSMIndex(cfg)
			if err != nil {
				return nil, err
			}
			return l.Index, nil
		},
	}
	for _, c := range handleCases {
		v := c.v
		for _, parts := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dp", c.name, parts), func(t *testing.T) {
				cfg := c.config(t, parts)
				built, err := Build(context.Background(), cfg, v)
				if err != nil {
					t.Fatal(err)
				}
				size := built.SizeBytes()
				if err := built.Close(); err != nil {
					t.Fatal(err)
				}
				// One query worker: the visit counts of a sharded scan depend
				// on the shards' timing.
				at := Config{Storage: cfg.Storage, Name: cfg.Name, QueryWorkers: 1}
				ix, err := Open(context.Background(), at)
				if err != nil {
					t.Fatal(err)
				}
				if ix.Variant() != v || ix.SeriesLen() != handleLen || ix.SizeBytes() != size {
					ix.Close()
					t.Fatalf("Open reports a %s index of length %d in %d bytes, built a %s of %d in %d",
						ix.Variant(), ix.SeriesLen(), ix.SizeBytes(), v, handleLen, size)
				}
				got := answersOf(t, ix, qs)
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				tx, err := typed[v](at)
				if err != nil {
					t.Fatal(err)
				}
				want := answersOf(t, tx, qs)
				if err := tx.Close(); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("Open answers %+v, the typed Open %+v", got, want)
				}
			})
		}
	}
}

// TestIndexCapabilities: what a variant lacks fails typed from the one
// handle — a tree has no memtable to flush, but takes inserts and syncs —
// a typed Open refuses a stored index of another variant, and a variant
// that is not one, the retired trie included, builds nothing.
func TestIndexCapabilities(t *testing.T) {
	cfg := handleConfig(t, 1)
	ctx := context.Background()
	lsm, err := Build(ctx, cfg, LSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := lsm.Close(); err != nil {
		t.Fatal(err)
	}
	at := Config{Storage: cfg.Storage, Name: cfg.Name}
	if _, err := OpenTreeIndex(at); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("OpenTreeIndex over an LSM: %v, want ErrConfigMismatch", err)
	}
	for _, v := range []Variant{"heap", "trie"} {
		if _, err := Build(ctx, handleConfig(t, 1), v); err == nil {
			t.Fatalf("Build of variant %q succeeded", v)
		}
	}

	batch := handleQueries(t)

	tree, err := Build(ctx, handleConfig(t, 2), Tree)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.Flush(); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("tree Flush: %v, want errors.ErrUnsupported", err)
	}
	if err := tree.Insert(batch); err != nil {
		t.Fatalf("tree Insert: %v", err)
	}
	if err := tree.Sync(); err != nil {
		t.Fatalf("tree Sync: %v", err)
	}
}
