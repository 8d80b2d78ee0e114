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

var allVariants = []Variant{Tree, Trie, LSM}

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
		LeafSize:     50,
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
// variant, unpartitioned and in two partitions, whose fan-out goroutines a
// panic would kill the process on.
func TestApproxRadiusOutOfRange(t *testing.T) {
	qs := handleQueries(t)
	for _, v := range allVariants {
		for _, parts := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dp", v, parts), func(t *testing.T) {
				ix, err := Build(context.Background(), handleConfig(t, parts), v)
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

// TestOpenDetectsVariant: Open reads the variant from the manifest — a
// partitioned index's children's — and answers exactly as the typed Open of
// that variant does: exact, approximate and 5-NN answers, visit counts
// included.
func TestOpenDetectsVariant(t *testing.T) {
	qs := handleQueries(t)
	typed := map[Variant]func(Config) (*Index, error){
		Tree: OpenTreeIndex,
		Trie: OpenTrieIndex,
		LSM: func(cfg Config) (*Index, error) {
			l, err := OpenLSMIndex(cfg)
			if err != nil {
				return nil, err
			}
			return l.Index, nil
		},
	}
	for _, v := range allVariants {
		for _, parts := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dp", v, parts), func(t *testing.T) {
				cfg := handleConfig(t, parts)
				built, err := Build(context.Background(), cfg, v)
				if err != nil {
					t.Fatal(err)
				}
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
				if ix.Variant() != v || ix.SeriesLen() != handleLen {
					ix.Close()
					t.Fatalf("Open reports a %s index of length %d, built a %s of %d", ix.Variant(), ix.SeriesLen(), v, handleLen)
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
// handle — a trie takes no insert (and leaves its count alone) but syncs, a
// tree has no memtable to flush — and a typed Open refuses a stored index of
// another variant.
func TestIndexCapabilities(t *testing.T) {
	cfg := handleConfig(t, 1)
	ctx := context.Background()
	trie, err := Build(ctx, cfg, Trie)
	if err != nil {
		t.Fatal(err)
	}
	batch := handleQueries(t)
	if err := trie.Insert(batch); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("trie Insert: %v, want errors.ErrUnsupported", err)
	}
	if n := trie.Count(); n != handleCount {
		t.Fatalf("a refused insert left the trie with %d series, want %d", n, handleCount)
	}
	if err := trie.Sync(); err != nil {
		t.Fatalf("trie Sync: %v", err)
	}
	if err := trie.Close(); err != nil {
		t.Fatal(err)
	}
	at := Config{Storage: cfg.Storage, Name: cfg.Name}
	if _, err := OpenTreeIndex(at); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("OpenTreeIndex over a trie: %v, want ErrConfigMismatch", err)
	}
	if _, err := Build(ctx, cfg, Variant("heap")); err == nil {
		t.Fatal("Build of an unknown variant succeeded")
	}

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
