package coconut

import (
	"errors"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
)

// partSweep is the partition counts checked against the P=1 baseline.
var partSweep = []int{2, 4, 8}

const partKNN = 5

// partConfig is the conformance fixture with a partition count.
func partConfig(fs Storage, parts, qw int, mat bool) Config {
	c := confConfig(fs, qw, mat)
	c.Partitions = parts
	return c
}

// partFS builds a fresh storage holding the deterministic conformance
// dataset: every call yields byte-identical files, so baseline and
// partitioned indexes see the same records.
func partFS(t *testing.T) Storage {
	t.Helper()
	fs := NewMemStorage()
	if err := GenerateDataset(fs, "conf.bin", RandomWalk, confCount, confLen, confSeed); err != nil {
		t.Fatal(err)
	}
	return fs
}

// partAnswers is one index's answer set over the query workload.
type partAnswers struct {
	exact  []Result
	approx []Result
	knn    [][]Neighbor
}

// partQueries is the shared query workload.
func partQueries(t *testing.T) []Series {
	t.Helper()
	qs, err := GenerateQueries(Seismic, 10, confLen, confSeed+7)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// exactIndex is the exact search every index type offers.
type exactIndex interface {
	Search(q Series) (Result, error)
	SearchKNN(q Series, k int) ([]Neighbor, error)
	Close() error
}

// collect gathers exact, approximate, and k-NN answers from an index.
func collect(t *testing.T, ix exactIndex, approx searchFn, queries []Series) partAnswers {
	t.Helper()
	var a partAnswers
	for _, q := range queries {
		e, err := ix.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := approx(q)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := ix.SearchKNN(q, partKNN)
		if err != nil {
			t.Fatal(err)
		}
		a.exact = append(a.exact, e)
		a.approx = append(a.approx, ap)
		a.knn = append(a.knn, ns)
	}
	return a
}

// collectTree gathers a tree's answers, approximate ones at radius 1.
func collectTree(t *testing.T, ix *TreeIndex, queries []Series) partAnswers {
	t.Helper()
	return collect(t, ix, func(q Series) (Result, error) { return ix.SearchApprox(q, 1) }, queries)
}

// samePos reports byte-identity of the (position, distance) answer; the
// Visited* counters legitimately vary with partition count.
func samePos(a, b Result) bool {
	return a.Position == b.Position && a.Distance == b.Distance
}

// checkAnswers fails the test wherever got diverges from the baseline.
func checkAnswers(t *testing.T, label string, base, got partAnswers) {
	t.Helper()
	for qi := range base.exact {
		if !samePos(base.exact[qi], got.exact[qi]) {
			t.Errorf("%s: exact query %d: got (#%d, %v), baseline (#%d, %v)", label, qi,
				got.exact[qi].Position, got.exact[qi].Distance,
				base.exact[qi].Position, base.exact[qi].Distance)
		}
		if !samePos(base.approx[qi], got.approx[qi]) {
			t.Errorf("%s: approx query %d: got (#%d, %v), baseline (#%d, %v)", label, qi,
				got.approx[qi].Position, got.approx[qi].Distance,
				base.approx[qi].Position, base.approx[qi].Distance)
		}
		if len(base.knn[qi]) != len(got.knn[qi]) {
			t.Errorf("%s: knn query %d: got %d neighbors, baseline %d", label, qi,
				len(got.knn[qi]), len(base.knn[qi]))
			continue
		}
		for j := range base.knn[qi] {
			if base.knn[qi][j] != got.knn[qi][j] {
				t.Errorf("%s: knn query %d rank %d: got %+v, baseline %+v", label, qi, j,
					got.knn[qi][j], base.knn[qi][j])
			}
		}
	}
}

// TestPartitionConformanceTree checks that a partitioned Coconut-Tree
// answers exact, approximate, and k-NN queries byte-identically to the
// single-partition index — after the parallel build, after routed inserts,
// and after a Close/Open round trip through the parent manifest, at
// several QueryWorkers settings.
func TestPartitionConformanceTree(t *testing.T) {
	for _, mat := range []bool{false, true} {
		name := "plain"
		if mat {
			name = "materialized"
		}
		t.Run(name, func(t *testing.T) {
			queries := partQueries(t)
			extra := dataset.Generate(dataset.NewSeismic(), 200, confLen, confSeed+3)

			buildAnswers := func(parts int) (Storage, partAnswers) {
				fs := partFS(t)
				ix, err := BuildTreeIndex(partConfig(fs, parts, 2, mat))
				if err != nil {
					t.Fatalf("parts=%d: build: %v", parts, err)
				}
				if err := ix.Insert(extra); err != nil {
					t.Fatalf("parts=%d: insert: %v", parts, err)
				}
				a := collectTree(t, ix, queries)
				if err := ix.Close(); err != nil {
					t.Fatalf("parts=%d: close: %v", parts, err)
				}
				return fs, a
			}

			_, base := buildAnswers(1)
			for _, parts := range partSweep {
				fs, got := buildAnswers(parts)
				checkAnswers(t, name+"/built", base, got)
				// Reopen from the parent manifest (Partitions 0 adopts the
				// stored count) under several query-worker settings.
				for _, qw := range []int{1, 3, 8} {
					ix, err := OpenTreeIndex(partConfig(fs, 0, qw, mat))
					if err != nil {
						t.Fatalf("parts=%d qw=%d: open: %v", parts, qw, err)
					}
					got := collectTree(t, ix, queries)
					checkAnswers(t, name+"/reopened", base, got)
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestPartitionConformanceBulkTree mirrors the tree check for a bulk-loaded
// tree that takes no insert, reopened at another QueryWorkers setting.
func TestPartitionConformanceBulkTree(t *testing.T) {
	for _, mat := range []bool{false, true} {
		name := "plain"
		if mat {
			name = "materialized"
		}
		t.Run(name, func(t *testing.T) {
			queries := partQueries(t)
			answers := func(ix *TreeIndex) partAnswers {
				return collect(t, ix, func(q Series) (Result, error) { return ix.SearchApprox(q, 1) }, queries)
			}
			buildAnswers := func(parts int) (Storage, partAnswers) {
				fs := partFS(t)
				ix, err := BuildTreeIndex(partConfig(fs, parts, 2, mat))
				if err != nil {
					t.Fatalf("parts=%d: build: %v", parts, err)
				}
				a := answers(ix)
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				return fs, a
			}
			_, base := buildAnswers(1)
			for _, parts := range partSweep {
				fs, got := buildAnswers(parts)
				checkAnswers(t, name+"/built", base, got)
				ix, err := OpenTreeIndex(partConfig(fs, 0, 5, mat))
				if err != nil {
					t.Fatalf("parts=%d: open: %v", parts, err)
				}
				got = answers(ix)
				checkAnswers(t, name+"/reopened", base, got)
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPartitionConformanceLSM checks the partitioned Coconut-LSM: routed
// appends, per-partition flushes, and reopen must all preserve
// byte-identity with the single-partition index.
func TestPartitionConformanceLSM(t *testing.T) {
	queries := partQueries(t)
	answers := func(ix *LSMIndex) partAnswers { return collect(t, ix, ix.SearchApprox, queries) }
	buildAnswers := func(parts int) (Storage, partAnswers) {
		fs := partFS(t)
		ix, err := BuildLSMIndex(partConfig(fs, parts, 2, false))
		if err != nil {
			t.Fatalf("parts=%d: build: %v", parts, err)
		}
		// Stream appends so runs accumulate, with a tail left in memtables.
		confAppend(t, ix, 3)
		a := answers(ix)
		if err := ix.Close(); err != nil {
			t.Fatalf("parts=%d: close: %v", parts, err)
		}
		return fs, a
	}
	_, base := buildAnswers(1)
	for _, parts := range partSweep {
		fs, got := buildAnswers(parts)
		checkAnswers(t, "lsm/built", base, got)
		ix, err := OpenLSMIndex(partConfig(fs, 0, 4, false))
		if err != nil {
			t.Fatalf("parts=%d: open: %v", parts, err)
		}
		got = answers(ix)
		checkAnswers(t, "lsm/reopened", base, got)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartitionConformanceOSFS runs the tree conformance on a real
// filesystem so the sort's temporaries, child files and manifests, and
// parent manifest exercise the OS-backed storage path.
func TestPartitionConformanceOSFS(t *testing.T) {
	queries := partQueries(t)
	buildAnswers := func(parts int) partAnswers {
		fs, err := NewDiskStorage(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := GenerateDataset(fs, "conf.bin", RandomWalk, confCount, confLen, confSeed); err != nil {
			t.Fatal(err)
		}
		ix, err := BuildTreeIndex(partConfig(fs, parts, 2, false))
		if err != nil {
			t.Fatalf("parts=%d: build: %v", parts, err)
		}
		a := collectTree(t, ix, queries)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := buildAnswers(1)
	got := buildAnswers(4)
	checkAnswers(t, "osfs", base, got)
}

// TestPartitionOpenMismatch checks the typed-error contract: a Partitions
// setting that conflicts with the store fails with ErrConfigMismatch, a
// tampered parent manifest fails with ErrCorruptManifest, and a variant
// mix-up is rejected — never a partial open.
func TestPartitionOpenMismatch(t *testing.T) {
	fs := partFS(t)
	ix, err := BuildTreeIndex(partConfig(fs, 4, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenTreeIndex(partConfig(fs, 2, 2, false)); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("open with wrong partition count: got %v, want ErrConfigMismatch", err)
	}
	if _, err := OpenLSMIndex(partConfig(fs, 0, 2, false)); err == nil {
		t.Error("opening a partitioned tree store as an LSM succeeded")
	}

	// A single-partition store must reject a partitioned open.
	fs2 := partFS(t)
	one, err := BuildTreeIndex(partConfig(fs2, 1, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTreeIndex(partConfig(fs2, 4, 2, false)); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("partitioned open of single store: got %v, want ErrConfigMismatch", err)
	}

	// Flip one byte inside the parent manifest: the checksum must catch it.
	mf, err := fs.Open(manifest.FileName("conf"))
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := mf.ReadAt(b[:], 20); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := mf.WriteAt(b[:], 20); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTreeIndex(partConfig(fs, 0, 2, false)); !errors.Is(err, ErrCorruptManifest) {
		t.Errorf("open with tampered parent manifest: got %v, want ErrCorruptManifest", err)
	}
}

// TestPartitionBuildErrors checks that impossible partitionings fail
// loudly at build time.
func TestPartitionBuildErrors(t *testing.T) {
	// More partitions than series.
	fs := NewMemStorage()
	if err := GenerateDataset(fs, "conf.bin", RandomWalk, 3, confLen, confSeed); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildTreeIndex(partConfig(fs, 8, 2, false)); err == nil {
		t.Error("build with more partitions than series succeeded")
	}

	// All-identical series: one distinct key cannot split 4 ways.
	fs2 := NewMemStorage()
	flat := make(Series, confLen)
	enc := series.AppendEncode(nil, flat)
	f, err := fs2.Create("conf.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := f.WriteAt(enc, int64(i*len(enc))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = BuildTreeIndex(partConfig(fs2, 4, 2, false))
	if err == nil {
		t.Fatal("build over an all-identical dataset succeeded")
	}
	if !strings.Contains(err.Error(), "distinct") {
		t.Errorf("got %q, want a too-few-distinct-keys error", err)
	}

	// A negative Partitions is rejected before any I/O.
	if _, err := BuildTreeIndex(partConfig(partFS(t), -1, 2, false)); err == nil {
		t.Error("build with negative Partitions succeeded")
	}
}
