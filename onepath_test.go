package coconut

// One path for every index: an unpartitioned index is the composite with one
// child, so it shares the composite's handle lock, its typed errors and,
// on disk, exactly the unpartitioned layout.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/storage"
)

// TestConcurrentApproxWithInserts: approximate answers served while inserts
// split the leaves of a tree — materialized or not, unpartitioned or in
// three partitions — are answers: the reported distance is the reported
// position's, and no query fails. A materialized window is read from the
// leaves after the partition steps that collected it returned, so the
// handle lock must keep inserts out until its last fetch.
func TestConcurrentApproxWithInserts(t *testing.T) {
	for _, mat := range []bool{false, true} {
		for _, parts := range []int{1, 3} {
			t.Run(fmt.Sprintf("mat=%v/%dp", mat, parts), func(t *testing.T) {
				fs, data := confFS(t)
				cfg := confConfig(fs, 2, mat)
				cfg.Partitions = parts
				ix, err := BuildTreeIndex(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				stream := dataset.Generate(dataset.NewRandomWalk(), 1000, confLen, confSeed+7)
				all := slices.Concat(data, stream)
				// Queries where the inserts land: the windows span the leaves
				// the inserts split.
				queries := slices.Concat(stream[:8], data[:8])
				var done atomic.Bool
				var wg sync.WaitGroup
				errs := make(chan error, 8)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer done.Store(true)
					for lo := 0; lo < len(stream); lo += 5 {
						if err := ix.Insert(stream[lo : lo+5]); err != nil {
							errs <- err
							return
						}
					}
				}()
				var served atomic.Int64
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; !done.Load() || i < 50; i++ {
							q := queries[i%len(queries)]
							res, err := ix.SearchApprox(q, 1)
							if err != nil {
								errs <- fmt.Errorf("approximate search %d: %w", i, err)
								return
							}
							served.Add(1)
							if res.Position < 0 || res.Position >= int64(len(all)) {
								errs <- fmt.Errorf("approximate search %d answered position %d of %d", i, res.Position, len(all))
								return
							}
							want, _ := Distance(q, all[res.Position])
							if math.Abs(res.Distance-want) > 1e-9*math.Max(1, want) {
								errs <- fmt.Errorf("approximate search %d: distance %v, series %d is at %v", i, res.Distance, res.Position, want)
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatalf("after %d answers: %v", served.Load(), err)
				}
			})
		}
	}
}

// TestOnePartitionIsUnpartitionedLayout: with Partitions 0 or 1 every index
// type stores exactly the unpartitioned layout — its manifest, its index
// files, the raw file's sidecar, and no partition suffix or parent
// manifest — which Open with Partitions 0 or 1 accepts and 2 refuses
// with ErrConfigMismatch.
func TestOnePartitionIsUnpartitionedLayout(t *testing.T) {
	type handle interface{ Close() error }
	for name, k := range map[string]struct {
		files       []string
		mat         bool
		build, open func(Config) (handle, error)
	}{
		"tree": {[]string{"conf.bin", "conf.bin.crc", "conf.leaves", "conf.manifest"}, false,
			func(c Config) (handle, error) { return BuildTreeIndex(c) },
			func(c Config) (handle, error) { return OpenTreeIndex(c) }},
		// A materialized tree's series live in its leaf run.
		"tree-full": {[]string{"conf.bin", "conf.bin.crc", "conf.leaves", "conf.manifest"}, true,
			func(c Config) (handle, error) { return BuildTreeIndex(c) },
			func(c Config) (handle, error) { return OpenTreeIndex(c) }},
		// An LSM's one bulk-loaded run.
		"lsm": {[]string{"conf.bin", "conf.bin.crc", "conf.manifest", "conf.run.000000"}, false,
			func(c Config) (handle, error) { return BuildLSMIndex(c) },
			func(c Config) (handle, error) { return OpenLSMIndex(c) }},
	} {
		for _, parts := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/partitions=%d", name, parts), func(t *testing.T) {
				fs, _ := confFS(t)
				cfg := confConfig(fs, 1, k.mat)
				cfg.Partitions = parts
				ix, err := k.build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				names := fs.(*storage.MemFS).Names()
				slices.Sort(names)
				if !slices.Equal(names, k.files) {
					t.Fatalf("a %d-partition %s stores %v", parts, name, names)
				}
				for _, open := range []int{0, 1, 2} {
					re, err := k.open(Config{Storage: fs, Name: "conf", Partitions: open})
					if open == 2 {
						if !errors.Is(err, ErrConfigMismatch) {
							t.Fatalf("open with Partitions=2: %v, want ErrConfigMismatch", err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("open with Partitions=%d: %v", open, err)
					}
					if err := re.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestEmptyIndexTyped: every index type built over a dataset of no series
// answers every search with ErrEmptyIndex.
func TestEmptyIndexTyped(t *testing.T) {
	q := dataset.Queries(dataset.NewRandomWalk(), 1, confLen, 5)[0]
	fs := NewMemStorage()
	if err := GenerateDataset(fs, "conf.bin", RandomWalk, 0, confLen, confSeed); err != nil {
		t.Fatal(err)
	}
	cfg := confConfig(fs, 1, false)
	tree, err := BuildTreeIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	cfg.Name = "lsm"
	lsm, err := BuildLSMIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	for name, search := range map[string]func() error{
		"tree/exact":  func() error { _, err := tree.Search(q); return err },
		"tree/approx": func() error { _, err := tree.SearchApprox(q, 1); return err },
		"tree/knn":    func() error { _, err := tree.SearchKNN(q, 3); return err },
		"lsm/exact":   func() error { _, err := lsm.Search(q); return err },
		"lsm/approx":  func() error { _, err := lsm.SearchApprox(q); return err },
		"lsm/knn":     func() error { _, err := lsm.SearchKNN(q, 3); return err },
	} {
		if err := search(); !errors.Is(err, ErrEmptyIndex) {
			t.Errorf("%s over an empty index: %v, want ErrEmptyIndex", name, err)
		}
	}
}
