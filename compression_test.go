package coconut

// The beyond-RAM conformance net for block-compressed runs: an LSM index
// whose block cache is far too small to hold even one decoded block must
// answer exact queries like a brute-force scan, and exact and approximate
// queries byte-identically to the same index behind a cache that holds
// every block — on both storage backends, for single and partitioned
// indexes, after appends, and after reopening from the manifest — while its
// resident decoded bytes stay within the configured budget (no whole-run
// key array ever materializes on the query path).

import (
	"fmt"
	"math"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
)

const (
	bramLen  = 64
	bramN    = 400
	bramQ    = 8
	bramSeed = 91
	// bramCache is smaller than a single decoded block (DefaultBlockRecords
	// records at 24 bytes each), so every probe decodes from disk and
	// nothing is retained: the pure beyond-RAM regime.
	bramCache = 4096
)

func bramConfig(fs Storage, name string, parts int) Config {
	return Config{
		Storage:      fs,
		Name:         name,
		DataFile:     "data.bin",
		SeriesLen:    bramLen,
		Segments:     8,
		Partitions:   parts,
		Workers:      2,
		QueryWorkers: 2,
	}
}

// bramCompare requires byte-identical exact and approximate answers from
// the two handles for every query, and the exact ones equal to a brute-force
// scan of data.
func bramCompare(t *testing.T, stage string, roomy, tiny *LSMIndex, qs, data []Series) {
	t.Helper()
	for i, q := range qs {
		re, err := roomy.Search(q)
		if err != nil {
			t.Fatalf("%s: roomy-cache exact query %d: %v", stage, i, err)
		}
		te, err := tiny.Search(q)
		if err != nil {
			t.Fatalf("%s: tiny-cache exact query %d: %v", stage, i, err)
		}
		if re.Position != te.Position || re.Distance != te.Distance {
			t.Fatalf("%s: exact query %d differs: tiny cache (pos %d, dist %v), roomy (pos %d, dist %v)",
				stage, i, te.Position, te.Distance, re.Position, re.Distance)
		}
		if pos, dist := bruteForce(q, data); te.Position != pos || math.Abs(te.Distance-dist) > 1e-9 {
			t.Fatalf("%s: exact query %d: got (pos %d, dist %v), brute force (pos %d, dist %v)",
				stage, i, te.Position, te.Distance, pos, dist)
		}
		ra, err := roomy.SearchApprox(q)
		if err != nil {
			t.Fatalf("%s: roomy-cache approx query %d: %v", stage, i, err)
		}
		ta, err := tiny.SearchApprox(q)
		if err != nil {
			t.Fatalf("%s: tiny-cache approx query %d: %v", stage, i, err)
		}
		if ra.Position != ta.Position || ra.Distance != ta.Distance {
			t.Fatalf("%s: approx query %d differs: tiny cache (pos %d, dist %v), roomy (pos %d, dist %v)",
				stage, i, ta.Position, ta.Distance, ra.Position, ra.Distance)
		}
	}
}

func TestCompressedBeyondRAMConformance(t *testing.T) {
	for beName, mkFS := range sweepBackends(t) {
		for _, parts := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/parts=%d", beName, parts), func(t *testing.T) {
				qs, err := GenerateQueries(RandomWalk, bramQ, bramLen, bramSeed+1)
				if err != nil {
					t.Fatal(err)
				}
				// Each index gets its own device with an identically
				// seeded dataset: appends grow the raw file, so two
				// indexes cannot share one.
				newFS := func() Storage {
					fs := mkFS(t)
					if err := GenerateDataset(fs, "data.bin", RandomWalk, bramN, bramLen, bramSeed); err != nil {
						t.Fatal(err)
					}
					return fs
				}

				data := dataset.Generate(dataset.NewRandomWalk(), bramN, bramLen, bramSeed)
				roomy, err := BuildLSMIndex(bramConfig(newFS(), "roomy", parts))
				if err != nil {
					t.Fatal(err)
				}
				defer roomy.Close()

				cfs := newFS()
				ccfg := bramConfig(cfs, "comp", parts)
				ccfg.CacheBytes = bramCache
				comp, err := BuildLSMIndex(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				bramCompare(t, "built", roomy, comp, qs, data)

				// Growth through the append path: flushed memtables and any
				// triggered compactions must stay byte-identical too.
				extra, err := GenerateQueries(Seismic, 60, bramLen, bramSeed+2)
				if err != nil {
					t.Fatal(err)
				}
				data = append(data, extra...)
				for _, ix := range []*LSMIndex{roomy, comp} {
					if err := ix.Insert(extra); err != nil {
						t.Fatal(err)
					}
					if err := ix.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				bramCompare(t, "appended", roomy, comp, qs, data)

				// Beyond-RAM means the cache did real work within its
				// budget: probes decoded blocks (misses) and resident bytes
				// never exceeded the configured ceiling.
				stats := comp.CacheStats()
				if stats.Misses == 0 {
					t.Fatal("compressed queries never touched the block cache")
				}
				if stats.Bytes > bramCache {
					t.Fatalf("cache holds %d resident bytes, budget is %d", stats.Bytes, bramCache)
				}
				// ... and says so itself: exact scans decoded blocks it had
				// no room for.
				if stats.ScanDecodes == 0 {
					t.Fatalf("undersized cache reports no scan decodes: %+v", stats)
				}
				if err := comp.Close(); err != nil {
					t.Fatal(err)
				}

				// The tiny cache budget still bounds a reopened index.
				re, err := OpenLSMIndex(Config{Storage: cfs, Name: "comp", CacheBytes: bramCache})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				bramCompare(t, "reopened", roomy, re, qs, data)
				if stats := re.CacheStats(); stats.Bytes > bramCache {
					t.Fatalf("reopened cache holds %d resident bytes, budget is %d", stats.Bytes, bramCache)
				}
			})
		}
	}
}
