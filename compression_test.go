package coconut

// The beyond-RAM conformance net for block-compressed runs: a compressed
// LSM index whose block cache is far too small to hold even one decoded
// block must answer exact and approximate queries byte-identically to the
// uncompressed in-memory layout — on both storage backends, for single and
// partitioned indexes, after appends, and after reopening from the
// manifest — while its resident decoded bytes stay within the configured
// budget (no whole-run key array ever materializes on the query path).

import (
	"fmt"
	"testing"
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
		LeafSize:     32,
		Partitions:   parts,
		Workers:      2,
		QueryWorkers: 2,
	}
}

// bramCompare requires byte-identical exact and approximate answers from
// the two handles for every query.
func bramCompare(t *testing.T, stage string, flat, comp *LSMIndex, qs []Series) {
	t.Helper()
	for i, q := range qs {
		fe, err := flat.Search(q)
		if err != nil {
			t.Fatalf("%s: flat exact query %d: %v", stage, i, err)
		}
		ce, err := comp.Search(q)
		if err != nil {
			t.Fatalf("%s: compressed exact query %d: %v", stage, i, err)
		}
		if fe.Position != ce.Position || fe.Distance != ce.Distance {
			t.Fatalf("%s: exact query %d differs: compressed (pos %d, dist %v), flat (pos %d, dist %v)",
				stage, i, ce.Position, ce.Distance, fe.Position, fe.Distance)
		}
		fa, err := flat.SearchApprox(q)
		if err != nil {
			t.Fatalf("%s: flat approx query %d: %v", stage, i, err)
		}
		ca, err := comp.SearchApprox(q)
		if err != nil {
			t.Fatalf("%s: compressed approx query %d: %v", stage, i, err)
		}
		if fa.Position != ca.Position || fa.Distance != ca.Distance {
			t.Fatalf("%s: approx query %d differs: compressed (pos %d, dist %v), flat (pos %d, dist %v)",
				stage, i, ca.Position, ca.Distance, fa.Position, fa.Distance)
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
				// Each layout gets its own device with an identically
				// seeded dataset: appends grow the raw file, so two
				// indexes cannot share one.
				newFS := func() Storage {
					fs := mkFS(t)
					if err := GenerateDataset(fs, "data.bin", RandomWalk, bramN, bramLen, bramSeed); err != nil {
						t.Fatal(err)
					}
					return fs
				}

				fcfg := bramConfig(newFS(), "flat", parts)
				fcfg.DisableCompression = true
				flat, err := BuildLSMIndex(fcfg)
				if err != nil {
					t.Fatal(err)
				}
				defer flat.Close()

				cfs := newFS()
				ccfg := bramConfig(cfs, "comp", parts)
				ccfg.CacheBytes = bramCache
				comp, err := BuildLSMIndex(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				bramCompare(t, "built", flat, comp, qs)

				// Growth through the append path: flushed memtables and any
				// triggered compactions must stay byte-identical too.
				extra, err := GenerateQueries(Seismic, 60, bramLen, bramSeed+2)
				if err != nil {
					t.Fatal(err)
				}
				for _, ix := range []*LSMIndex{flat, comp} {
					if err := ix.Insert(extra); err != nil {
						t.Fatal(err)
					}
					if err := ix.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				bramCompare(t, "appended", flat, comp, qs)

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

				// A reopen adopts the stored compressed layout from the
				// manifest; the tiny cache budget still bounds it.
				re, err := OpenLSMIndex(Config{Storage: cfs, Name: "comp", CacheBytes: bramCache})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				bramCompare(t, "reopened", flat, re, qs)
				if stats := re.CacheStats(); stats.Bytes > bramCache {
					t.Fatalf("reopened cache holds %d resident bytes, budget is %d", stats.Bytes, bramCache)
				}
			})
		}
	}
}
