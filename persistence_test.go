package coconut

// The durable-lifecycle conformance suite: every index variant built on
// either storage backend must reopen in a "fresh process" (a new handle,
// and for OSFS a new FS instance over the same directory) and answer
// exact, approximate, and k-NN queries byte-identically to the just-built
// handle — with the reopen itself never reading the raw dataset. Plus the
// MemFS/OSFS parity check: the same build+reopen sequence must leave
// byte-identical file sets on both backends.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
)

// reopenBackend abstracts "the same directory seen by a fresh process".
type reopenBackend struct {
	name string
	// fresh returns a Storage for a new empty home, plus a way to reopen
	// that same home as a fresh FS instance and to guard the raw dataset
	// against reads (MemFS only; OSFS returns a no-op guard).
	fresh func(t *testing.T) (build Storage, reopen func() Storage, guardRaw func(on bool))
}

func reopenBackends() []reopenBackend {
	return []reopenBackend{
		{
			name: "memfs",
			fresh: func(t *testing.T) (Storage, func() Storage, func(bool)) {
				fs := storage.NewMemFS()
				guard := func(on bool) {
					if !on {
						fs.SetFault(nil)
						return
					}
					fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
						if op == storage.OpRead && name == "conf.bin" {
							return fmt.Errorf("raw dataset read during reopen (off=%d n=%d)", off, n)
						}
						return nil
					})
				}
				return fs, func() Storage { return fs }, guard
			},
		},
		{
			name: "osfs",
			fresh: func(t *testing.T) (Storage, func() Storage, func(bool)) {
				dir := t.TempDir()
				fs, err := NewDiskStorage(dir)
				if err != nil {
					t.Fatal(err)
				}
				reopen := func() Storage {
					fresh, err := NewDiskStorage(dir)
					if err != nil {
						t.Fatal(err)
					}
					return fresh
				}
				return fs, reopen, func(bool) {}
			},
		},
	}
}

// reopenAnswers is the full query surface compared across the lifecycle.
type reopenAnswers struct {
	exact  []Result
	approx []Result
	knn    [][]Neighbor
}

func collectAnswers(t *testing.T, queries []Series,
	exact, approx searchFn, knn func(Series, int) ([]Neighbor, error)) reopenAnswers {
	t.Helper()
	var a reopenAnswers
	for _, q := range queries {
		e, err := exact(q)
		if err != nil {
			t.Fatal(err)
		}
		a.exact = append(a.exact, e)
		ap, err := approx(q)
		if err != nil {
			t.Fatal(err)
		}
		a.approx = append(a.approx, ap)
		if knn != nil {
			ns, err := knn(q, 3)
			if err != nil {
				t.Fatal(err)
			}
			a.knn = append(a.knn, ns)
		}
	}
	return a
}

func assertAnswersEqual(t *testing.T, built, reopened reopenAnswers) {
	t.Helper()
	for i := range built.exact {
		if built.exact[i] != reopened.exact[i] {
			t.Errorf("query %d: exact answers differ: built %+v, reopened %+v",
				i, built.exact[i], reopened.exact[i])
		}
		if built.approx[i] != reopened.approx[i] {
			t.Errorf("query %d: approx answers differ: built %+v, reopened %+v",
				i, built.approx[i], reopened.approx[i])
		}
	}
	for i := range built.knn {
		if len(built.knn[i]) != len(reopened.knn[i]) {
			t.Fatalf("query %d: kNN lengths differ", i)
		}
		for j := range built.knn[i] {
			if built.knn[i][j] != reopened.knn[i][j] {
				t.Errorf("query %d: kNN rank %d differs: built %+v, reopened %+v",
					i, j, built.knn[i][j], reopened.knn[i][j])
			}
		}
	}
}

// TestReopenConformance: build, query, Close, reopen from storage, query
// again — byte-identical exact, approximate, and k-NN answers on both
// backends, for all three variants (tree materialized or not, trie, and a
// multi-run LSM), with the reopen reading only index files + manifest.
func TestReopenConformance(t *testing.T) {
	queries, err := GenerateQueries(RandomWalk, 6, confLen, confSeed+3)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name string
		run  func(t *testing.T, be reopenBackend)
	}
	treeCase := func(mat bool) func(*testing.T, reopenBackend) {
		return func(t *testing.T, be reopenBackend) {
			fs, freshFS, guard := be.fresh(t)
			if err := GenerateDataset(fs, "conf.bin", RandomWalk, confCount, confLen, confSeed); err != nil {
				t.Fatal(err)
			}
			ix, err := BuildTreeIndex(confConfig(fs, 1, mat))
			if err != nil {
				t.Fatal(err)
			}
			built := collectAnswers(t, queries, ix.Search,
				func(q Series) (Result, error) { return ix.SearchApprox(q, 1) }, ix.SearchKNN)
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}

			guard(true)
			re, err := OpenTreeIndex(Config{Storage: freshFS(), Name: "conf", QueryWorkers: 1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			guard(false)
			defer re.Close()
			reopened := collectAnswers(t, queries, re.Search,
				func(q Series) (Result, error) { return re.SearchApprox(q, 1) }, re.SearchKNN)
			assertAnswersEqual(t, built, reopened)
		}
	}
	trieCase := func(mat bool) func(*testing.T, reopenBackend) {
		return func(t *testing.T, be reopenBackend) {
			fs, freshFS, guard := be.fresh(t)
			if err := GenerateDataset(fs, "conf.bin", RandomWalk, confCount, confLen, confSeed); err != nil {
				t.Fatal(err)
			}
			ix, err := BuildTrieIndex(confConfig(fs, 1, mat))
			if err != nil {
				t.Fatal(err)
			}
			built := collectAnswers(t, queries, ix.Search,
				func(q Series) (Result, error) { return ix.SearchApprox(q, 1) }, nil)
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}

			guard(true)
			re, err := OpenTrieIndex(Config{Storage: freshFS(), Name: "conf", QueryWorkers: 1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			guard(false)
			defer re.Close()
			reopened := collectAnswers(t, queries, re.Search,
				func(q Series) (Result, error) { return re.SearchApprox(q, 1) }, nil)
			assertAnswersEqual(t, built, reopened)
		}
	}
	lsmCase := func(t *testing.T, be reopenBackend) {
		fs, freshFS, guard := be.fresh(t)
		if err := GenerateDataset(fs, "conf.bin", RandomWalk, confCount, confLen, confSeed); err != nil {
			t.Fatal(err)
		}
		ix, err := BuildLSMIndex(confConfig(fs, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		confAppend(t, ix, 3)
		// Quiesce so both handles see the same durable state (the memtable
		// flushes at Close, which legitimately shifts approximate-search
		// windows — compare like with like).
		if err := ix.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := ix.NumRuns(); got < 2 {
			t.Fatalf("fixture built %d runs, want multi-run", got)
		}
		built := collectAnswers(t, queries, ix.Search, ix.SearchApprox, nil)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}

		guard(true)
		re, err := OpenLSMIndex(Config{Storage: freshFS(), Name: "conf", QueryWorkers: 1})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		guard(false)
		defer re.Close()
		reopened := collectAnswers(t, queries, re.Search, re.SearchApprox, nil)
		assertAnswersEqual(t, built, reopened)
	}
	variants := []variant{
		{"tree", treeCase(false)},
		{"tree-materialized", treeCase(true)},
		{"trie", trieCase(false)},
		{"trie-materialized", trieCase(true)},
		{"lsm-multirun", lsmCase},
	}
	for _, be := range reopenBackends() {
		for _, v := range variants {
			t.Run(be.name+"/"+v.name, func(t *testing.T) { v.run(t, be) })
		}
	}
}

// TestBackendParity: the same build + insert + reopen sequence against
// MemFS and OSFS must leave identical file sets with byte-identical
// contents — manifests included — proving the atomic-commit machinery
// behaves the same on both backends.
func TestBackendParity(t *testing.T) {
	runSequence := func(fs Storage) {
		t.Helper()
		if err := GenerateDataset(fs, "conf.bin", RandomWalk, confCount, confLen, confSeed); err != nil {
			t.Fatal(err)
		}
		cfg := confConfig(fs, 1, false)
		ix, err := BuildTreeIndex(cfg)
		if err != nil {
			t.Fatal(err)
		}
		extra, err := GenerateQueries(Seismic, 30, confLen, confSeed+5)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(extra); err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen, query once, close again (must not dirty anything).
		re, err := OpenTreeIndex(Config{Storage: fs, Name: "conf", QueryWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := re.Search(extra[0]); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}

		// And an LSM lifecycle in the same home.
		lcfg := cfg
		lcfg.Name = "conflsm"
		lix, err := BuildLSMIndex(lcfg)
		if err != nil {
			t.Fatal(err)
		}
		confAppend(t, lix, 2)
		if err := lix.Close(); err != nil {
			t.Fatal(err)
		}
	}

	mem := storage.NewMemFS()
	runSequence(mem)

	dir := t.TempDir()
	osfs, err := storage.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	runSequence(osfs)

	memNames, osNames := mem.Names(), osfs.Names()
	if len(memNames) != len(osNames) {
		t.Fatalf("file sets differ:\n  memfs: %v\n  osfs:  %v", memNames, osNames)
	}
	for i := range memNames {
		if memNames[i] != osNames[i] {
			t.Fatalf("file sets differ at %d: %q vs %q", i, memNames[i], osNames[i])
		}
	}
	for _, name := range memNames {
		a, err := storage.ReadFileAll(mem, name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := storage.ReadFileAll(osfs, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("file %q differs between backends (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}

// TestTreeMetaAheadOfManifestHeals: a crash between the B+-tree meta save
// and the manifest commit (Sync does them in that order, each atomic)
// leaves a newer meta under an older manifest. OpenTreeIndex must heal —
// adopt the meta, recommit the manifest — and serve the inserted data.
func TestTreeMetaAheadOfManifestHeals(t *testing.T) {
	fs, _ := confFS(t)
	ix, err := BuildTreeIndex(confConfig(fs, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	oldManifest, err := storage.ReadFileAll(fs, "conf.manifest")
	if err != nil {
		t.Fatal(err)
	}
	extra, err := GenerateQueries(Seismic, 20, confLen, confSeed+8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: meta (and raw file) are the post-insert
	// state, the manifest is the pre-insert one.
	if err := storage.WriteFileAll(fs, "conf.manifest", oldManifest); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTreeIndex(Config{Storage: fs, Name: "conf", QueryWorkers: 1})
	if err != nil {
		t.Fatalf("heal-open failed: %v", err)
	}
	if got, want := re.Count(), int64(confCount+len(extra)); got != want {
		t.Fatalf("healed count %d, want %d", got, want)
	}
	res, err := re.Search(extra[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance > 1e-9 {
		t.Fatalf("inserted series lost across heal: dist %v", res.Distance)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// The heal recommitted the manifest: a second open sees a clean state.
	healed, err := storage.ReadFileAll(fs, "conf.manifest")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(healed, oldManifest) {
		t.Fatal("manifest not recommitted during heal")
	}
}

// TestTrieLeafHeaderCorruption: a flipped bit in a trie leaf's count
// header (not covered by the manifest checksum) must fail the reopen with
// a typed error, never a panic.
func TestTrieLeafHeaderCorruption(t *testing.T) {
	fs, _ := confFS(t)
	ix, err := BuildTrieIndex(confConfig(fs, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	leaves, err := storage.ReadFileAll(fs, "conf.leaves")
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), leaves...)
	mut[3] ^= 0x40 // count header's top byte: claims ~16M records
	if err := storage.WriteFileAll(fs, "conf.leaves", mut); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrieIndex(Config{Storage: fs, Name: "conf"}); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("corrupt leaf header: got %v, want ErrCorruptManifest", err)
	}
}

// TestOpenConfigMismatch: public-level loud failures — conflicting
// explicit parameters, wrong variant, and a corrupted manifest.
func TestOpenConfigMismatch(t *testing.T) {
	fs, _ := confFS(t)
	ix, err := BuildTreeIndex(confConfig(fs, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenTreeIndex(Config{Storage: fs, Name: "conf", SeriesLen: confLen * 2}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("conflicting SeriesLen: got %v, want ErrConfigMismatch", err)
	}
	if _, err := OpenTreeIndex(Config{Storage: fs, Name: "conf", Segments: 16}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("conflicting Segments: got %v, want ErrConfigMismatch", err)
	}
	if _, err := OpenTreeIndex(Config{Storage: fs, Name: "conf", LeafSize: 64}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("conflicting LeafSize: got %v, want ErrConfigMismatch", err)
	}
	if _, err := OpenTrieIndex(Config{Storage: fs, Name: "conf"}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("tree opened as trie: got %v, want ErrConfigMismatch", err)
	}
	if _, err := OpenLSMIndex(Config{Storage: fs, Name: "conf"}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("tree opened as lsm: got %v, want ErrConfigMismatch", err)
	}

	// Corrupt the manifest: a flipped payload byte must surface as
	// ErrCorruptManifest, and restoring it must make Open work again.
	data, err := storage.ReadFileAll(fs, "conf.manifest")
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] ^= 0x01
	if err := storage.WriteFileAll(fs, "conf.manifest", mut); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTreeIndex(Config{Storage: fs, Name: "conf"}); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("corrupt manifest: got %v, want ErrCorruptManifest", err)
	}
	if err := storage.WriteFileAll(fs, "conf.manifest", data); err != nil {
		t.Fatal(err)
	}
	re, err := OpenTreeIndex(Config{Storage: fs, Name: "conf"})
	if err != nil {
		t.Fatalf("restored manifest failed to open: %v", err)
	}
	re.Close()
}

// TestOpenRefusesOtherFormats: one stored format is read. An index whose
// manifest is of an earlier version, records no block checksums, or (LSM)
// records uncompressed runs is refused by Open, Scrub and Repair with
// ErrVersionMismatch — never opened through an unverified or missing path —
// and opens again once the manifest is restored.
func TestOpenRefusesOtherFormats(t *testing.T) {
	variants := []struct {
		name  string
		build func(Config) (searcher, error)
		open  func(Config) (searcher, error)
	}{
		{"tree", func(c Config) (searcher, error) { return BuildTreeIndex(c) },
			func(c Config) (searcher, error) { return OpenTreeIndex(c) }},
		{"trie", func(c Config) (searcher, error) { return BuildTrieIndex(c) },
			func(c Config) (searcher, error) { return OpenTrieIndex(c) }},
		{"lsm", func(c Config) (searcher, error) { return BuildLSMIndex(c) },
			func(c Config) (searcher, error) { return OpenLSMIndex(c) }},
	}
	for _, v := range variants {
		for _, parts := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parts=%d", v.name, parts), func(t *testing.T) {
				fs, _ := confFS(t)
				cfg := confConfig(fs, 1, false)
				cfg.Partitions = parts
				ix, err := v.build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				good, err := storage.ReadFileAll(fs, manifest.FileName("conf"))
				if err != nil {
					t.Fatal(err)
				}
				refused := func(what string) {
					t.Helper()
					if _, err := v.open(Config{Storage: fs, Name: "conf"}); !errors.Is(err, ErrVersionMismatch) {
						t.Fatalf("%s: open: got %v, want ErrVersionMismatch", what, err)
					}
					if _, err := Scrub(fs, "conf"); !errors.Is(err, ErrVersionMismatch) {
						t.Fatalf("%s: scrub: got %v, want ErrVersionMismatch", what, err)
					}
					if _, err := Repair(Config{Storage: fs, Name: "conf"}); !errors.Is(err, ErrVersionMismatch) {
						t.Fatalf("%s: repair: got %v, want ErrVersionMismatch", what, err)
					}
				}
				for ver := uint32(1); ver < 5; ver++ {
					old := append([]byte(nil), good...)
					binary.LittleEndian.PutUint32(old[4:], ver)
					if err := storage.WriteFileAll(fs, manifest.FileName("conf"), old); err != nil {
						t.Fatal(err)
					}
					refused(fmt.Sprintf("format version %d", ver))
				}
				m, err := manifest.Decode(good)
				if err != nil {
					t.Fatal(err)
				}
				m.Checksums = false
				if err := manifest.Commit(fs, "conf", m); err != nil {
					t.Fatal(err)
				}
				refused("no block checksums")
				if m.Variant == manifest.VariantLSM {
					m.Checksums, m.Compressed = true, false
					if err := manifest.Commit(fs, "conf", m); err != nil {
						t.Fatal(err)
					}
					refused("uncompressed runs")
				}
				if err := storage.WriteFileAll(fs, manifest.FileName("conf"), good); err != nil {
					t.Fatal(err)
				}
				re, err := v.open(Config{Storage: fs, Name: "conf"})
				if err != nil {
					t.Fatalf("restored manifest failed to open: %v", err)
				}
				re.Close()
			})
		}
	}
}
