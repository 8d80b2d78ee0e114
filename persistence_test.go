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
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
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
		ns, err := knn(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		a.knn = append(a.knn, ns)
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
// backends, for every variant (tree materialized or not, and a multi-run
// LSM), with the reopen reading only index files + manifest.
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
		built := collectAnswers(t, queries, ix.Search, ix.SearchApprox, ix.SearchKNN)
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
		reopened := collectAnswers(t, queries, re.Search, re.SearchApprox, re.SearchKNN)
		assertAnswersEqual(t, built, reopened)
	}
	variants := []variant{
		{"tree", treeCase(false)},
		{"tree-materialized", treeCase(true)},
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

// TestTreeCrashBetweenSyncsReopensCommitted: tree inserts merge into the
// next generation of the leaf run and leave the committed one — the one the
// manifest names — untouched until the next Sync commits a manifest naming
// the new one, so a crash between Syncs reopens at the last Sync, without
// Repair. Three states: after an insert of one record, after one that opens
// a new leaf (a checksum block of the run), and after a Sync that wrote and
// fsynced the next generation but lost power as its manifest commit began.
// Each opens with the committed count, answers as brute force over the
// committed data does, and scrubs clean.
func TestTreeCrashBetweenSyncsReopensCommitted(t *testing.T) {
	queries, err := GenerateQueries(RandomWalk, 4, confLen, confSeed+2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		copies int
		sync   bool
	}{
		{"one-record", 1, false},
		{"new-leaf", 51, false}, // 2 551 records: one past 15 full leaves of 170
		{"next-generation-fsynced", 51, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, data := confFS(t)
			ffs := storage.NewFaultFS(mem)
			ix, err := BuildTreeIndex(confConfig(ffs, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			live, err := OpenTreeIndex(Config{Storage: ffs, Name: "conf"})
			if err != nil {
				t.Fatal(err)
			}
			// Copies of the smallest key's series land in front of the run's
			// first record.
			first := smallestKey(t, data)
			extra := make([]Series, tc.copies)
			for i := range extra {
				extra[i] = data[first]
			}
			if err := live.Insert(extra); err != nil {
				t.Fatal(err)
			}
			if want := map[int]int{1: 15, 51: 16}[tc.copies]; live.NumLeaves() != want {
				t.Fatalf("%d leaves after the inserts, want %d", live.NumLeaves(), want)
			}
			if tc.sync {
				ffs.SetHook(func(op storage.Op, name string) {
					if op == storage.OpCreate && name == "conf.manifest.tmp" {
						ffs.Crash()
					}
				})
				if err := live.Sync(); !errors.Is(err, storage.ErrCrashed) {
					t.Fatalf("sync across the power loss: %v, want ErrCrashed", err)
				}
			}
			ffs.Crash()
			live.Close()
			img := ffs.Recover(0)
			var runs int
			for _, name := range img.Names() {
				if strings.HasSuffix(name, ".leaves") {
					runs++
				}
			}
			if want := map[bool]int{false: 1, true: 2}[tc.sync]; runs != want {
				t.Fatalf("the device holds %d leaf runs after the crash, want %d: %v", runs, want, img.Names())
			}
			re, err := OpenTreeIndex(Config{Storage: img, Name: "conf"})
			if err != nil {
				t.Fatalf("open after the crash: %v", err)
			}
			defer re.Close()
			if got := re.Count(); got != int64(len(data)) {
				t.Fatalf("reopened index holds %d records, want the %d committed", got, len(data))
			}
			for qi, q := range queries {
				res, err := re.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				if pos, dist := bruteForce(q, data); res.Position != pos || math.Abs(res.Distance-dist) > 1e-9 {
					t.Fatalf("query %d after the crash: (#%d, %v), brute force (#%d, %v)", qi, res.Position, res.Distance, pos, dist)
				}
			}
			rep, err := Scrub(img, "conf")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("scrub after the crash: %+v", rep.Corrupt())
			}
		})
	}
}

// TestTreeLeafHeaderCorruption: a flipped bit in the header of a tree's
// leaf run (not covered by the manifest checksum) must fail the reopen with
// a typed error, never a panic.
func TestTreeLeafHeaderCorruption(t *testing.T) {
	fs, _ := confFS(t)
	ix, err := BuildTreeIndex(confConfig(fs, 1, false))
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
	if _, err := OpenTreeIndex(Config{Storage: fs, Name: "conf"}); !errors.Is(err, ErrCorruptManifest) {
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

// asFormatV5 re-encodes a current manifest as format version 5 wrote the
// same index: the payload carried a leaf capacity after the materialized
// flag, and a checksums flag and a compressed-runs flag (both set by every
// v5 writer that could be read, the second for LSM only) right after the
// record count, under a CRC of its own.
func asFormatV5(t *testing.T, good []byte) []byte {
	t.Helper()
	m, err := manifest.Decode(good)
	if err != nil {
		t.Fatal(err)
	}
	const header = 16
	// variant string, series length, segments, card bits, materialized;
	// then raw name string, count.
	capAt := header + 4 + len(m.Variant) + 3*4 + 1
	flagsAt := capAt + 4 + len(m.RawName) + 8
	payload := append([]byte(nil), good[header:capAt]...)
	payload = binary.LittleEndian.AppendUint32(payload, 2000) // leaf capacity
	payload = append(payload, good[capAt:flagsAt]...)
	payload = append(payload, 1, 0)
	if m.Variant == manifest.VariantLSM {
		payload[len(payload)-1] = 1
	}
	payload = append(payload, good[flagsAt:]...)
	out := binary.LittleEndian.AppendUint32(nil, binary.LittleEndian.Uint32(good))
	out = binary.LittleEndian.AppendUint32(out, 5)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// TestOpenRefusesOtherFormats: one stored format is read. An index whose
// manifest is of an earlier version — including a well-formed version 5,
// whose LSM runs were framed in checksum blocks, version 8, whose tree
// leaves were stamped B+-tree pages, and version 10, whose manifests stored
// a leaf capacity and a tree's leaf directory — is refused by Open, Scrub and Repair
// with ErrVersionMismatch, never misread as corruption, and opens again once
// the manifest is restored.
func TestOpenRefusesOtherFormats(t *testing.T) {
	variants := []struct {
		name  string
		build func(Config) (searcher, error)
		open  func(Config) (searcher, error)
	}{
		{"tree", func(c Config) (searcher, error) { return BuildTreeIndex(c) },
			func(c Config) (searcher, error) { return OpenTreeIndex(c) }},
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
				for _, ver := range []uint32{1, 2, 3, 4, 6, 7, 8, 9, 10} {
					old := append([]byte(nil), good...)
					binary.LittleEndian.PutUint32(old[4:], ver)
					if err := storage.WriteFileAll(fs, manifest.FileName("conf"), old); err != nil {
						t.Fatal(err)
					}
					refused(fmt.Sprintf("format version %d", ver))
				}
				if err := storage.WriteFileAll(fs, manifest.FileName("conf"), asFormatV5(t, good)); err != nil {
					t.Fatal(err)
				}
				refused("format version 5")
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

// TestOpenRefusesStoredTrie: testdata/storedtrie holds a Coconut-Trie
// ("trie") and a 2-partition index of trie children ("ptrie") over one
// dataset, as written while the trie was an index type of its own — in
// manifest version 10, a tree's. Open, OpenTrieIndex, OpenTreeIndex, Scrub
// and Repair refuse both with ErrVersionMismatch (rebuild as a tree): never
// as a corrupt index, never opened as a tree.
func TestOpenRefusesStoredTrie(t *testing.T) {
	fs := NewMemStorage()
	files, err := os.ReadDir("testdata/storedtrie")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join("testdata/storedtrie", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteFileAll(fs, f.Name(), data); err != nil {
			t.Fatal(err)
		}
	}
	calls := []struct {
		name string
		call func(Config) error
	}{
		{"Open", func(c Config) error { return closeIfOpened(Open(context.Background(), c)) }},
		{"OpenTrieIndex", func(c Config) error { return closeIfOpened(OpenTrieIndex(c)) }},
		{"OpenTreeIndex", func(c Config) error { return closeIfOpened(OpenTreeIndex(c)) }},
		{"Scrub", func(c Config) error { _, err := Scrub(c.Storage, c.Name); return err }},
		{"Repair", func(c Config) error { _, err := Repair(c); return err }},
	}
	for _, name := range []string{"trie", "ptrie"} {
		for _, c := range calls {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				if err := c.call(Config{Storage: fs, Name: name}); !errors.Is(err, ErrVersionMismatch) {
					t.Fatalf("%v, want ErrVersionMismatch", err)
				}
			})
		}
	}
}

// TestOpenRefusesStoredTree: testdata/storedtree holds a Coconut-Tree
// ("tree") and a 2-partition tree ("ptree") over one dataset, as written in
// manifest version 10, whose manifests stored a leaf capacity and each
// tree's leaf directory. Open, Scrub and Repair refuse both with
// ErrVersionMismatch (rebuild the index), and Repair leaves every file as
// it was.
func TestOpenRefusesStoredTree(t *testing.T) {
	const dir = "testdata/storedtree"
	fs := NewMemStorage()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string][]byte{}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		stored[f.Name()] = data
		if err := storage.WriteFileAll(fs, f.Name(), data); err != nil {
			t.Fatal(err)
		}
	}
	calls := map[string]func(Config) error{
		"Open":   func(c Config) error { return closeIfOpened(Open(context.Background(), c)) },
		"Scrub":  func(c Config) error { _, err := Scrub(c.Storage, c.Name); return err },
		"Repair": func(c Config) error { _, err := Repair(c); return err },
	}
	for _, name := range []string{"tree", "ptree"} {
		for call, fn := range calls {
			t.Run(name+"/"+call, func(t *testing.T) {
				if err := fn(Config{Storage: fs, Name: name}); !errors.Is(err, ErrVersionMismatch) {
					t.Fatalf("%v, want ErrVersionMismatch", err)
				}
			})
		}
	}
	if names := fs.Names(); len(names) != len(stored) {
		t.Fatalf("the store holds %v after the refusals, want the %d stored files", names, len(stored))
	}
	for name, want := range stored {
		if got, err := storage.ReadFileAll(fs, name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by a refused call (%v)", name, err)
		}
	}
}

// closeIfOpened closes an index an open call returned and passes its error
// on.
func closeIfOpened(ix *Index, err error) error {
	if ix != nil {
		ix.Close()
	}
	return err
}

// smallestKey returns the position of a series of data whose invSAX key,
// under the conformance summarization, is the smallest.
func smallestKey(t *testing.T, data []Series) int {
	t.Helper()
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: confLen, Segments: 8, CardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	best, keys := 0, make([]summary.Key, len(data))
	for i, x := range data {
		if keys[i], err = s.KeyOf(x); err != nil {
			t.Fatal(err)
		}
		if keys[i].Less(keys[best]) {
			best = i
		}
	}
	return best
}
