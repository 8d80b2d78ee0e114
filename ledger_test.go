package coconut

// The cost ledger: the stored bytes and the counted I/O of a fixed matrix of
// builds, inserts and reopens, checked entry by entry against
// testdata/ledger.json. A change that moves a stored byte or a counted cost
// fails here and, once intended, commits the new table (go test -run
// TestCostLedger -update .), so every such change shows in the diff.
//
// The matrix is every variant (the tree also materialized) × Workers 1
// and 4 × a budget that sorts in many chunks and the default one × 1 and 3
// partitions. Each cell builds over a seeded dataset, runs a fixed insert
// schedule (variants that take inserts), Syncs, Closes, reopens and Closes
// again. The SHA-256 of every stored file is recorded after the build and at
// the end, and must be the same at both worker counts: the determinism
// contract. So must the raw series a fixed query set visits after the
// inserts, per search: exact, approximate at radius 0 and 1, and 5-NN. At
// Workers = 1 the cell also records, per phase, the bytes read and written,
// the read and write operations and the fsyncs; the queries' phases are one
// per search mode (query_exact, ...), all at QueryWorkers = 1. The rand/seq
// split of the operations is not recorded: at Workers > 1 it depends on how
// shards interleave on one handle.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.json from this run")

const ledgerFile = "testdata/ledger.json"

// ledgerCell is one cell of the matrix: file name → SHA-256 after the build
// and at the end, phase → counted I/O at Workers = 1, and search → the raw
// series it visited over the fixed query set.
type ledgerCell struct {
	Built   map[string]string   `json:"built"`
	Final   map[string]string   `json:"final"`
	IO      map[string]ledgerIO `json:"io"`
	Visited map[string]int64    `json:"visited"`
}

// ledgerIO is the counted cost of one phase.
type ledgerIO struct {
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	Syncs        int64 `json:"syncs"`
}

// syncCounter is MemFS counting fsyncs, which storage.Stats does not.
type syncCounter struct {
	*storage.MemFS
	syncs atomic.Int64
}

type syncCountedFile struct {
	storage.File
	syncs *atomic.Int64
}

func (f syncCountedFile) Sync() error { f.syncs.Add(1); return f.File.Sync() }

func (s *syncCounter) Create(name string) (storage.File, error) {
	f, err := s.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return syncCountedFile{f, &s.syncs}, nil
}

func (s *syncCounter) Open(name string) (storage.File, error) {
	f, err := s.MemFS.Open(name)
	if err != nil {
		return nil, err
	}
	return syncCountedFile{f, &s.syncs}, nil
}

// counted returns the device's counters as a ledgerIO.
func (s *syncCounter) counted() ledgerIO {
	st := s.Stats().Snapshot()
	return ledgerIO{
		BytesRead: st.BytesRead, BytesWritten: st.BytesWritten,
		Reads: st.RandReads + st.SeqReads, Writes: st.RandWrites + st.SeqWrites,
		Syncs: s.syncs.Load(),
	}
}

func (a ledgerIO) sub(b ledgerIO) ledgerIO {
	return ledgerIO{a.BytesRead - b.BytesRead, a.BytesWritten - b.BytesWritten,
		a.Reads - b.Reads, a.Writes - b.Writes, a.Syncs - b.Syncs}
}

// hashFiles returns the SHA-256 of every file on fs, by name.
func hashFiles(t *testing.T, fs *syncCounter) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range fs.Names() {
		b, err := storage.ReadFileAll(fs.MemFS, name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

// ledgerRun runs one cell at one worker count.
func ledgerRun(t *testing.T, variant Variant, materialized bool, budget int64, parts, workers int) ledgerCell {
	t.Helper()
	const count, seriesLen = 2000, 64
	fs := &syncCounter{MemFS: storage.NewMemFS()}
	if err := GenerateDataset(fs, "data", RandomWalk, count, seriesLen, 7); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Storage: fs, Name: "ix", DataFile: "data", SeriesLen: seriesLen,
		Materialized: materialized, MemoryBudget: budget,
		Workers: workers, QueryWorkers: 1, Partitions: parts,
	}
	cell := ledgerCell{IO: map[string]ledgerIO{}}
	phase := func(name string, step func() error) {
		t.Helper()
		before := fs.counted()
		if err := step(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cell.IO[name] = fs.counted().sub(before)
	}
	var ix *Index
	phase("build", func() (err error) {
		ix, err = Build(context.Background(), cfg, variant)
		return err
	})
	cell.Built = hashFiles(t, fs)
	phase("insert", func() error {
		for b := range 4 {
			batch, err := GenerateQueries(RandomWalk, 250, seriesLen, int64(100+b))
			if err != nil {
				return err
			}
			if err := ix.Insert(batch); err != nil {
				if errors.Is(err, errors.ErrUnsupported) {
					return nil
				}
				return err
			}
		}
		return ix.Sync()
	})
	var queryIO map[string]ledgerIO
	cell.Visited, queryIO = ledgerVisits(t, fs, ix, seriesLen)
	maps.Copy(cell.IO, queryIO)
	phase("close", ix.Close)
	phase("reopen", func() error {
		re, err := Open(context.Background(), Config{Storage: fs, Name: "ix", Workers: workers, QueryWorkers: 1})
		if err != nil {
			return err
		}
		return re.Close()
	})
	cell.Final = hashFiles(t, fs)
	return cell
}

// ledgerVisits runs the fixed query set against ix on fs — exact,
// approximate at radius 0 and 1, and 5-NN, one search mode after the other —
// and returns, per search, the raw series it visited in all and the counted
// I/O of its queries.
func ledgerVisits(t *testing.T, fs *syncCounter, ix *Index, seriesLen int) (map[string]int64, map[string]ledgerIO) {
	t.Helper()
	qs, err := GenerateQueries(RandomWalk, 10, seriesLen, 55)
	if err != nil {
		t.Fatal(err)
	}
	visited, io := map[string]int64{}, map[string]ledgerIO{}
	for _, mode := range []struct {
		name   string
		search func(q Series) (Result, error)
	}{
		{"exact", func(q Series) (Result, error) { return ix.Search(q) }},
		{"approx_r0", func(q Series) (Result, error) { return ix.SearchApprox(q, 0) }},
		{"approx_r1", func(q Series) (Result, error) { return ix.SearchApprox(q, 1) }},
		{"knn5", func(q Series) (Result, error) {
			_, res, err := ix.ix.ExactSearchKNN(context.Background(), q, 5)
			return fromCore(res), err
		}},
	} {
		before := fs.counted()
		for _, q := range qs {
			res, err := mode.search(q)
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			visited[mode.name] += res.VisitedSeries
		}
		io["query_"+mode.name] = fs.counted().sub(before)
	}
	return visited, io
}

func TestCostLedger(t *testing.T) {
	type variant struct {
		name         string
		v            Variant
		materialized bool
	}
	variants := []variant{{"tree", Tree, false}, {"tree-full", Tree, true}, {"lsm", LSM, false}}
	budgets := []struct {
		name string
		b    int64
	}{{"multichunk", 16 << 10}, {"default", 0}}
	got := map[string]ledgerCell{}
	for _, v := range variants {
		for _, b := range budgets {
			for _, parts := range []int{1, 3} {
				key := fmt.Sprintf("%s/%s/parts=%d", v.name, b.name, parts)
				cell := ledgerRun(t, v.v, v.materialized, b.b, parts, 1)
				wide := ledgerRun(t, v.v, v.materialized, b.b, parts, 4)
				for _, stage := range []struct {
					name      string
					one, four map[string]string
				}{{"built", cell.Built, wide.Built}, {"final", cell.Final, wide.Final}} {
					for _, d := range diffHashes(stage.one, stage.four) {
						t.Errorf("%s: %s at Workers=4 differs from Workers=1: %s", key, stage.name, d)
					}
				}
				if !maps.Equal(cell.Visited, wide.Visited) {
					t.Errorf("%s: visited %v at Workers=4, %v at Workers=1", key, wide.Visited, cell.Visited)
				}
				got[key] = cell
			}
		}
	}
	if *updateLedger {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(ledgerFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
	}
	var want map[string]ledgerCell
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(want, got) {
		w, ok := want[key]
		g, ok2 := got[key]
		if !ok || !ok2 {
			t.Errorf("%s: cell recorded %v, run %v", key, ok, ok2)
			continue
		}
		for _, d := range diffHashes(w.Built, g.Built) {
			t.Errorf("%s: built: %s", key, d)
		}
		for _, d := range diffHashes(w.Final, g.Final) {
			t.Errorf("%s: final: %s", key, d)
		}
		for _, ph := range sortedKeys(w.IO, g.IO) {
			if w.IO[ph] != g.IO[ph] {
				t.Errorf("%s: %s I/O moved: recorded %+v, now %+v", key, ph, w.IO[ph], g.IO[ph])
			}
		}
		for _, search := range sortedKeys(w.Visited, g.Visited) {
			if w.Visited[search] != g.Visited[search] {
				t.Errorf("%s: %s visited %d series, recorded %d", key, search, g.Visited[search], w.Visited[search])
			}
		}
	}
}

// diffHashes lists the files whose hashes differ between a and b, or that
// only one holds.
func diffHashes(a, b map[string]string) []string {
	var out []string
	for _, name := range sortedKeys(a, b) {
		if a[name] != b[name] {
			out = append(out, fmt.Sprintf("%s: %.12s → %.12s", name, a[name], b[name]))
		}
	}
	return out
}

// sortedKeys returns the union of the maps' keys, sorted.
func sortedKeys[V any](maps ...map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range maps {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
