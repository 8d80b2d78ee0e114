package bptree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/coconut-db/coconut/internal/storage"
)

const (
	testRecSize = 16
	testKeyLen  = 8
)

func testConfig(fs storage.FS) Config {
	return Config{
		FS:         fs,
		Name:       "t",
		RecordSize: testRecSize,
		KeyLen:     testKeyLen,
		LeafCap:    8,
	}
}

func mkRecord(key uint64, payload uint64) []byte {
	rec := make([]byte, testRecSize)
	binary.BigEndian.PutUint64(rec[:8], key)
	binary.LittleEndian.PutUint64(rec[8:], payload)
	return rec
}

func recKey(rec []byte) uint64 { return binary.BigEndian.Uint64(rec[:8]) }

// bulkLoad loads recs, in key order, the way the external sort does: as one
// byte stream written through the Loader's wrapper, in uneven chunks.
func bulkLoad(cfg Config, recs [][]byte) (*Tree, error) {
	ld, err := NewLoader(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := cfg.FS.Create(cfg.leafFileName())
	if err != nil {
		return nil, err
	}
	f, err := ld.Wrap(inner)
	if err != nil {
		inner.Close()
		return nil, err
	}
	stream := bytes.Join(recs, nil)
	for off := 0; off < len(stream); {
		n := min(len(stream)-off, 1+off%37)
		if _, err := f.WriteAt(stream[off:off+n], int64(off)); err != nil {
			f.Close()
			return nil, err
		}
		off += n
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return Open(cfg, ld.Leaves())
}

func sortedRecords(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(int64(n) * 10))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	recs := make([][]byte, n)
	for i, k := range keys {
		recs[i] = mkRecord(k, uint64(i))
	}
	return recs
}

func buildTree(t *testing.T, fs storage.FS, recs [][]byte, cfgMut func(*Config)) *Tree {
	t.Helper()
	cfg := testConfig(fs)
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	tree, err := bulkLoad(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// collect returns every record in scan order.
func collect(t *testing.T, tr *Tree) [][]byte {
	t.Helper()
	var out [][]byte
	if err := tr.ScanAll(func(rec []byte) error {
		out = append(out, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkDir validates the directory against the pages: entries in key
// order, each separator its leaf's first key, pages a permutation of
// [0, n), every leaf non-empty and within capacity, counts summing to
// Count, and ScanAll returning the keys sorted.
func checkDir(tr *Tree) error {
	seen := make([]bool, len(tr.dir))
	var total int64
	buf := make([]byte, tr.cfg.LeafCap*tr.cfg.RecordSize)
	var prev []byte
	for li, l := range tr.dir {
		if l.Page < 0 || l.Page >= int64(len(seen)) || seen[l.Page] {
			return fmt.Errorf("leaf %d on page %d: pages are not a permutation of [0,%d)", li, l.Page, len(seen))
		}
		seen[l.Page] = true
		if l.Count < 1 || l.Count > tr.cfg.LeafCap {
			return fmt.Errorf("leaf %d holds %d records", li, l.Count)
		}
		if li > 0 && bytes.Compare(tr.dir[li-1].Sep, l.Sep) > 0 {
			return fmt.Errorf("separator %d out of order", li)
		}
		n, err := tr.ReadLeaf(li, buf)
		if err != nil {
			return err
		}
		if !bytes.Equal(l.Sep, buf[:tr.cfg.KeyLen]) {
			return fmt.Errorf("leaf %d: separator %x, first key %x", li, l.Sep, buf[:tr.cfg.KeyLen])
		}
		for i := 0; i < n; i++ {
			k := buf[i*tr.cfg.RecordSize:][:tr.cfg.KeyLen]
			if prev != nil && bytes.Compare(prev, k) > 0 {
				return fmt.Errorf("leaf %d record %d out of key order", li, i)
			}
			prev = append(prev[:0], k...)
		}
		total += int64(n)
	}
	if total != tr.Count() {
		return fmt.Errorf("leaves hold %d records, Count says %d", total, tr.Count())
	}
	var scanned int64
	prev = nil
	if err := tr.ScanAll(func(rec []byte) error {
		if prev != nil && bytes.Compare(prev, rec[:tr.cfg.KeyLen]) > 0 {
			return fmt.Errorf("ScanAll out of key order at record %d", scanned)
		}
		prev = append(prev[:0], rec[:tr.cfg.KeyLen]...)
		scanned++
		return nil
	}); err != nil {
		return err
	}
	if scanned != total {
		return fmt.Errorf("ScanAll saw %d records, the leaves hold %d", scanned, total)
	}
	return nil
}

func TestBulkLoadBasics(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords(100, 1)
	tree := buildTree(t, fs, recs, nil)
	defer tree.Close()

	if tree.Count() != 100 {
		t.Fatalf("Count = %d", tree.Count())
	}
	if got := tree.NumLeaves(); got != 13 { // ceil(100/8)
		t.Fatalf("NumLeaves = %d, want 13", got)
	}
	if err := checkDir(tree); err != nil {
		t.Fatal(err)
	}
	// Full pack: every leaf but the last is 100% full.
	if fill := tree.AvgLeafFill(); fill < 0.9 {
		t.Fatalf("bulk load fill %v too low", fill)
	}
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	fs := storage.NewMemFS()
	empty := buildTree(t, fs, nil, func(c *Config) { c.Name = "e" })
	defer empty.Close()
	if empty.Count() != 0 || empty.NumLeaves() != 0 || len(collect(t, empty)) != 0 {
		t.Fatal("empty tree should have no leaves")
	}

	one := buildTree(t, fs, [][]byte{mkRecord(5, 0)}, func(c *Config) { c.Name = "s" })
	defer one.Close()
	if one.Count() != 1 || one.NumLeaves() != 1 {
		t.Fatal("single-record tree shape wrong")
	}
	if err := checkDir(one); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsPartialRecord(t *testing.T) {
	fs := storage.NewMemFS()
	if _, err := bulkLoad(testConfig(fs), [][]byte{mkRecord(1, 0), make([]byte, 3)}); err == nil {
		t.Fatal("expected error for a stream ending inside a record")
	}
}

// TestBulkLoadRejectsGap: the wrapper takes the sort's output stream in
// order; a write past its end is refused, not packed out of place.
func TestBulkLoadRejectsGap(t *testing.T) {
	fs := storage.NewMemFS()
	cfg := testConfig(fs)
	ld, err := NewLoader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := fs.Create(cfg.leafFileName())
	if err != nil {
		t.Fatal(err)
	}
	f, err := ld.Wrap(inner)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(mkRecord(1, 0), testRecSize); err == nil {
		t.Fatal("expected error for a write past the stream's end")
	}
}

func TestBulkLoadIsSequential(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords(5000, 2)
	tree := buildTree(t, fs, recs, func(c *Config) { c.LeafCap = 64 })
	defer tree.Close()
	// Bottom-up loading writes leaves once, sequentially: past the checksum
	// file's header, no write goes anywhere but the end of the file.
	if snap := fs.Stats().Snapshot(); snap.RandWrites > 1 {
		t.Fatalf("bulk load should be sequential: %+v", snap)
	}
}

func TestScanAll(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, sortedRecords(333, 4), nil)
	defer tree.Close()
	got := collect(t, tree)
	if len(got) != 333 {
		t.Fatalf("ScanAll saw %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if recKey(got[i-1]) > recKey(got[i]) {
			t.Fatal("ScanAll out of order")
		}
	}
}

func TestInsertIntoEmptyAndGrow(t *testing.T) {
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, nil, nil)
	defer tree.Close()
	rng := rand.New(rand.NewSource(5))
	keys := rng.Perm(500)
	for _, k := range keys {
		if err := tree.Insert(mkRecord(uint64(k), uint64(k))); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Count() != 500 {
		t.Fatalf("Count = %d", tree.Count())
	}
	if err := checkDir(tree); err != nil {
		t.Fatal(err)
	}
	// All leaves at least half full (median splits guarantee it).
	for li, l := range tree.Leaves() {
		if l.Count < tree.cfg.LeafCap/2 {
			t.Fatalf("leaf %d only %d/%d full", li, l.Count, tree.cfg.LeafCap)
		}
	}
}

func TestInsertAfterBulkLoad(t *testing.T) {
	fs := storage.NewMemFS()
	recs := make([][]byte, 0, 100)
	for i := 0; i < 100; i++ {
		recs = append(recs, mkRecord(uint64(i*3), uint64(i)))
	}
	tree := buildTree(t, fs, recs, nil)
	defer tree.Close()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		if err := tree.Insert(mkRecord(uint64(rng.Intn(400)), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Count() != 300 {
		t.Fatalf("Count = %d", tree.Count())
	}
	if err := checkDir(tree); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDirectory drives random batches — runs of one duplicated key
// long enough to straddle leaf boundaries among them — into bulk-loaded and
// empty trees, and after every batch holds the flat directory to checkDir
// and the records to a sorted reference. A tree reopened from its synced
// directory has the same directory and records.
func TestPropertyDirectory(t *testing.T) {
	f := func(seed int64, nBatches uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := storage.NewMemFS()
		cfg := testConfig(fs)
		cfg.LeafCap = 4 + rng.Intn(6)
		cfg.FillFactor = []float64{0.5, 0.8, 1}[rng.Intn(3)]
		var ref []uint64
		initial := sortedRecords(rng.Intn(60), seed)
		for _, r := range initial {
			ref = append(ref, recKey(r))
		}
		tree, err := bulkLoad(cfg, initial)
		if err != nil {
			t.Log(err)
			return false
		}
		defer tree.Close()
		for b := 0; b < int(nBatches%6)+1; b++ {
			var batch []uint64
			for i := rng.Intn(40); i > 0; i-- {
				batch = append(batch, uint64(rng.Intn(600)))
			}
			dup := uint64(rng.Intn(600))
			for i := rng.Intn(3 * cfg.LeafCap); i > 0; i-- {
				batch = append(batch, dup)
			}
			slices.Sort(batch)
			for i, k := range batch {
				if err := tree.Insert(mkRecord(k, uint64(1000*b+i))); err != nil {
					t.Log(err)
					return false
				}
			}
			ref = append(ref, batch...)
			if err := checkDir(tree); err != nil {
				t.Log(err)
				return false
			}
		}
		slices.Sort(ref)
		got := collect(t, tree)
		if len(got) != len(ref) {
			t.Logf("%d records, reference %d", len(got), len(ref))
			return false
		}
		for i := range ref {
			if recKey(got[i]) != ref[i] {
				t.Logf("record %d key %d, reference %d", i, recKey(got[i]), ref[i])
				return false
			}
		}
		if err := tree.Sync(); err != nil {
			t.Log(err)
			return false
		}
		re, err := Open(Config{FS: fs, Name: cfg.Name, RecordSize: cfg.RecordSize, KeyLen: cfg.KeyLen, LeafCap: cfg.LeafCap}, slices.Clone(tree.Leaves()))
		if err != nil {
			t.Log(err)
			return false
		}
		defer re.Close()
		if err := checkDir(re); err != nil {
			t.Log(err)
			return false
		}
		return slices.EqualFunc(tree.Leaves(), re.Leaves(), func(a, b Leaf) bool {
			return a.Page == b.Page && a.Count == b.Count && a.Stamp == b.Stamp && bytes.Equal(a.Sep, b.Sep)
		}) && slices.EqualFunc(got, collect(t, re), bytes.Equal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncOpenRoundTrip(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords(250, 7)
	tree := buildTree(t, fs, recs, nil)
	// Mutate after load so persistence covers the insert path too.
	for i := 0; i < 50; i++ {
		if err := tree.Insert(mkRecord(uint64(i*13%500), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Sync(); err != nil {
		t.Fatal(err)
	}
	dir := slices.Clone(tree.Leaves())
	want := collect(t, tree)
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(testConfig(fs), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 300 {
		t.Fatalf("reopened Count = %d", re.Count())
	}
	if err := checkDir(re); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(want, collect(t, re), bytes.Equal) {
		t.Fatal("reopened tree content differs")
	}
	// One page per leaf: pages are never freed.
	if re.SizeBytes() != int64(re.NumLeaves())*re.cfg.pageSize() {
		t.Fatalf("leaf file holds %d bytes, want %d pages", re.SizeBytes(), re.NumLeaves())
	}
}

func TestOpenMissingLeafFile(t *testing.T) {
	fs := storage.NewMemFS()
	if _, err := Open(Config{FS: fs, Name: "absent", RecordSize: testRecSize, KeyLen: testKeyLen, LeafCap: 8}, nil); err == nil {
		t.Fatal("expected error opening missing tree")
	}
}

func TestFillFactor(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords(100, 8)
	tree := buildTree(t, fs, recs, func(c *Config) { c.FillFactor = 0.5 })
	defer tree.Close()
	// Fill 0.5 with LeafCap 8 → 4 records per leaf → 25 leaves.
	if got := tree.NumLeaves(); got != 25 {
		t.Fatalf("NumLeaves = %d, want 25", got)
	}
	fill := tree.AvgLeafFill()
	if fill < 0.45 || fill > 0.55 {
		t.Fatalf("AvgLeafFill = %v, want ~0.5", fill)
	}
	if err := checkDir(tree); err != nil {
		t.Fatal(err)
	}
}

func TestReadLeafAndDir(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords(64, 9)
	tree := buildTree(t, fs, recs, nil)
	defer tree.Close()
	total := 0
	buf := make([]byte, tree.cfg.LeafCap*testRecSize)
	var prev int64 = -1
	for li, l := range tree.Leaves() {
		n, err := tree.ReadLeaf(li, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != l.Count {
			t.Fatalf("leaf %d count mismatch", li)
		}
		for i := 0; i < n; i++ {
			k := int64(recKey(buf[i*testRecSize:]))
			if k < prev {
				t.Fatal("leaf records out of global order")
			}
			prev = k
		}
		total += n
	}
	if total != 64 {
		t.Fatalf("leaves hold %d records", total)
	}
}

func TestConfigValidation(t *testing.T) {
	fs := storage.NewMemFS()
	bad := []Config{
		{},
		{FS: fs},
		{FS: fs, Name: "x"},
		{FS: fs, Name: "x", RecordSize: 8},
		{FS: fs, Name: "x", RecordSize: 8, KeyLen: 9},
		{FS: fs, Name: "x", RecordSize: 8, KeyLen: 8, LeafCap: 1},
	}
	for i, cfg := range bad {
		if _, err := NewLoader(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestKeyOrderAgreesWithBytesCompare(t *testing.T) {
	// Keys are big-endian so numeric order == bytes.Compare order; verify
	// the tree preserves it under random workloads.
	fs := storage.NewMemFS()
	tree := buildTree(t, fs, nil, nil)
	defer tree.Close()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		if err := tree.Insert(mkRecord(rng.Uint64()%10000, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkDir(tree); err != nil {
		t.Fatal(err)
	}
}
