package core

// Tests of the tree's leaf run as a record store, carried over from the
// suite of the B+-tree file it replaced: the bulk load, inserts one record
// or one batch at a time, the Sync/Open round trip, and damage to the stored
// run, each held to the invariants of checkTreeRun.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// leafSpan returns the ordinals [lo, hi) leaf li — checksum block li of the
// run — holds.
func (ix *TreeIndex) leafSpan(li int) (lo, hi int) {
	per := leafBlockSize(ix.opt.recordSize()) / ix.opt.recordSize()
	return li * per, min((li+1)*per, ix.sims.col.Len())
}

// readLeaf returns the records of leaf li — exactly its extent of the run —
// in buf when it is large enough: how the tests look at a leaf (queries read
// candidate records, never leaves).
func (ix *TreeIndex) readLeaf(li int, buf []byte) ([]byte, error) {
	recSize := ix.opt.recordSize()
	lo, hi := ix.leafSpan(li)
	n := (hi - lo) * recSize
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if got, err := ix.file.ReadAt(buf, int64(lo)*int64(recSize)); got != n {
		return nil, fmt.Errorf("core: read leaf %d: %w", li, truncatedLeaves(err))
	}
	return buf, nil
}

// checkTreeRun holds a tree to the invariants of a dense run: its leaves
// are its checksum blocks, every one full but the last, which holds 1…per
// records, each leaf reads back exactly its records, the run is in key
// order under both the byte order the merge sorts by and the order the
// loader checks, every position 0…Count−1 is indexed once, and the file
// holds exactly the records, unpadded.
func checkTreeRun(t *testing.T, ix *loneTree) {
	t.Helper()
	n := int(ix.Count())
	recSize := ix.opt.recordSize()
	per := leafBlockSize(recSize) / recSize
	leaves := ix.Shape().Leaves
	if leaves != (n+per-1)/per {
		t.Fatalf("%d leaves for a run of %d records, %d a checksum block", leaves, n, per)
	}
	seen := make([]bool, n)
	var prev []byte
	for li := 0; li < leaves; li++ {
		lo, hi := ix.leafSpan(li)
		c := hi - lo
		recs, err := ix.readLeaf(li, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != c*recSize {
			t.Fatalf("leaf %d read %d bytes, want %d records", li, len(recs), c)
		}
		for off := 0; off < len(recs); off += recSize {
			rec := recs[off : off+recSize]
			r := summary.DecodeRecord(rec)
			key, pos := r.Key, r.Pos
			if prev != nil {
				p := summary.DecodeRecord(prev)
				if bytes.Compare(prev[:summary.KeySize], rec[:summary.KeySize]) > 0 || key.Less(p.Key) {
					t.Fatalf("leaf %d: record out of key order", li)
				}
			}
			prev = rec
			if pos < 0 || pos >= int64(n) || seen[pos] {
				t.Fatalf("leaf %d: position %d out of range or indexed twice", li, pos)
			}
			seen[pos] = true
		}
	}
	if got, want := ix.SizeBytes(), int64(n*recSize); got != want {
		t.Fatalf("leaf run holds %d bytes, its %d records take %d", got, n, want)
	}
}

// walkFS stores n random-walk series as the raw file "raw".
func walkFS(t *testing.T, n int, seed int64) (*storage.MemFS, []series.Series) {
	t.Helper()
	fs := storage.NewMemFS()
	data := dataset.Generate(dataset.NewRandomWalk(), n, tLen, seed)
	writeRaw(t, fs, data, 0)
	return fs, data
}

// insertOneByOne inserts data one series a batch, so every record is one
// merge of the run and one step of the split policy.
func insertOneByOne(t *testing.T, ix *loneTree, data []series.Series) {
	t.Helper()
	for i := range data {
		if err := ix.Insert(context.Background(), data[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBulkLoadBasics: a bulk load of 333 records of 24 bytes packs
// ⌈333/170⌉ = 2 leaves — 4 080-byte checksum blocks — the first full and
// the last holding the rest.
func TestBulkLoadBasics(t *testing.T) {
	fs, _ := walkFS(t, 333, 1)
	ix, err := buildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Count() != 333 || ix.Shape().Leaves != 2 {
		t.Fatalf("%d records in %d leaves, want 333 in 2", ix.Count(), ix.Shape().Leaves)
	}
	if lo, hi := ix.leafSpan(1); lo != 170 || hi != 333 {
		t.Fatalf("last leaf holds records [%d, %d), want [170, 333)", lo, hi)
	}
	if fill := ix.Shape().LeafFill; fill != 333.0/340 {
		t.Fatalf("bulk load fill %v, want 333/340", fill)
	}
	checkTreeRun(t, ix)
}

// TestBulkLoadEmptyAndSingle: a tree over no records has no leaves and an
// empty run; a tree over one record has one leaf and finds it.
func TestBulkLoadEmptyAndSingle(t *testing.T) {
	for _, mat := range []bool{false, true} {
		fs, _ := walkFS(t, 0, 1)
		empty, err := buildTree(baseOptions(t, fs, mat))
		if err != nil {
			t.Fatal(err)
		}
		if empty.Count() != 0 || empty.Shape().Leaves != 0 || empty.SizeBytes() != 0 {
			t.Fatalf("materialized=%v: empty tree holds %d records in %d leaves, %d bytes",
				mat, empty.Count(), empty.Shape().Leaves, empty.SizeBytes())
		}
		checkTreeRun(t, empty)
		empty.Close()

		fs, data := walkFS(t, 1, 2)
		one, err := buildTree(baseOptions(t, fs, mat))
		if err != nil {
			t.Fatal(err)
		}
		if one.Count() != 1 || one.Shape().Leaves != 1 {
			t.Fatalf("materialized=%v: single-record tree holds %d records in %d leaves", mat, one.Count(), one.Shape().Leaves)
		}
		checkTreeRun(t, one)
		res, err := one.ExactSearch(context.Background(), data[0], 0)
		if err != nil || res.Pos != 0 || res.Dist > 1e-9 {
			t.Fatalf("materialized=%v: single record answered %+v, %v", mat, res, err)
		}
		one.Close()
	}
}

// TestBulkLoadIsSequential: an insert batch is one merge of the run and the
// in-memory batch, read and written sequentially — its seeks stay a small
// constant whatever the number of leaves, and it writes the next generation
// of the run once and nothing else.
func TestBulkLoadIsSequential(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	batch := dataset.Generate(dataset.NewRandomWalk(), 60, tLen, 5)
	recs := make([]summary.Record, len(batch))
	var enc []byte
	for i, s := range batch {
		if recs[i].Key, err = opt.S.KeyOf(s); err != nil {
			t.Fatal(err)
		}
		enc = series.AppendEncode(enc, s)
	}
	first, err := ix.sums.Append(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].Pos = first + int64(i)
	}
	before := fs.Stats().Snapshot()
	if err := ix.InsertRecords(recs); err != nil {
		t.Fatal(err)
	}
	delta := fs.Stats().Snapshot().Sub(before)
	if delta.Seeks() > 20 {
		t.Fatalf("an insert batch over %d leaves made %d seeks: %+v", ix.Shape().Leaves, delta.Seeks(), delta)
	}
	// The next generation of the run is the one file written: a header and
	// 4 bytes of CRC a block.
	recSize := opt.recordSize()
	payload := int64((tCount + len(batch)) * recSize)
	if framed := payload + payload/int64(leafBlockSize(recSize))*4 + storage.ChecksumHeaderSize + 4; delta.BytesWritten < payload || delta.BytesWritten > framed {
		t.Fatalf("an insert batch wrote %d bytes, want the run once: %d to %d", delta.BytesWritten, payload, framed)
	}
	checkTreeRun(t, ix)
}

// TestScanAll: after inserts in batches, the run read leaf by leaf holds
// every indexed position once, in key order.
func TestScanAll(t *testing.T) {
	fs, _ := walkFS(t, 333, 4)
	ix, err := buildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	extra := dataset.Generate(dataset.NewSeismic(), 90, tLen, 4)
	for lo := 0; lo < len(extra); lo += 30 {
		if err := ix.Insert(context.Background(), extra[lo:lo+30]); err != nil {
			t.Fatal(err)
		}
	}
	pos, err := ix.positions()
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 423 || ix.Count() != 423 {
		t.Fatalf("scan saw %d positions, Count %d, want 423", len(pos), ix.Count())
	}
	checkTreeRun(t, ix)
}

// TestInsertIntoEmptyAndGrow: a tree built over no records grows by
// single-record inserts in random order; each merges into the next
// generation of the run, so every leaf but the last stays full.
func TestInsertIntoEmptyAndGrow(t *testing.T) {
	fs, _ := walkFS(t, 0, 1)
	opt := baseOptions(t, fs, false)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	data := dataset.Generate(dataset.NewRandomWalk(), 250, tLen, 5)
	rand.New(rand.NewSource(5)).Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	insertOneByOne(t, ix, data)
	if ix.Count() != 250 {
		t.Fatalf("Count = %d", ix.Count())
	}
	checkTreeRun(t, ix)
	checkExact(t, ix, dataset.Queries(dataset.NewRandomWalk(), 4, tLen, 19), data)
}

// TestInsertAfterBulkLoad: single-record inserts into a bulk-loaded tree,
// new series and duplicates of indexed ones alike, keep the run valid, and
// each inserted series is found at distance 0.
func TestInsertAfterBulkLoad(t *testing.T) {
	fs, data := walkFS(t, 100, 6)
	ix, err := buildTree(baseOptions(t, fs, true))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	extra := dataset.Generate(dataset.NewRandomWalk(), 150, tLen, 60)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		extra = append(extra, data[rng.Intn(len(data))])
	}
	insertOneByOne(t, ix, extra)
	if ix.Count() != 300 {
		t.Fatalf("Count = %d", ix.Count())
	}
	checkTreeRun(t, ix)
	for _, i := range []int{0, 77, 149, 150, 199} {
		res, err := ix.ExactSearch(context.Background(), extra[i], 0)
		if err != nil || res.Dist > 1e-9 {
			t.Fatalf("inserted series %d answered %+v, %v", i, res, err)
		}
	}
}

// TestSyncOpenRoundTrip: a tree synced after two insert batches reopens
// with the same leaves and the same run, stored as the one generation its
// manifest names.
func TestSyncOpenRoundTrip(t *testing.T) {
	fs, _ := walkFS(t, 250, 7)
	opt := baseOptions(t, fs, false)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 2; b++ {
		if err := ix.Insert(context.Background(), dataset.Generate(dataset.NewRandomWalk(), 25, tLen, 70+b)); err != nil {
			t.Fatal(err)
		}
		if err := ix.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	leaves := ix.Shape().Leaves
	want, err := ix.positions()
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 300 || re.Shape().Leaves != leaves {
		t.Fatalf("reopened with %d records in %d leaves, want 300 in %d", re.Count(), re.Shape().Leaves, leaves)
	}
	got, err := re.positions()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("reopened tree content differs")
	}
	checkTreeRun(t, re)
	for gen := int64(0); gen < 2; gen++ {
		if fs.Exists(runName(opt.Name, gen)) {
			t.Fatalf("superseded generation %d still stored", gen)
		}
	}
	if !fs.Exists(runName(opt.Name, 2)) {
		t.Fatal("committed generation 2 not stored")
	}
}

// TestChecksummedTreeRoundTrip: a materialized tree's records — key,
// position and raw series — come back byte for byte after inserts, Sync and
// reopen, and each record's raw series is the one stored at its position.
func TestChecksummedTreeRoundTrip(t *testing.T) {
	fs, data := walkFS(t, 300, 5)
	opt := baseOptions(t, fs, true)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	extra := dataset.Generate(dataset.NewSeismic(), 60, tLen, 5)
	if err := ix.Insert(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	data = append(data, extra...)
	want := logicalRun(t, ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := logicalRun(t, re)
	if !bytes.Equal(got, want) {
		t.Fatal("records differ after reopen")
	}
	recSize := opt.recordSize()
	for off := 0; off < len(got); off += recSize {
		rec, raw := summary.DecodeRecord(got[off:]), got[off+summary.RecordSize:off+recSize]
		if !bytes.Equal(raw, series.AppendEncode(nil, data[rec.Pos])) {
			t.Fatalf("record at %d carries another series than position %d's", off/recSize, rec.Pos)
		}
	}
	checkTreeRun(t, re)
}

// logicalRun reads the tree's whole run, leaf by leaf.
func logicalRun(t *testing.T, ix *loneTree) []byte {
	t.Helper()
	var out []byte
	for li := 0; li < ix.Shape().Leaves; li++ {
		recs, err := ix.readLeaf(li, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, recs...)
	}
	return out
}

// TestOpenMissingLeafFile: a tree whose committed run is missing — the
// bulk load's generation, or the one a Sync after inserts committed — fails
// Open with ErrNotExist.
func TestOpenMissingLeafFile(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if err := fs.Remove(runName(opt.Name, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := openTree(opt); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("missing generation 0: got %v, want ErrNotExist", err)
	}

	fs, _ = fixtureFS(t)
	opt = baseOptions(t, fs, false)
	if ix, err = buildTree(opt); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(context.Background(), dataset.Generate(dataset.NewRandomWalk(), 10, tLen, 8)); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if err := fs.Remove(runName(opt.Name, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := openTree(opt); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("missing generation 1: got %v, want ErrNotExist", err)
	}
}

// TestReadLeafAndDir: each leaf reads back exactly its checksum block's
// records, the ordinals of leaf li span it alone and the leaves before it,
// and a buffer large enough is reused.
func TestReadLeafAndDir(t *testing.T) {
	fs, _ := fixtureFS(t)
	ix, err := buildTree(baseOptions(t, fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	recSize := ix.opt.recordSize()
	buf := make([]byte, 0, leafBlockSize(recSize))
	var run []byte
	for li := 0; li < ix.Shape().Leaves; li++ {
		recs, err := ix.readLeaf(li, buf)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := ix.leafSpan(li)
		if len(recs) != (hi-lo)*recSize {
			t.Fatalf("leaf %d: %d bytes for %d records", li, len(recs), hi-lo)
		}
		if len(recs) <= cap(buf) && len(recs) > 0 && &recs[0] != &buf[:1][0] {
			t.Fatalf("leaf %d: a large enough buffer was not reused", li)
		}
		for ord := lo; ord < hi; ord++ {
			if leafBlocks(int64(ord), int64(hi), recSize) != 1 || leafBlocks(0, int64(ord)+1, recSize) != int64(li)+1 {
				t.Fatalf("ordinal %d is not counted in leaf %d alone", ord, li)
			}
		}
		run = append(run, recs...)
	}
	if len(run) != tCount*recSize {
		t.Fatalf("leaves hold %d bytes, want %d records", len(run), tCount)
	}
	for off := recSize; off < len(run); off += recSize {
		if bytes.Compare(run[off-recSize:off], run[off:off+recSize]) > 0 {
			t.Fatal("leaf records out of global order")
		}
	}
}

// TestKeyOrderAgreesWithBytesCompare: the merge of an insert batch orders
// records by summary.CompareRecords, and the loader checks them by
// summary.Key.Less; on random keys — many sharing long prefixes — the two
// agree with bytes.Compare on the keys, so a merged run always reopens.
func TestKeyOrderAgreesWithBytesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randKey := func() summary.Key {
		var k summary.Key
		rng.Read(k[:])
		for i := rng.Intn(summary.KeySize); i < summary.KeySize; i++ {
			k[i] = 0 // long shared prefixes of zeros
		}
		return k
	}
	for i := 0; i < 3000; i++ {
		a, b := randKey(), randKey()
		if i%7 == 0 {
			b = a
		}
		c := a.Compare(b)
		got := summary.CompareRecords(summary.Record{Key: a, Pos: rng.Int63()}, summary.Record{Key: b, Pos: rng.Int63()})
		if (c != 0 && got != c) || a.Less(b) != (c < 0) || bytes.Compare(a[:], b[:]) != c {
			t.Fatalf("keys %s, %s: record order %d, Key.Compare %d, Less %v", a, b, got, c, a.Less(b))
		}
	}
	// A tree grown by random single-record inserts reopens: the loader
	// accepts the order the merges left.
	fs, _ := walkFS(t, 0, 1)
	opt := baseOptions(t, fs, false)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	insertOneByOne(t, ix, dataset.Generate(dataset.NewSeismic(), 120, tLen, 11))
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkTreeRun(t, re)
}

// TestTreeLeafFileDamageIsTyped: the tree's committed run generation, cut
// at a checksum-frame boundary or inside a frame, grown by a stray record,
// or with a flipped byte, fails Open typed; restored, it opens.
func TestTreeLeafFileDamageIsTyped(t *testing.T) {
	fs, _ := fixtureFS(t)
	opt := baseOptions(t, fs, false)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(context.Background(), dataset.Generate(dataset.NewRandomWalk(), 40, tLen, 9)); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	name := runName(opt.Name, 1)
	good, err := storage.ReadFileAll(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	stride := 4 + leafBlockSize(opt.recordSize())
	tail := len(good) - (len(good)-storage.ChecksumHeaderSize)%stride
	if tail == len(good) {
		tail -= stride
	}
	reopen := func(data []byte) error {
		t.Helper()
		if err := storage.WriteFileAll(fs, name, data); err != nil {
			t.Fatal(err)
		}
		re, err := openTree(opt)
		if err == nil {
			re.Close()
		}
		return err
	}
	for _, cut := range []int{tail, len(good) - 5} {
		if err := reopen(good[:cut]); !errors.Is(err, storage.ErrCorruptData) || !errors.Is(err, manifest.ErrCorruptManifest) {
			t.Fatalf("run cut to %d of %d bytes: got %v, want ErrCorruptData and ErrCorruptManifest", cut, len(good), err)
		}
	}
	flipped := slices.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	if err := reopen(flipped); !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("flipped run byte: got %v, want ErrCorruptData", err)
	}
	if err := reopen(good); err != nil {
		t.Fatalf("restored run failed to open: %v", err)
	}
	inner, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := storage.OpenChecksumFile(inner)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := cf.Size()
	if _, err := cf.WriteAt(make([]byte, opt.recordSize()), size); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := openTree(opt); !errors.Is(err, manifest.ErrCorruptManifest) {
		t.Fatalf("run with a stray record: got %v, want ErrCorruptManifest", err)
	}
}

// TestChecksummedTreeDetectsRot: a byte of the run that decays after Open
// fails the query that reads its leaf typed, rather than serving the leaf.
func TestChecksummedTreeDetectsRot(t *testing.T) {
	fs, data := fixtureFS(t)
	opt := baseOptions(t, fs, true)
	ix, err := buildTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// The leaf — checksum block — of the record at ordinal 300, and the
	// series it indexes.
	recSize := opt.recordSize()
	block := leafBlockSize(recSize)
	li := 300 * recSize / block
	recs, err := ix.readLeaf(li, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := ix.leafSpan(li)
	rec := summary.DecodeRecord(recs[(300-lo)*recSize:])
	pos := rec.Pos
	// Rot a payload byte of the checksum block holding ordinal 300.
	off := int64(storage.ChecksumHeaderSize + li*(4+block) + 4 + 17)
	if err := storage.NewFaultFS(fs).Rot(runName(opt.Name, 0), off, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApproxSearch(context.Background(), data[pos], 0); !errors.Is(err, storage.ErrCorruptData) {
		t.Fatalf("query over a rotted leaf: got %v, want ErrCorruptData", err)
	}
}
