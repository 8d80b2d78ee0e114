package runblock

import (
	"errors"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

type rec struct {
	key summary.Key
	pos int64
}

// genRecords returns n records sorted in refined order, with enough
// duplicate keys and clustered prefixes to exercise front-coding.
func genRecords(t *testing.T, rng *rand.Rand, n int) []rec {
	t.Helper()
	recs := make([]rec, n)
	var base summary.Key
	rng.Read(base[:])
	for i := range recs {
		k := base
		// Perturb a suffix so consecutive keys share long prefixes.
		for j := 10; j < summary.KeySize; j++ {
			k[j] = byte(rng.Intn(256))
		}
		if rng.Intn(8) == 0 && i > 0 {
			k = recs[i-1].key // exact duplicate key, pos breaks the tie
		}
		recs[i] = rec{key: k, pos: int64(rng.Intn(1 << 30))}
		if rng.Intn(64) == 0 {
			rng.Read(base[:]) // occasional regime shift
		}
	}
	sort.Slice(recs, func(a, b int) bool {
		return summary.RecordLess(recs[a].key, recs[a].pos, recs[b].key, recs[b].pos)
	})
	return recs
}

func writeRun(t *testing.T, fs storage.FS, name string, recs []rec, blockRecords int) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, blockRecords)
	for _, r := range recs {
		if err := w.Add(r.key, r.pos); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 1000} {
		recs := genRecords(t, rng, n)
		fs := storage.NewMemFS()
		writeRun(t, fs, "run", recs, 32)
		f, err := fs.Open("run")
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(f, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Count() != int64(n) {
			t.Fatalf("n=%d: Count=%d", n, r.Count())
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("n=%d: Verify: %v", n, err)
		}
		var got []rec
		if err := r.Range(0, r.Count(), func(k summary.Key, p int64) error {
			got = append(got, rec{k, p})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: ranged %d records", n, len(got))
		}
		for i, g := range got {
			if g != recs[i] {
				t.Fatalf("n=%d: record %d = %v, want %v", n, i, g, recs[i])
			}
		}
		if n > 0 {
			if r.MinKey() != recs[0].key || r.MaxKey() != recs[n-1].key {
				t.Fatalf("n=%d: min/max mismatch", n)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanSkip: Scan asks skip about every block with a key range holding
// all of the block's keys, yields exactly the blocks it keeps, and reads
// nothing for the ones it rules out.
func TestScanSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := genRecords(t, rng, 1000)
	fs := storage.NewMemFS()
	writeRun(t, fs, "run", recs, 32)
	f, err := fs.Open("run")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f, blockcache.New(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var asked [][2]summary.Key
	everyThird := func(lo, hi *summary.Key) bool {
		asked = append(asked, [2]summary.Key{*lo, *hi})
		return len(asked)%3 != 1
	}
	before := fs.Stats().Snapshot()
	var got []rec
	err = r.Scan(everyThird, func(blk *Block) error {
		for i, k := range blk.Keys {
			got = append(got, rec{k, blk.Pos[i]})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	read := fs.Stats().Snapshot().Sub(before)
	if len(asked) != r.NumBlocks() {
		t.Fatalf("skip asked about %d blocks of %d", len(asked), r.NumBlocks())
	}
	var want []rec
	for b, rg := range asked {
		lo, hi := r.BlockStart(b), r.Count()
		if b+1 < r.NumBlocks() {
			hi = r.BlockStart(b + 1)
		}
		for _, rc := range recs[lo:hi] {
			if rc.key.Less(rg[0]) || rg[1].Less(rc.key) {
				t.Fatalf("block %d key %v outside its range [%v, %v]", b, rc.key, rg[0], rg[1])
			}
		}
		if b%3 == 0 {
			want = append(want, recs[lo:hi]...)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("yielded %d records, want the %d of every third block", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
	kept := int64(r.NumBlocks()+2) / 3
	if read.RandReads+read.SeqReads != kept {
		t.Fatalf("%d reads for %d kept blocks", read.RandReads+read.SeqReads, kept)
	}
	if st := r.cache.Stats(); st.Hits+st.Misses != kept {
		t.Fatalf("cache looked up %d blocks, %d were kept", st.Hits+st.Misses, kept)
	}
}

func TestSearchMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := genRecords(t, rng, 500)
	keys := make([]summary.Key, len(recs))
	for i, r := range recs {
		keys[i] = r.key
	}
	fs := storage.NewMemFS()
	writeRun(t, fs, "run", recs, 16)
	f, err := fs.Open("run")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f, blockcache.New(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	check := func(k summary.Key) {
		want := int64(sort.Search(len(keys), func(i int) bool {
			return !keys[i].Less(k)
		}))
		got, err := r.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Search(%v) = %d, want %d", k, got, want)
		}
	}
	for _, rc := range recs {
		check(rc.key)
	}
	for i := 0; i < 500; i++ {
		var k summary.Key
		rng.Read(k[:])
		check(k)
	}
	var zero, max summary.Key
	for i := range max {
		max[i] = 0xff
	}
	check(zero)
	check(max)
}

func TestRangeWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := genRecords(t, rng, 300)
	fs := storage.NewMemFS()
	writeRun(t, fs, "run", recs, 10)
	f, err := fs.Open("run")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 200; i++ {
		lo := int64(rng.Intn(320)) - 10
		hi := lo + int64(rng.Intn(50))
		var got []rec
		if err := r.Range(lo, hi, func(k summary.Key, p int64) error {
			got = append(got, rec{k, p})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if chi > int64(len(recs)) {
			chi = int64(len(recs))
		}
		if chi < clo {
			chi = clo
		}
		if int64(len(got)) != chi-clo {
			t.Fatalf("Range(%d,%d) yielded %d records, want %d", lo, hi, len(got), chi-clo)
		}
		for j, g := range got {
			if g != recs[clo+int64(j)] {
				t.Fatalf("Range(%d,%d) record %d mismatch", lo, hi, j)
			}
		}
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	fs := storage.NewMemFS()
	f, err := fs.Create("run")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewWriter(f, 8)
	var a, b summary.Key
	b[0] = 1
	if err := w.Add(b, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(a, 5); err == nil {
		t.Fatal("descending key accepted")
	}
	// Same key with a smaller LE-encoded position must also be rejected:
	// 0x0100 encodes as 00 01 ... which sorts before 0x01's 01 00 ..., so
	// adding 0x01 then 0x0100 is descending in refined order.
	if bits.ReverseBytes64(0x0100) >= bits.ReverseBytes64(0x01) {
		t.Fatal("test premise wrong")
	}
	f2, _ := fs.Create("run2")
	defer f2.Close()
	w2 := NewWriter(f2, 8)
	if err := w2.Add(a, 0x01); err != nil {
		t.Fatal(err)
	}
	if err := w2.Add(a, 0x0100); err == nil {
		t.Fatal("descending refined position accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	recs := genRecords(t, rng, 400)
	fs := storage.NewMemFS()
	writeRun(t, fs, "run", recs, 32)
	clean, err := storage.ReadFileAll(fs, "run")
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte at a sweep of offsets: OpenReader or Verify must fail
	// with a typed corruption error; a silently clean read is a test
	// failure unless the flip landed in dead padding (there is none).
	for off := 0; off < len(clean); off += 37 {
		rot := append([]byte(nil), clean...)
		rot[off] ^= 0x40
		name := "rot"
		if err := storage.WriteFileAtomic(fs, name, rot); err != nil {
			t.Fatal(err)
		}
		rf, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(rf, nil)
		if err == nil {
			err = r.Verify()
			r.Close()
		} else {
			rf.Close()
		}
		if err == nil {
			t.Fatalf("flip at offset %d undetected", off)
		}
		if !errors.Is(err, storage.ErrCorruptData) {
			t.Fatalf("flip at offset %d: error not typed ErrCorruptData: %v", off, err)
		}
	}

	// Truncations must be detected too.
	for _, cut := range []int{1, headerSize, footerSize - 1, footerSize, len(clean) / 2} {
		rot := clean[:len(clean)-cut]
		if err := storage.WriteFileAtomic(fs, "trunc", rot); err != nil {
			t.Fatal(err)
		}
		rf, err := fs.Open("trunc")
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(rf, nil)
		if err == nil {
			err = r.Verify()
			r.Close()
		} else {
			rf.Close()
		}
		if err == nil {
			t.Fatalf("truncation by %d undetected", cut)
		}
	}
}

func TestCacheUseAndDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	recs := genRecords(t, rng, 200)
	fs := storage.NewMemFS()
	writeRun(t, fs, "run", recs, 16)
	f, err := fs.Open("run")
	if err != nil {
		t.Fatal(err)
	}
	cache := blockcache.New(1 << 20)
	r, err := OpenReader(f, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Block(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Block(0); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits < 1 || st.Misses < 1 || st.Bytes <= 0 {
		t.Fatalf("stats after hit+miss: %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Bytes != 0 {
		t.Fatalf("resident bytes after Close: %+v", st)
	}
}

func TestCompressionRatioOnClustered(t *testing.T) {
	// Clustered keys (long shared prefixes) must compress well: that is
	// the premise of the format. Require > 2x here on tightly clustered
	// keys; the benchmark gate measures the real skewed dataset.
	rng := rand.New(rand.NewSource(23))
	recs := make([]rec, 4096)
	var base summary.Key
	rng.Read(base[:])
	for i := range recs {
		k := base
		for j := summary.KeySize - 3; j < summary.KeySize; j++ {
			k[j] = byte(rng.Intn(256))
		}
		recs[i] = rec{key: k, pos: int64(i)*200 + int64(rng.Intn(100))}
	}
	sort.Slice(recs, func(a, b int) bool {
		return summary.RecordLess(recs[a].key, recs[a].pos, recs[b].key, recs[b].pos)
	})
	fs := storage.NewMemFS()
	writeRun(t, fs, "run", recs, DefaultBlockRecords)
	f, err := fs.Open("run")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	logical := int64(len(recs)) * RecordSize
	if size*2 >= logical {
		t.Fatalf("compressed %d bytes of %d logical (%.2fx)", size, logical, float64(logical)/float64(size))
	}
}
