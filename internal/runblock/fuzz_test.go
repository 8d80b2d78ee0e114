package runblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// fuzzSeedFile builds a small valid run file to seed the corpus.
func fuzzSeedFile(n, blockRecords int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]rec, n)
	for i := range recs {
		var k summary.Key
		rng.Read(k[:6])
		recs[i] = rec{key: k, pos: int64(rng.Intn(1 << 20))}
	}
	sort.Slice(recs, func(a, b int) bool {
		return summary.RecordLess(recs[a].key, recs[a].pos, recs[b].key, recs[b].pos)
	})
	fs := storage.NewMemFS()
	f, _ := fs.Create("seed")
	w := NewWriter(f, blockRecords)
	for _, r := range recs {
		if err := w.Add(r.key, r.pos); err != nil {
			panic(err)
		}
	}
	if err := w.Finish(); err != nil {
		panic(err)
	}
	f.Close()
	raw, err := storage.ReadFileAll(fs, "seed")
	if err != nil {
		panic(err)
	}
	return raw
}

// FuzzRunBlock feeds arbitrary bytes to the run-file decoder: it must
// either reject them with a typed corruption error or decode records that
// are internally consistent (count matches, refined order holds) — never
// panic, never return an untyped error for malformed structure.
func FuzzRunBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzSeedFile(0, 8, 1))
	f.Add(fuzzSeedFile(5, 4, 2))
	f.Add(fuzzSeedFile(100, 16, 3))
	// A hostile seed: valid framing, garbage payload.
	hostile := fuzzSeedFile(10, 4, 4)
	if len(hostile) > headerSize+4 {
		hostile[headerSize+3] ^= 0xff
	}
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := storage.NewMemFS()
		if err := storage.WriteFileAtomic(fs, "fuzz", data); err != nil {
			t.Fatal(err)
		}
		file, err := fs.Open("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		r, err := OpenReader(file, nil)
		if err != nil {
			if !errors.Is(err, storage.ErrCorruptData) {
				t.Fatalf("OpenReader error not typed: %v", err)
			}
			return
		}
		// Mirror the production open path: a full Verify gate first. A file
		// it rejects must be rejected with the typed error; a file it
		// accepts must then Range cleanly in refined order.
		if err := r.Verify(); err != nil {
			if !errors.Is(err, storage.ErrCorruptData) {
				t.Fatalf("Verify error not typed: %v", err)
			}
			return
		}
		var prevKey summary.Key
		var prevPos int64
		var n int64
		err = r.Range(0, r.Count(), func(k summary.Key, p int64) error {
			if n > 0 && summary.RecordLess(k, p, prevKey, prevPos) {
				t.Fatal("decoded records out of refined order")
			}
			prevKey, prevPos = k, p
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("Range failed after clean Verify: %v", err)
		}
		if n != r.Count() {
			t.Fatalf("ranged %d records, Count says %d", n, r.Count())
		}
	})
}

// FuzzRoundTrip derives a sorted record set from fuzz bytes, encodes it,
// and requires a bit-exact decode plus Search agreement with sort.Search.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1), 8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(2), 1, []byte{0})
	f.Add(int64(3), 600, bytes.Repeat([]byte{9}, 100))
	f.Fuzz(func(t *testing.T, seed int64, blockRecords int, raw []byte) {
		if blockRecords < 0 || blockRecords > 4096 {
			return
		}
		// Derive records: every 8 fuzz bytes seed one record via a PRNG so
		// the structure (shared prefixes, duplicates) varies with input.
		rng := rand.New(rand.NewSource(seed))
		recs := make([]rec, 0, len(raw)/4)
		var k summary.Key
		for i := 0; i+4 <= len(raw); i += 4 {
			if raw[i]%3 != 0 {
				rng.Read(k[8:])
			}
			if raw[i]%7 == 0 {
				rng.Read(k[:])
			}
			pos := int64(binary.LittleEndian.Uint32(raw[i : i+4]))
			recs = append(recs, rec{key: k, pos: pos})
		}
		sort.Slice(recs, func(a, b int) bool {
			return summary.RecordLess(recs[a].key, recs[a].pos, recs[b].key, recs[b].pos)
		})
		fs := storage.NewMemFS()
		file, err := fs.Create("run")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(file, blockRecords)
		for _, r := range recs {
			if err := w.Add(r.key, r.pos); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		var i int
		if err := r.Range(0, r.Count(), func(k summary.Key, p int64) error {
			if recs[i].key != k || recs[i].pos != p {
				t.Fatalf("record %d mismatch", i)
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(recs) {
			t.Fatalf("decoded %d of %d records", i, len(recs))
		}
		if len(recs) > 0 {
			probe := recs[uint64(seed)%uint64(len(recs))].key
			want := int64(sort.Search(len(recs), func(j int) bool {
				return !recs[j].key.Less(probe)
			}))
			got, err := r.Search(probe)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Search = %d, want %d", got, want)
			}
		}
	})
}
