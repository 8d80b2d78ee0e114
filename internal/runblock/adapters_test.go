package runblock

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// TestAdapterRoundTrip pushes a record stream through the extsort-facing
// write adapter with unaligned chunk boundaries, then reads the run back
// and requires exactly the records written, in order.
func TestAdapterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	recs := genRecords(t, rng, 777)
	logical := make([]byte, 0, len(recs)*RecordSize)
	for _, r := range recs {
		logical = append(logical, r.key[:]...)
		logical = binary.LittleEndian.AppendUint64(logical, uint64(r.pos))
	}

	fs := storage.NewMemFS()
	inner, err := fs.Create("run")
	if err != nil {
		t.Fatal(err)
	}
	fw := NewFileWriter(inner, 16)
	// Unaligned sequential writes, as extsort's buffered writer produces.
	w := storage.NewSequentialWriter(fw, 0, 1000) // 1000 % 24 != 0
	if _, err := w.Write(logical); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if fw.Count() != int64(len(recs)) {
		t.Fatalf("Count = %d, want %d", fw.Count(), len(recs))
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := fs.Open("run")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != int64(len(recs)) {
		t.Fatalf("run holds %d records, want %d", r.Count(), len(recs))
	}
	i := 0
	err = r.Range(0, r.Count(), func(k summary.Key, pos int64) error {
		if k != recs[i].key || pos != recs[i].pos {
			t.Fatalf("record %d = (%v, %d), want (%v, %d)", i, k, pos, recs[i].key, recs[i].pos)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileWriterRejectsTornTail(t *testing.T) {
	fs := storage.NewMemFS()
	inner, err := fs.Create("run")
	if err != nil {
		t.Fatal(err)
	}
	fw := NewFileWriter(inner, 8)
	var rec [RecordSize]byte
	if _, err := fw.WriteAt(rec[:], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteAt(rec[:10], RecordSize); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err == nil {
		t.Fatal("torn tail accepted at Close")
	}
}

func TestFileWriterRejectsNonSequential(t *testing.T) {
	fs := storage.NewMemFS()
	inner, _ := fs.Create("run")
	fw := NewFileWriter(inner, 8)
	var rec [RecordSize]byte
	if _, err := fw.WriteAt(rec[:], RecordSize); err == nil {
		t.Fatal("gap write accepted")
	}
}

func TestFileWriterEmptyStream(t *testing.T) {
	// extsort creates the wrapped output and closes it even when the
	// input is empty: the result must be a valid zero-record run.
	fs := storage.NewMemFS()
	inner, err := fs.Create("run")
	if err != nil {
		t.Fatal(err)
	}
	fw := NewFileWriter(inner, 8)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := fs.Open("run")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 0 {
		t.Fatalf("Count = %d", r.Count())
	}
}
