package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
)

// TestSummarySourceAnyWorkers pins the summarization pass, the one read of
// the raw file a bulk load makes: for any Workers, over plain and
// materialized records, it streams exactly the serial reference — each
// whole record keyed by KeyOfEncoded and encoded in file order — including
// record counts that are not a multiple of the batch, and none or one
// record; it leaves a torn trailing partial record unstreamed; and the
// sidecar it fills is byte-identical to storage.BuildRecordSums's.
func TestSummarySourceAnyWorkers(t *testing.T) {
	s := tSummarizer(t)
	inSize := series.EncodedSize(tLen)
	block := blockRecords(inSize)
	// 16 blocks and a third: a multiple of no batch of Workers blocks.
	for _, count := range []int{0, 1, 16*block + block/3} {
		data := dataset.Generate(dataset.NewRandomWalk(), count, tLen, 5)
		for _, materialized := range []bool{false, true} {
			var want []byte
			for i, d := range data {
				enc := series.AppendEncode(nil, d)
				rec := make([]byte, RecordSize(tLen, materialized))
				var raw []byte
				if materialized {
					raw = enc
				}
				encodeRecord(rec, s.KeyOfEncoded(enc), int64(i), raw)
				want = append(want, rec...)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for _, torn := range []int{0, 13} {
					name := fmt.Sprintf("n=%d/materialized=%v/workers=%d/torn=%d", count, materialized, workers, torn)
					t.Run(name, func(t *testing.T) {
						fs := storage.NewMemFS()
						writeRaw(t, fs, data, torn)
						raw, err := fs.Open("raw")
						if err != nil {
							t.Fatal(err)
						}
						defer raw.Close()
						src, sums, err := SummarySource(fs, s, raw, "raw", materialized, workers)
						if err != nil {
							t.Fatal(err)
						}
						got, err := io.ReadAll(src)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("streamed %d bytes, differing from the %d-byte serial reference", len(got), len(want))
						}
						if sums.Records() != int64(count) {
							t.Fatalf("sidecar covers %d records, want %d", sums.Records(), count)
						}
						if err := sums.Flush(); err != nil {
							t.Fatal(err)
						}
						filled, err := storage.ReadFileAll(fs, storage.RecordSumsName("raw"))
						if err != nil {
							t.Fatal(err)
						}
						if _, err := storage.BuildRecordSums(fs, "raw", inSize); err != nil {
							t.Fatal(err)
						}
						ref, _ := storage.ReadFileAll(fs, storage.RecordSumsName("raw"))
						if !bytes.Equal(filled, ref) {
							t.Fatalf("filled sidecar (%d bytes) differs from BuildRecordSums's (%d bytes)", len(filled), len(ref))
						}
					})
				}
			}
		}
	}
}

// TestSummarySourceReadFault: a read fault on the raw file ends the stream
// with an error that keeps its cause, for any Workers and wherever in the
// file it strikes.
func TestSummarySourceReadFault(t *testing.T) {
	s := tSummarizer(t)
	block := blockRecords(series.EncodedSize(tLen))
	data := dataset.Generate(dataset.NewRandomWalk(), 8*block+7, tLen, 5)
	boom := errors.New("injected raw read failure")
	for _, workers := range []int{1, 2, 3, 8} {
		for _, at := range []int64{0, int64(5*block) * int64(series.EncodedSize(tLen))} {
			fs := storage.NewMemFS()
			writeRaw(t, fs, data, 0)
			fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
				if op == storage.OpRead && name == "raw" && off <= at && at < off+int64(n) {
					return boom
				}
				return nil
			})
			raw, err := fs.Open("raw")
			if err != nil {
				t.Fatal(err)
			}
			src, _, err := SummarySource(fs, s, raw, "raw", false, workers)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadAll(src); !errors.Is(err, boom) {
				t.Fatalf("workers=%d fault at byte %d: read error %v, want the injected cause", workers, at, err)
			}
			raw.Close()
		}
	}
}
