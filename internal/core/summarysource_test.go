package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// TestSummarySourceAnyWorkers pins the summarization pass, the one read of
// the raw file in file order a bulk load makes: for any Workers it streams
// exactly the serial reference — each whole record keyed by KeyOfEncoded, in
// file order — including record counts that are not a multiple of the
// batch, and none or one record, with Len the records still to come; it
// leaves a torn trailing partial record unstreamed; and the sidecar it fills
// is byte-identical to storage.BuildRecordSums's. A materialized build
// sorts the same (key, pos) stream and gathers each series by position, so
// for it every streamed record's Fetch, verified against the sidecar
// the pass filled, is the series at that position, summarizing to the
// record's key.
func TestSummarySourceAnyWorkers(t *testing.T) {
	s := tSummarizer(t)
	inSize := series.EncodedSize(tLen)
	block := blockRecords(inSize)
	// 16 blocks and a third: a multiple of no batch of Workers blocks.
	for _, count := range []int{0, 1, 16*block + block/3} {
		data := dataset.Generate(dataset.NewRandomWalk(), count, tLen, 5)
		var want []summary.Record
		for i, d := range data {
			want = append(want, summary.Record{Key: s.KeyOfEncoded(series.AppendEncode(nil, d)), Pos: int64(i)})
		}
		for _, materialized := range []bool{false, true} {
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
						src, sums, err := SummarySource(fs, s, raw, "raw", workers)
						if err != nil {
							t.Fatal(err)
						}
						if src.Len() != count {
							t.Fatalf("Len %d before the first read, want %d", src.Len(), count)
						}
						got, err := readAll(src)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) || src.Len() != 0 {
							t.Fatalf("streamed %d records (%d left), differing from the %d of the serial reference", len(got), src.Len(), len(want))
						}
						if materialized {
							gathered, err := gatherRaw(raw, sums, got, inSize)
							if err != nil {
								t.Fatal(err)
							}
							for i, rec := range got {
								if !bytes.Equal(gathered[i], series.AppendEncode(nil, data[rec.Pos])) || s.KeyOfEncoded(gathered[i]) != rec.Key {
									t.Fatalf("record at %d: the gathered series is not the one the pass keyed", rec.Pos)
								}
							}
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

// gatherRaw reads the series of every record by position, as a
// materialized build's leaf-run writer does, each verified against sums.
func gatherRaw(raw storage.File, sums *storage.RecordSums, recs []summary.Record, inSize int) (out [][]byte, err error) {
	views := storage.PinViews(raw)
	defer views.Release(&err)
	buf := make([]byte, inSize)
	st := Store{File: raw, Sums: sums, RecSize: inSize}
	for _, rec := range recs {
		enc, err := st.Fetch(views, rec.Pos, buf)
		if err != nil {
			return nil, err
		}
		out = append(out, slices.Clone(enc))
	}
	return out, nil
}

// readAll reads src to its end.
func readAll(src summary.RecordReader) ([]summary.Record, error) {
	var out []summary.Record
	buf := make([]summary.Record, 1000)
	for {
		n, err := src.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
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
			src, _, err := SummarySource(fs, s, raw, "raw", workers)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := readAll(src); !errors.Is(err, boom) {
				t.Fatalf("workers=%d fault at byte %d: read error %v, want the injected cause", workers, at, err)
			}
			raw.Close()
		}
	}
}
