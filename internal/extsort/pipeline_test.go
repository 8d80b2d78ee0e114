package extsort

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/coconut-db/coconut/internal/storage"
)

// doubleTransform is a trivial record transform for the tests: each 4-byte
// input record becomes an 8-byte output record holding (input, ordinal).
func doubleTransform(in, out []byte, base int64) error {
	n := len(in) / 4
	for i := 0; i < n; i++ {
		copy(out[i*8:], in[i*4:(i+1)*4])
		ord := base + int64(i)
		for b := 0; b < 4; b++ {
			out[i*8+4+b] = byte(ord >> (8 * b))
		}
	}
	return nil
}

func pipelineInput(n int) []byte {
	in := make([]byte, n*4)
	for i := range in {
		in[i] = byte(i * 31)
	}
	return in
}

// TestTransformReaderOrderAndDeterminism: the transformed stream must be
// byte-identical for any worker count and block size, including inputs that
// do not fill the final block.
func TestTransformReaderOrderAndDeterminism(t *testing.T) {
	const n = 10007 // prime: final block is partial for any block size
	in := pipelineInput(n)
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		for _, block := range []int{0, 1, 7, 4096} {
			tr, err := NewTransformReader(TransformConfig{
				In:            bytes.NewReader(in),
				InRecordSize:  4,
				OutRecordSize: 8,
				Workers:       workers,
				BlockRecords:  block,
				Transform:     doubleTransform,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(tr)
			tr.Close()
			if err != nil {
				t.Fatalf("workers=%d block=%d: %v", workers, block, err)
			}
			if len(got) != n*8 {
				t.Fatalf("workers=%d block=%d: %d bytes, want %d", workers, block, len(got), n*8)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d block=%d: output differs from reference", workers, block)
			}
		}
	}
}

// TestTransformReaderErrors: transform failures and misaligned input must
// surface on Read (sticky), and Close must release the goroutines even when
// the consumer abandons the stream mid-way.
func TestTransformReaderErrors(t *testing.T) {
	boom := errors.New("boom")
	tr, err := NewTransformReader(TransformConfig{
		In:            bytes.NewReader(pipelineInput(1000)),
		InRecordSize:  4,
		OutRecordSize: 8,
		Workers:       4,
		BlockRecords:  16,
		Transform: func(in, out []byte, base int64) error {
			if base >= 256 {
				return boom
			}
			return doubleTransform(in, out, base)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(tr); !errors.Is(err, boom) {
		t.Fatalf("transform error not surfaced: %v", err)
	}
	if _, err := tr.Read(make([]byte, 8)); !errors.Is(err, boom) {
		t.Fatalf("error not sticky: %v", err)
	}
	tr.Close()

	// Misaligned input (not a multiple of the record size).
	tr, err = NewTransformReader(TransformConfig{
		In:            bytes.NewReader(make([]byte, 10)),
		InRecordSize:  4,
		OutRecordSize: 8,
		Workers:       2,
		Transform:     doubleTransform,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(tr); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("misaligned input not surfaced: %v", err)
	}
	tr.Close()

	// Abandon mid-stream: Close must not deadlock with blocks in flight.
	tr, err = NewTransformReader(TransformConfig{
		In:            bytes.NewReader(pipelineInput(100000)),
		InRecordSize:  4,
		OutRecordSize: 8,
		Workers:       4,
		BlockRecords:  64,
		Transform:     doubleTransform,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(tr, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Close() // idempotent
}

// TestTransformReaderFeedsSort: the pipeline is the input stage of the
// external sort; the sorted output must match sorting the same records from
// a plain reader.
func TestTransformReaderFeedsSort(t *testing.T) {
	const n = 5000
	in := pipelineInput(n)
	plain := make([]byte, 0, n*8)
	{
		buf := make([]byte, n*8)
		if err := doubleTransform(in, buf, 0); err != nil {
			t.Fatal(err)
		}
		plain = append(plain, buf...)
	}
	sortOut := func(src io.Reader, name string, fsOut map[string][]byte) {
		t.Helper()
		fs := storage.NewMemFS()
		cfg := Config{
			FS:         fs,
			RecordSize: 8,
			Compare:    CompareKeyPrefix(4),
			MemBudget:  4 << 10,
			Workers:    3,
		}
		total, err := Sort(cfg, src, name)
		if err != nil {
			t.Fatal(err)
		}
		if total != n {
			t.Fatalf("sorted %d records, want %d", total, n)
		}
		out, err := storage.ReadFileAll(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		fsOut[name] = out
	}
	got := map[string][]byte{}
	tr, err := NewTransformReader(TransformConfig{
		In:            bytes.NewReader(in),
		InRecordSize:  4,
		OutRecordSize: 8,
		Workers:       4,
		BlockRecords:  33,
		Transform:     doubleTransform,
	})
	if err != nil {
		t.Fatal(err)
	}
	sortOut(tr, "piped", got)
	tr.Close()
	sortOut(bytes.NewReader(plain), "plain", got)
	if !bytes.Equal(got["piped"], got["plain"]) {
		t.Fatal("sort over the pipeline differs from sort over the plain stream")
	}
}

// TestTransformReaderValidation covers the config error paths.
func TestTransformReaderValidation(t *testing.T) {
	cases := []TransformConfig{
		{InRecordSize: 4, OutRecordSize: 8, Transform: doubleTransform},
		{In: bytes.NewReader(nil), OutRecordSize: 8, Transform: doubleTransform},
		{In: bytes.NewReader(nil), InRecordSize: 4, Transform: doubleTransform},
		{In: bytes.NewReader(nil), InRecordSize: 4, OutRecordSize: 8},
	}
	for i, cfg := range cases {
		if _, err := NewTransformReader(cfg); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if _, err := NewTransformReader(TransformConfig{}); err == nil {
		t.Fatal("empty config must fail")
	}
}
