package lsm

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// TestQuickMembershipUnderRandomBatching: whatever the batch sizes,
// memtable capacity, and fanout, every ingested series must remain
// findable at distance zero, and the record count must be conserved
// across flushes and compactions.
func TestQuickMembershipUnderRandomBatching(t *testing.T) {
	f := func(seed int64, memCap uint8, fanout uint8, nBatches uint8) bool {
		fs := storage.NewMemFS()
		gen := dataset.NewRandomWalk()
		if _, err := dataset.WriteFile(fs, "raw", gen, 60, tLen, seed); err != nil {
			return false
		}
		ix, err := Build(Options{
			FS:             fs,
			Name:           "q",
			S:              tSummarizerQuick(),
			RawName:        "raw",
			MemBudgetBytes: int64(memCap%64+16) * recordSize,
			Fanout:         int(fanout%4) + 2,
			Window:         16,
		})
		if err != nil {
			return false
		}
		defer ix.Close()

		rng := rand.New(rand.NewSource(seed))
		total := int64(60)
		var probes []int64 // positions of series we will verify
		for b := 0; b < int(nBatches%5)+1; b++ {
			batch := dataset.Generate(gen, rng.Intn(80)+1, tLen, seed+int64(b)+1)
			if err := ix.Insert(context.Background(), batch); err != nil {
				return false
			}
			probes = append(probes, total) // first series of this batch
			total += int64(len(batch))
		}
		if ix.Count() != total {
			return false
		}
		if err := ix.Flush(); err != nil {
			return false
		}
		// Conservation across runs + memtable.
		var held int64
		for _, r := range ix.runs {
			held += r.count
		}
		held += int64(len(ix.mem))
		if held != total {
			return false
		}
		// Every probed series findable at distance ~0.
		buf, ser := make([]byte, series.EncodedSize(tLen)), make(series.Series, tLen)
		var fault error
		raw := storage.PinViews(ix.rawFile)
		defer raw.Release(&fault)
		for _, pos := range probes {
			enc, err := core.ReadRawAt(raw, ix.rawSums, pos, buf)
			if err != nil {
				return false
			}
			series.DecodeInto(enc, ser)
			res, err := ix.ExactSearch(context.Background(), ser, 0)
			if err != nil || res.Dist > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func tSummarizerQuick() *summary.Summarizer {
	s, err := summary.NewSummarizer(summary.Params{SeriesLen: tLen, Segments: 8, CardBits: 8})
	if err != nil {
		panic(err)
	}
	return s
}
