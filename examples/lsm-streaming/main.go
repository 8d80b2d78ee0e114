// Streaming ingest with Coconut-LSM: the paper's future-work design (§6).
// A sensor fleet streams new series continuously; the memtable absorbs
// them, full memtables flush as immutable sorted runs (append-only
// sequential I/O — no leaf rewrites), and a full tier merge-sorts into the
// next inside the Insert that filled it. Queries remain exact throughout
// and see data the moment it arrives; Sync flushes the tail at shutdown.
//
//	go run ./examples/lsm-streaming
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/coconut-db/coconut"
)

func main() {
	fs := coconut.NewMemStorage()
	const (
		initial   = 10000
		seriesLen = 256
		ticks     = 8
		perTick   = 1500
	)

	fmt.Printf("bootstrap: bulk-loading %d archived series\n", initial)
	if err := coconut.GenerateDataset(fs, "stream.bin", coconut.Seismic, initial, seriesLen, 3); err != nil {
		log.Fatal(err)
	}
	idx, err := coconut.Build(context.Background(), coconut.Config{
		Storage:      fs,
		Name:         "stream",
		DataFile:     "stream.bin",
		SeriesLen:    seriesLen,
		MemoryBudget: 2048 * 24, // small memtable so flushes are visible
	}, coconut.LSM)
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	for tick := 1; tick <= ticks; tick++ {
		batch, err := coconut.GenerateQueries(coconut.Seismic, perTick, seriesLen, int64(100+tick))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := idx.Insert(batch); err != nil {
			log.Fatal(err)
		}
		ingest := time.Since(start)

		// Query for the freshest arrival: it must be visible immediately,
		// whether it sits in the memtable or a just-flushed run.
		start = time.Now()
		res, err := idx.Search(batch[len(batch)-1])
		if err != nil {
			log.Fatal(err)
		}
		queryT := time.Since(start)
		if res.Distance > 1e-9 {
			log.Fatalf("freshest series not visible: dist=%v", res.Distance)
		}
		fmt.Printf("tick %d: +%d series in %v | %2d runs on disk | freshest found at #%d in %v\n",
			tick, perTick, ingest.Round(time.Millisecond), idx.NumRuns(),
			res.Position, queryT.Round(time.Millisecond))
	}

	// Flush the memtable tail and land any ready compaction, so the on-disk
	// state is the deterministic function of the inserts before reporting.
	if err := idx.Sync(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal: %d series across %d runs (%.1f MB of runs)\n",
		idx.Count(), idx.NumRuns(), float64(idx.SizeBytes())/1e6)
	snap := fs.Stats().Snapshot()
	fmt.Printf("device totals: %s\n", snap)
	fmt.Printf("random writes: %d — LSM ingestion is append-only\n", snap.RandWrites)
}
