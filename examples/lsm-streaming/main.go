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
	"strings"
	"sync"
	"time"

	"github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/storage"
)

func main() {
	fs := coconut.NewMemStorage()
	const (
		initial   = 10000
		seriesLen = 256
		ticks     = 8
		perTick   = 1500
	)

	w := watchWrites(fs)
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
	// The device counts the first write through every handle as a seek, so
	// its random writes are the files written from scratch plus the first
	// append through each append handle; what makes ingestion append-only
	// is that no write lands on bytes already written.
	fmt.Printf("random writes: %d, one per new file or append handle; files written from scratch: %s\n",
		snap.RandWrites, w.created())
	fmt.Printf("writes over bytes already written: %d — LSM ingestion is append-only\n", w.overwrites)
}

// writeWatch classifies every write to a MemStorage device: which files are
// written from scratch, by kind, and whether any write lands below the end
// its file already reached.
type writeWatch struct {
	mu         sync.Mutex
	end        map[string]int64 // each file's written length
	fresh      map[string]bool  // created, not yet written
	byKind     map[string]int   // files written from scratch
	overwrites int
}

func watchWrites(fs *storage.MemFS) *writeWatch {
	w := &writeWatch{end: map[string]int64{}, fresh: map[string]bool{}, byKind: map[string]int{}}
	fs.SetFault(func(op storage.Op, name string, off int64, n int) error {
		w.mu.Lock()
		defer w.mu.Unlock()
		switch op {
		case storage.OpCreate:
			w.end[name], w.fresh[name] = 0, true
		case storage.OpWrite:
			if w.fresh[name] {
				w.fresh[name] = false
				w.byKind[fileKind(name)]++
			}
			if off < w.end[name] {
				w.overwrites++
			}
			w.end[name] = max(w.end[name], off+int64(n))
		}
		return nil
	})
	return w
}

// fileKind names what a file of the streaming index is.
func fileKind(name string) string {
	switch {
	case strings.Contains(name, ".sort."):
		return "bulk-load sort temporaries"
	case strings.Contains(name, ".run.") || strings.Contains(name, ".cmp."):
		return "LSM runs"
	case strings.Contains(name, "manifest"):
		return "manifests"
	}
	return "raw dataset and sidecar"
}

// created lists the files written from scratch, by kind.
func (w *writeWatch) created() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	total, parts := 0, []string{}
	for _, kind := range []string{"bulk-load sort temporaries", "LSM runs", "manifests", "raw dataset and sidecar"} {
		total += w.byKind[kind]
		parts = append(parts, fmt.Sprintf("%d %s", w.byKind[kind], kind))
	}
	return fmt.Sprintf("%d (%s)", total, strings.Join(parts, ", "))
}
