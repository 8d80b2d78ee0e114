// Astronomy with a growing archive: bulk-load light curves, then keep
// appending nightly batches while answering similarity queries — the
// update workload of the paper's Figure 10a, on the skewed astronomy
// distribution of Figure 7. Each nightly batch merges into the next
// generation of the tree's sorted run, so its leaves — the run's 4 KiB
// checksum blocks — stay full however much the archive grows.
//
//	go run ./examples/astronomy-updates
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
		initial   = 20000
		batchSize = 2000
		nights    = 5
		seriesLen = 256
	)

	fmt.Printf("initial bulk load: %d light curves\n", initial)
	if err := coconut.GenerateDataset(fs, "sky.bin", coconut.Astronomy, initial, seriesLen, 11); err != nil {
		log.Fatal(err)
	}
	idx, err := coconut.Build(context.Background(), coconut.Config{
		Storage:   fs,
		Name:      "sky",
		DataFile:  "sky.bin",
		SeriesLen: seriesLen,
	}, coconut.Tree)
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	fmt.Printf("  %d leaf blocks, %.0f%% full\n", idx.NumLeaves(), idx.LeafFill()*100)

	for night := 1; night <= nights; night++ {
		batch, err := coconut.GenerateQueries(coconut.Astronomy, batchSize, seriesLen, int64(1000+night))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := idx.Insert(batch); err != nil {
			log.Fatal(err)
		}
		insertTime := time.Since(start)

		// Two follow-up queries per batch, as in the paper's mixed
		// workload: one for a fresh observation, one for an archived one.
		q1 := batch[0]
		start = time.Now()
		r1, err := idx.Search(q1)
		if err != nil {
			log.Fatal(err)
		}
		q2, _ := coconut.GenerateQueries(coconut.Astronomy, 1, seriesLen, int64(night))
		r2, err := idx.Search(q2[0])
		if err != nil {
			log.Fatal(err)
		}
		queryTime := time.Since(start)

		fmt.Printf("night %d: +%d curves in %v | query fresh: #%d dist=%.4f | query new: #%d dist=%.4f | queries %v\n",
			night, batchSize, insertTime.Round(time.Millisecond),
			r1.Position, r1.Distance, r2.Position, r2.Distance,
			queryTime.Round(time.Millisecond))
	}

	fmt.Printf("\nfinal archive: %d curves, %d leaf blocks, %.0f%% full, %.1f MB index\n",
		idx.Count(), idx.NumLeaves(), idx.LeafFill()*100, float64(idx.SizeBytes())/1e6)
}
