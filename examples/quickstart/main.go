// Quickstart: generate a data series collection, bulk-load a Coconut-Tree,
// and answer nearest-neighbor queries — all in memory.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/coconut-db/coconut"
)

func main() {
	// An instrumented in-memory device; swap in coconut.NewDiskStorage(dir)
	// for real files.
	fs := coconut.NewMemStorage()

	const (
		count     = 50000
		seriesLen = 256
	)
	fmt.Printf("generating %d random-walk series of length %d...\n", count, seriesLen)
	if err := coconut.GenerateDataset(fs, "data.bin", coconut.RandomWalk, count, seriesLen, 1); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	idx, err := coconut.Build(context.Background(), coconut.Config{
		Storage:   fs,
		Name:      "quickstart",
		DataFile:  "data.bin",
		SeriesLen: seriesLen,
	}, coconut.Tree)
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	fmt.Printf("bulk-loaded Coconut-Tree in %v: %d leaf blocks, %.0f%% full, %.1f MB\n",
		time.Since(start).Round(time.Millisecond),
		idx.NumLeaves(), idx.LeafFill()*100, float64(idx.SizeBytes())/1e6)

	queries, err := coconut.GenerateQueries(coconut.RandomWalk, 5, seriesLen, 2)
	if err != nil {
		log.Fatal(err)
	}
	for i, q := range queries {
		t0 := time.Now()
		approx, err := idx.SearchApprox(q, 1)
		if err != nil {
			log.Fatal(err)
		}
		tApprox := time.Since(t0)

		t0 = time.Now()
		exact, err := idx.Search(q)
		if err != nil {
			log.Fatal(err)
		}
		tExact := time.Since(t0)

		fmt.Printf("query %d: approx dist=%.4f (%v) | exact dist=%.4f at #%d (%v, %d series examined)\n",
			i, approx.Distance, tApprox.Round(time.Microsecond),
			exact.Distance, exact.Position, tExact.Round(time.Microsecond), exact.VisitedSeries)
	}

	// The storage layer counts every I/O; this is what the paper's analysis
	// (and this repo's experiments) are built on.
	snap := fs.Stats().Snapshot()
	fmt.Printf("\ndevice totals: %s\n", snap)
}
