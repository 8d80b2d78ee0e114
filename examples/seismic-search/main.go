// Seismic similarity search: index a collection of (synthetic) seismograms
// and look up the waveforms most similar to newly observed events — the
// IRIS-style workload from the paper's evaluation (§5, Figure 10c).
//
// The example also demonstrates the quality/latency trade-off of the
// approximate search radius (paper §4.3: "we experiment with the radius
// size, optimizing the trade-off between the quality of the answer and the
// execution time").
//
//	go run ./examples/seismic-search
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/dataset"
)

func main() {
	fs := coconut.NewMemStorage()
	const (
		count     = 30000
		seriesLen = 256
	)

	fmt.Printf("indexing %d seismogram windows...\n", count)
	if err := coconut.GenerateDataset(fs, "seismic.bin", coconut.Seismic, count, seriesLen, 7); err != nil {
		log.Fatal(err)
	}
	idx, err := coconut.Build(context.Background(), coconut.Config{
		Storage:      fs,
		Name:         "seismic",
		DataFile:     "seismic.bin",
		SeriesLen:    seriesLen,
		Materialized: true, // leaves carry the waveforms: no second file needed
	}, coconut.Tree)
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	// "New events": noisy copies of archived waveforms — the analyst wants
	// to find which archived event each one resembles.
	archive := dataset.Generate(dataset.NewSeismic(), count, seriesLen, 7)
	rng := rand.New(rand.NewSource(99))
	events := make([]coconut.Series, 5)
	truth := make([]int, 5)
	for i := range events {
		src := rng.Intn(count)
		truth[i] = src
		ev := archive[src].Clone()
		for j := range ev {
			ev[j] += 0.05 * rng.NormFloat64()
		}
		coconut.ZNormalize(ev)
		events[i] = ev
	}

	fmt.Println("\nradius sweep: approximate answer quality vs leaves examined")
	for _, radius := range []int{0, 1, 5} {
		var meanDist float64
		var hits int
		start := time.Now()
		for i, ev := range events {
			res, err := idx.SearchApprox(ev, radius)
			if err != nil {
				log.Fatal(err)
			}
			meanDist += res.Distance
			if res.Position == int64(truth[i]) {
				hits++
			}
		}
		fmt.Printf("  radius %d: mean dist %.4f, %d/%d true sources found, %v total\n",
			radius, meanDist/float64(len(events)), hits, len(events),
			time.Since(start).Round(time.Microsecond))
	}

	fmt.Println("\nexact search (guaranteed nearest neighbor):")
	for i, ev := range events {
		res, err := idx.Search(ev)
		if err != nil {
			log.Fatal(err)
		}
		marker := " "
		if res.Position == int64(truth[i]) {
			marker = "*"
		}
		fmt.Printf("  event %d -> archived #%d%s dist=%.4f (examined %d of %d waveforms)\n",
			i, res.Position, marker, res.Distance, res.VisitedSeries, count)
	}
}
