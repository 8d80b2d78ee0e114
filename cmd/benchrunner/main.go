// Command benchrunner regenerates the paper's evaluation tables and
// figures (§5) on the simulated HDD at a chosen scale, printing the same
// rows/series the paper plots.
//
// Usage:
//
//	benchrunner [-scale tiny|default|full] [-figure Fig8a[,Fig9d,...]] [-workers N] [-query-workers N] [-json file]
//
// With no -figure it runs the complete evaluation in paper order. With
// -json the regenerated tables are also written to the named file as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "default", "experiment scale: tiny, default, or full")
	figFlag := flag.String("figure", "", "comma-separated figure ids (default: all)")
	workersFlag := flag.Int("workers", 1, "construction workers (0 = all CPUs; >1 makes I/O traces machine-dependent)")
	queryWorkersFlag := flag.Int("query-workers", 1, "per-query fan-out (0 = all CPUs; answers are identical for any value, but >1 makes visited counts machine-dependent)")
	datasetFlag := flag.String("dataset", "", "dataset family for the generic figures: randomwalk, seismic, astronomy, or skewed (default randomwalk; figures pinned to a specific dataset are unaffected)")
	jsonFlag := flag.String("json", "", "also write the regenerated tables to this file as JSON")
	flag.Parse()

	if *workersFlag < 0 {
		fmt.Fprintf(os.Stderr, "-workers must be at least 1, got %d (0 selects all CPUs)\n", *workersFlag)
		os.Exit(2)
	}
	if *queryWorkersFlag < 0 {
		fmt.Fprintf(os.Stderr, "-query-workers must be at least 1, got %d (0 selects all CPUs)\n", *queryWorkersFlag)
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scaleFlag {
	case "tiny":
		sc = experiments.DefaultScale()
		sc.BaseCount = 1000
		sc.Queries = 5
	case "default":
		sc = experiments.DefaultScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	sc.Workers = *workersFlag
	sc.QueryWorkers = *queryWorkersFlag
	if *datasetFlag != "" {
		if _, err := dataset.ByName(*datasetFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Dataset = *datasetFlag
	}

	type figure struct {
		id  string
		run func(experiments.Scale) (*experiments.Table, error)
	}
	figures := []figure{
		{"Fig7", experiments.Fig7Histograms},
		{"Fig8a", experiments.Fig8aConstructionMaterialized},
		{"Fig8b", experiments.Fig8bConstructionNonMaterialized},
		{"Fig8c", experiments.Fig8cSpace},
		{"Fig8d", experiments.Fig8dScaleMaterialized},
		{"Fig8e", experiments.Fig8eScaleNonMaterialized},
		{"Fig8f", experiments.Fig8fVariableLength},
		{"Fig9a", experiments.Fig9aExact},
		{"Fig9b", experiments.Fig9bApprox},
		{"Fig9c", experiments.Fig9cApproxLargest},
		{"Fig9d", experiments.Fig9dApproxQuality},
		{"Fig9e", func(sc experiments.Scale) (*experiments.Table, error) {
			te, _, err := experiments.Fig9ef(sc)
			return te, err
		}},
		{"Fig9f", func(sc experiments.Scale) (*experiments.Table, error) {
			_, tf, err := experiments.Fig9ef(sc)
			return tf, err
		}},
		{"Fig10a", experiments.Fig10aMixedWorkload},
		{"Fig10b", experiments.Fig10bAstronomy},
		{"Fig10c", experiments.Fig10cSeismic},
		{"SizeTable", experiments.IndexSizeTable},
	}

	want := map[string]bool{}
	if *figFlag != "" {
		for _, id := range strings.Split(*figFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	fmt.Printf("Coconut evaluation — scale=%s (N=%d, len=%d, leaf=%d, queries=%d, workers=%d, query-workers=%d)\n",
		*scaleFlag, sc.BaseCount, sc.SeriesLen, sc.LeafCap, sc.Queries, sc.Workers, sc.QueryWorkers)
	start := time.Now()
	var ran []*experiments.Table
	for _, f := range figures {
		if len(want) > 0 && !want[f.id] {
			continue
		}
		t0 := time.Now()
		tb, err := f.run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", f.id, err)
			os.Exit(1)
		}
		tb.Print(os.Stdout)
		ran = append(ran, tb)
		fmt.Printf("  (%s regenerated in %v)\n", f.id, time.Since(t0).Round(time.Millisecond))
	}
	if *jsonFlag != "" {
		report := struct {
			Scale   string               `json:"scale"`
			Workers int                  `json:"workers"`
			QueryW  int                  `json:"query_workers"`
			NumCPU  int                  `json:"num_cpu"`
			Tables  []*experiments.Table `json:"tables"`
		}{*scaleFlag, sc.Workers, sc.QueryWorkers, runtime.NumCPU(), ran}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonFlag, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonFlag)
	}
	fmt.Printf("\nAll done in %v\n", time.Since(start).Round(time.Millisecond))
}
