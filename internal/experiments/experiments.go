// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) at a configurable scale. Each figure has one function
// returning a Table whose rows mirror the series the paper plots; the
// bench harness (bench_test.go) and cmd/benchrunner print them.
//
// Times are reported two ways: simulated device time (the HDD cost model
// applied to the exact I/O trace — the quantity the paper's analysis is
// about) and wall-clock CPU time. Shapes are judged on total = both.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/dstree"
	"github.com/coconut-db/coconut/internal/isax"
	"github.com/coconut-db/coconut/internal/partition"
	"github.com/coconut-db/coconut/internal/rtree"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
	"github.com/coconut-db/coconut/internal/vertical"
)

// Series aliases the data series type for the figure implementations.
type Series = series.Series

// Scale sizes an experiment run. The paper's absolute sizes (100 GB+) are
// scaled down; every comparison keeps the N/M and N/B ratios that drive the
// figures.
type Scale struct {
	// SeriesLen is the data series length (paper: 256).
	SeriesLen int
	// Segments and CardBits fix the summarization (paper: 16 x 8).
	Segments, CardBits int
	// LeafCap is the baselines' leaf size in records (paper: 2000); a
	// Coconut-Tree's leaves are its run's checksum blocks.
	LeafCap int
	// BaseCount is N at scale factor 1.
	BaseCount int
	// Queries is the number of queries per workload (paper: 100).
	Queries int
	// Seed drives all generators.
	Seed int64
	// Workers is the construction worker count passed to the builders.
	// Defaults to 1 so the simulated I/O traces (run counts, merge passes)
	// are identical on every machine; cmd/benchrunner -workers raises it.
	Workers int
	// QueryWorkers is the per-query fan-out passed to the indexes. It
	// defaults to 1: search answers are identical for any value, but the
	// Visited* counters and I/O interleavings the figures report are only
	// machine-independent with a serial verification scan. The default
	// also serializes the (deterministic, counter-free) lower-bound pass —
	// trading some exact-query wall time for traces that are pure
	// functions of the Scale, the same convention as Workers above;
	// cmd/benchrunner -query-workers 0 restores all-core queries.
	QueryWorkers int
	// Dataset overrides the generic random-walk workload with another
	// generator family (cmd/benchrunner -dataset). Figures that pin a
	// specific dataset — the Fig7 histograms, the astronomy/seismic
	// figures — keep their pin; empty means randomwalk.
	Dataset string
}

// DefaultScale is sized for `go test -bench` runs (seconds per figure).
func DefaultScale() Scale {
	return Scale{
		SeriesLen:    128,
		Segments:     16,
		CardBits:     8,
		LeafCap:      100,
		BaseCount:    8000,
		Queries:      20,
		Seed:         42,
		Workers:      1,
		QueryWorkers: 1,
	}
}

// FullScale is sized for cmd/benchrunner (minutes per figure).
func FullScale() Scale {
	s := DefaultScale()
	s.SeriesLen = 256
	s.BaseCount = 40000
	s.Queries = 100
	return s
}

// RawBytes returns the dataset size in bytes for count series.
func (sc Scale) RawBytes(count int) int64 {
	return int64(count) * int64(series.EncodedSize(sc.SeriesLen))
}

func (sc Scale) summarizer() (*summary.Summarizer, error) {
	return summary.NewSummarizer(summary.Params{
		SeriesLen: sc.SeriesLen, Segments: sc.Segments, CardBits: sc.CardBits,
	})
}

// Table is one regenerated figure/table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
}

// Cost is the measured expense of a phase.
type Cost struct {
	// Wall is the CPU wall-clock time.
	Wall time.Duration
	// IO is the device traffic.
	IO storage.Snapshot
	// Sim is the HDD cost model applied to IO.
	Sim time.Duration
}

// Total combines simulated device time and CPU time — the closest analog of
// the paper's end-to-end measurements.
func (c Cost) Total() time.Duration { return c.Wall + c.Sim }

func (c Cost) String() string {
	return fmt.Sprintf("%v (io=%v cpu=%v seeks=%d)", c.Total(), c.Sim, c.Wall, c.IO.Seeks())
}

var hdd = storage.DefaultHDD()

// measure runs fn against fs and captures wall time plus the I/O delta.
func measure(fs *storage.MemFS, fn func() error) (Cost, error) {
	before := fs.Stats().Snapshot()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	io := fs.Stats().Snapshot().Sub(before)
	return Cost{Wall: wall, IO: io, Sim: hdd.Time(io)}, err
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// Percentile picks the p-quantile of ascending-sorted latencies
// (nearest-rank), the quantile definition of BenchmarkIngestLatency (and,
// inline, of `coconut stream`).
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

func mb(b int64) string { return fmt.Sprintf("%.2fMB", float64(b)/1e6) }

// env bundles a fresh device with a generated dataset.
type env struct {
	fs    *storage.MemFS
	sc    Scale
	count int
	kind  string
	data  []series.Series // in-memory copy for verification; nil unless asked
}

const rawName = "raw.bin"

func newEnv(sc Scale, kind string, count int) (*env, error) {
	// "randomwalk" marks the generic synthetic workload; Scale.Dataset
	// redirects it fleet-wide without touching figures that pin a
	// specific dataset family.
	if kind == "randomwalk" && sc.Dataset != "" {
		kind = sc.Dataset
	}
	gen, err := dataset.ByName(kind)
	if err != nil {
		return nil, err
	}
	fs := storage.NewMemFS()
	if _, err := dataset.WriteFile(fs, rawName, gen, count, sc.SeriesLen, sc.Seed); err != nil {
		return nil, err
	}
	fs.Stats().Reset()
	return &env{fs: fs, sc: sc, count: count, kind: kind}, nil
}

func (e *env) queries(n int) []series.Series {
	gen, _ := dataset.ByName(e.kind)
	return dataset.Queries(gen, n, e.sc.SeriesLen, e.sc.Seed+1000)
}

// --- builders -------------------------------------------------------------

func (e *env) coreOptions(mat bool, budget int64) (core.Options, error) {
	s, err := e.sc.summarizer()
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		FS:             e.fs,
		Name:           "coconut",
		S:              s,
		RawName:        rawName,
		Materialized:   mat,
		MemBudgetBytes: budget,
		Workers:        e.sc.Workers,
		QueryWorkers:   e.sc.QueryWorkers,
	}, nil
}

func (e *env) buildCTree(mat bool, budget int64) (*partition.Composite, Cost, error) {
	return e.buildCoconut(partition.TreeVariant, mat, budget)
}

// seededTree is Coconut-Tree with its exact search seeded from the radius
// window.
func seededTree(radius int) func(core.Options) partition.Variant {
	return func(opt core.Options) partition.Variant { return partition.TreeVariant(opt).Seeded(radius) }
}

// buildCoconut bulk-loads the unpartitioned Coconut index of variant over
// the environment's dataset.
func (e *env) buildCoconut(variant func(core.Options) partition.Variant, mat bool, budget int64) (*partition.Composite, Cost, error) {
	opt, err := e.coreOptions(mat, budget)
	if err != nil {
		return nil, Cost{}, err
	}
	var ix *partition.Composite
	cost, err := measure(e.fs, func() error {
		var err error
		ix, err = partition.Build(variant(opt), 1, nil)
		return err
	})
	return ix, cost, err
}

func (e *env) buildISAX(mode isax.Mode, budget int64) (*isax.Index, Cost, error) {
	s, err := e.sc.summarizer()
	if err != nil {
		return nil, Cost{}, err
	}
	opt := isax.Options{
		FS:             e.fs,
		Name:           "isax",
		S:              s,
		RawName:        rawName,
		Mode:           mode,
		LeafCap:        e.sc.LeafCap,
		MemBudgetBytes: budget,
	}
	var ix *isax.Index
	cost, err := measure(e.fs, func() error {
		var err error
		ix, err = isax.Build(opt)
		return err
	})
	return ix, cost, err
}

func (e *env) buildRTree(mat bool) (*rtree.Tree, Cost, error) {
	s, err := e.sc.summarizer()
	if err != nil {
		return nil, Cost{}, err
	}
	opt := rtree.Options{
		FS:           e.fs,
		Name:         "rtree",
		S:            s,
		RawName:      rawName,
		LeafCap:      e.sc.LeafCap,
		Materialized: mat,
	}
	var t *rtree.Tree
	cost, err := measure(e.fs, func() error {
		var err error
		t, err = rtree.Build(opt)
		return err
	})
	return t, cost, err
}

func (e *env) buildVertical() (*vertical.Index, Cost, error) {
	opt := vertical.Options{
		FS:        e.fs,
		Name:      "vert",
		RawName:   rawName,
		SeriesLen: e.sc.SeriesLen,
		Levels:    0, // all levels, as in the paper's stepwise construction
	}
	var ix *vertical.Index
	cost, err := measure(e.fs, func() error {
		var err error
		ix, err = vertical.Build(opt)
		return err
	})
	return ix, cost, err
}

func (e *env) buildDSTree() (*dstree.Tree, Cost, error) {
	opt := dstree.Options{
		FS:        e.fs,
		Name:      "ds",
		RawName:   rawName,
		SeriesLen: e.sc.SeriesLen,
		LeafCap:   e.sc.LeafCap,
	}
	var t *dstree.Tree
	cost, err := measure(e.fs, func() error {
		var err error
		t, err = dstree.Build(opt)
		return err
	})
	return t, cost, err
}
