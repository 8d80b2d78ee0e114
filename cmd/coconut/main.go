// Command coconut builds and queries persisted Coconut indexes over raw
// data series files on disk. Building and querying are separate
// invocations over a persisted directory: build commits a versioned,
// checksummed manifest next to the index files, and later query/info/
// stream invocations reopen the index from that manifest — the dataset is
// never re-indexed, and the build-time parameters (series length,
// summarization, leaf size, variant) are read back from the manifest, so
// they need not be repeated.
//
// Build an index over a dataset (see cmd/datagen for producing one):
//
//	coconut build -dir ./data -data walk.bin -name myidx -len 256
//	coconut build -dir ./data -data walk.bin -name mytrie -len 256 -variant trie
//	coconut build -dir ./data -data walk.bin -name mylsm -len 256 -variant lsm
//
// Query it from a fresh process (the query file holds one or more series
// in the raw format):
//
//	coconut query -dir ./data -name myidx -queries q.bin
//
// Show the manifest and index statistics:
//
//	coconut info -dir ./data -name myidx
//
// Stream new series into the persisted Coconut-LSM index with background
// compaction, reporting ingest latency percentiles (the runs survive the
// process — a later stream or query picks up where this one stopped):
//
//	coconut stream -dir ./data -name mylsm -append extra.bin \
//	    -background -compaction-workers 4
//
// Verify every block of every index artifact against its checksums (add
// -repair to rebuild what is re-derivable from the raw dataset):
//
//	coconut scrub -dir ./data -name myidx
//	coconut scrub -dir ./data -name mylsm -repair
//
// Serve the index over HTTP/JSON (the full coconutd front end — deadlines,
// load shedding, graceful drain; see cmd/coconutd for the endpoints and
// for serving several indexes at once):
//
//	coconut serve -dir ./data -name myidx -addr :7737 -timeout 5s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	coconut "github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/core"
	"github.com/coconut-db/coconut/internal/experiments"
	"github.com/coconut-db/coconut/internal/lsm"
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/partition"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/server"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/storage/blockcache"
	"github.com/coconut-db/coconut/internal/summary"
)

type config struct {
	fs                *storage.OSFS
	opt               core.Options
	variant           string
	dataFile          string
	queries           string
	partitions        int
	radius            int
	approx            bool
	k                 int
	appendFile        string
	batch             int
	background        bool
	compactionWorkers int
	walWindow         time.Duration
	repair            bool
	timeout           time.Duration
	dirPath           string
	addr              string
	cacheBytes        int64
}

func parseFlags(args []string) (*config, error) {
	fl := flag.NewFlagSet("coconut", flag.ContinueOnError)
	dir := fl.String("dir", ".", "directory holding the dataset and index files")
	data := fl.String("data", "", "raw dataset file name (required for build)")
	name := fl.String("name", "coconut", "index name prefix")
	variant := fl.String("variant", "tree", "index variant to build: tree, trie, or lsm")
	length := fl.Int("len", 256, "series length")
	segments := fl.Int("segments", 16, "SAX segments")
	cardBits := fl.Int("cardbits", 8, "bits per SAX symbol")
	leaf := fl.Int("leaf", 2000, "leaf capacity in records")
	mat := fl.Bool("materialized", false, "store raw series inside the index")
	mem := fl.Int64("mem", 256<<20, "memory budget in bytes")
	workers := fl.Int("workers", 0, "construction workers (0 = all CPUs)")
	queryWorkers := fl.Int("query-workers", 0, "per-query fan-out for exact search (0 = all CPUs)")
	queries := fl.String("queries", "", "query series file (raw format)")
	partitions := fl.Int("partitions", 1, "key-range partitions to build (1 = single index; open adopts the stored layout)")
	radius := fl.Int("radius", 1, "approximate-search leaf radius")
	approx := fl.Bool("approx", false, "run approximate instead of exact search")
	k := fl.Int("k", 1, "number of nearest neighbors to return")
	appendFile := fl.String("append", "", "series file to stream into the LSM index (stream command)")
	batch := fl.Int("batch", 1000, "series per Append batch (stream command)")
	background := fl.Bool("background", false, "compact LSM tiers on a background pool instead of inside Append")
	compactionWorkers := fl.Int("compaction-workers", 2, "background compaction pool size (stream command)")
	walWindow := fl.Duration("wal-window", 0, "stretch each WAL group commit by this duration to batch more concurrent appends")
	repair := fl.Bool("repair", false, "after scrubbing, repair corrupt artifacts re-derivable from the raw dataset (scrub command)")
	timeout := fl.Duration("timeout", 30*time.Second, "per-query deadline (query command) / per-request deadline (serve command)")
	addr := fl.String("addr", ":7737", "listen address (serve command)")
	cacheBytes := fl.Int64("cache-bytes", 0, "decoded-block cache budget in bytes for LSM runs (0 = 128MiB default)")
	if err := fl.Parse(args); err != nil {
		return nil, err
	}
	if *partitions < 1 {
		return nil, fmt.Errorf("-partitions must be at least 1, got %d", *partitions)
	}
	if *workers < 0 {
		return nil, fmt.Errorf("-workers must be at least 1, got %d (0 selects all CPUs)", *workers)
	}
	if *queryWorkers < 0 {
		return nil, fmt.Errorf("-query-workers must be at least 1, got %d (0 selects all CPUs)", *queryWorkers)
	}
	if *timeout <= 0 {
		return nil, fmt.Errorf("-timeout must be positive, got %v", *timeout)
	}
	if *cacheBytes < 0 {
		return nil, fmt.Errorf("-cache-bytes must not be negative, got %d (0 selects the default)", *cacheBytes)
	}
	fs, err := storage.NewOSFS(*dir)
	if err != nil {
		return nil, err
	}
	s, err := summary.NewSummarizer(summary.Params{
		SeriesLen: *length, Segments: *segments, CardBits: *cardBits,
	})
	if err != nil {
		return nil, err
	}
	return &config{
		fs: fs,
		opt: core.Options{
			FS:             fs,
			Name:           *name,
			S:              s,
			RawName:        *data,
			Materialized:   *mat,
			LeafCap:        *leaf,
			MemBudgetBytes: *mem,
			Workers:        *workers,
			QueryWorkers:   *queryWorkers,
			Checksums:      true,
		},
		variant:           *variant,
		dataFile:          *data,
		queries:           *queries,
		partitions:        *partitions,
		radius:            *radius,
		approx:            *approx,
		k:                 *k,
		appendFile:        *appendFile,
		batch:             *batch,
		background:        *background,
		compactionWorkers: *compactionWorkers,
		walWindow:         *walWindow,
		repair:            *repair,
		timeout:           *timeout,
		dirPath:           *dir,
		addr:              *addr,
		cacheBytes:        *cacheBytes,
	}, nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: coconut <build|query|info|stream|scrub|serve> [flags]")
		os.Exit(2)
	}
	cmd := os.Args[1]
	cfg, err := parseFlags(os.Args[2:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch cmd {
	case "build":
		err = runBuild(cfg)
	case "query":
		err = runQuery(cfg)
	case "info":
		err = runInfo(cfg)
	case "stream":
		err = runStream(cfg)
	case "scrub":
		err = runScrub(cfg)
	case "serve":
		err = runServe(cfg)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runBuild(cfg *config) error {
	if cfg.dataFile == "" {
		return errors.New("-data is required for build")
	}
	start := time.Now()
	part := ""
	if cfg.partitions > 1 {
		part = fmt.Sprintf(" in %d partitions", cfg.partitions)
	}
	switch cfg.variant {
	case "tree":
		var ix interface {
			Count() int64
			NumLeaves() int
			AvgLeafFill() float64
			SizeBytes() int64
			Close() error
		}
		var err error
		if cfg.partitions > 1 {
			ix, err = partition.BuildTree(cfg.opt, cfg.partitions)
		} else {
			ix, err = core.BuildTree(cfg.opt)
		}
		if err != nil {
			return err
		}
		fmt.Printf("built Coconut-Tree %q%s: %d series, %d leaves (%.0f%% full), %s on disk, in %v\n",
			cfg.opt.Name, part, ix.Count(), ix.NumLeaves(), ix.AvgLeafFill()*100,
			byteSize(ix.SizeBytes()), time.Since(start).Round(time.Millisecond))
		return ix.Close()
	case "trie":
		var ix interface {
			Count() int64
			NumLeaves() int
			AvgLeafFill() float64
			SizeBytes() int64
			Close() error
		}
		var err error
		if cfg.partitions > 1 {
			ix, err = partition.BuildTrie(cfg.opt, cfg.partitions)
		} else {
			ix, err = core.BuildTrie(cfg.opt)
		}
		if err != nil {
			return err
		}
		fmt.Printf("built Coconut-Trie %q%s: %d series, %d leaves (%.0f%% full), %s on disk, in %v\n",
			cfg.opt.Name, part, ix.Count(), ix.NumLeaves(), ix.AvgLeafFill()*100,
			byteSize(ix.SizeBytes()), time.Since(start).Round(time.Millisecond))
		return ix.Close()
	case "lsm":
		var ix interface {
			Count() int64
			NumRuns() int
			SizeBytes() int64
			Close() error
		}
		var err error
		if cfg.partitions > 1 {
			ix, err = partition.BuildLSM(cfg.lsmOptions(), cfg.partitions)
		} else {
			ix, err = lsm.Build(cfg.lsmOptions())
		}
		if err != nil {
			return err
		}
		fmt.Printf("built Coconut-LSM %q%s: %d series across %d runs, %s on disk, in %v\n",
			cfg.opt.Name, part, ix.Count(), ix.NumRuns(), byteSize(ix.SizeBytes()),
			time.Since(start).Round(time.Millisecond))
		return ix.Close()
	}
	return fmt.Errorf("unknown variant %q (want tree, trie, or lsm)", cfg.variant)
}

// openOptions derives the open-time options from the persisted manifest:
// the summarization, dataset file, materialization, and leaf capacity come
// from the store, so query/info/stream need only -dir and -name.
func openOptions(cfg *config) (core.Options, *manifest.Manifest, error) {
	m, err := core.LoadManifest(cfg.fs, cfg.opt.Name)
	if err != nil {
		return core.Options{}, nil, err
	}
	if !m.Checksums {
		return core.Options{}, nil, fmt.Errorf("%w: index is stored without block checksums (rebuild the index)",
			manifest.ErrVersionMismatch)
	}
	if cfg.dataFile != "" && cfg.dataFile != m.RawName {
		return core.Options{}, nil, fmt.Errorf("%w: -data %q, stored index was built over %q",
			manifest.ErrConfigMismatch, cfg.dataFile, m.RawName)
	}
	s, err := summary.NewSummarizer(summary.Params{
		SeriesLen: m.SeriesLen, Segments: m.Segments, CardBits: m.CardBits,
	})
	if err != nil {
		return core.Options{}, nil, err
	}
	opt := cfg.opt
	opt.S = s
	opt.RawName = m.RawName
	opt.Materialized = m.Materialized
	if m.LeafCap != 0 {
		opt.LeafCap = m.LeafCap
	}
	return opt, m, nil
}

func (cfg *config) lsmOptions() lsm.Options {
	return lsm.Options{
		FS:                   cfg.fs,
		Name:                 cfg.opt.Name,
		S:                    cfg.opt.S,
		RawName:              cfg.opt.RawName,
		MemBudgetBytes:       cfg.opt.MemBudgetBytes,
		Workers:              cfg.opt.Workers,
		QueryWorkers:         cfg.opt.QueryWorkers,
		BackgroundCompaction: cfg.background,
		CompactionWorkers:    cfg.compactionWorkers,
		WALGroupWindow:       cfg.walWindow,
		Checksums:            cfg.opt.Checksums,
		// One cache per lsmOptions call: partitioned children copy the
		// option struct, so every partition of one index shares this cache.
		Cache: blockcache.New(cfg.cacheBytes),
	}
}

// runScrub verifies every block of every artifact the index's manifest
// references, printing one line per file. With -repair it rebuilds what
// the (verified) raw dataset can re-derive, then re-scrubs. Exits
// non-zero if the final report still holds corruption.
func runScrub(cfg *config) error {
	rep, err := coconut.Scrub(cfg.fs, cfg.opt.Name)
	if err != nil {
		return err
	}
	printScrub(rep)
	if cfg.repair && !rep.Clean() {
		fmt.Println("repairing from raw dataset...")
		rep, err = coconut.Repair(coconut.Config{
			Storage:      cfg.fs,
			Name:         cfg.opt.Name,
			Workers:      cfg.opt.Workers,
			MemoryBudget: cfg.opt.MemBudgetBytes,
		})
		if err != nil {
			return err
		}
		fmt.Println("post-repair scrub:")
		printScrub(rep)
	}
	if n := len(rep.Corrupt()); n > 0 {
		return fmt.Errorf("scrub: %d corrupt artifact(s)", n)
	}
	return nil
}

func printScrub(rep *coconut.ScrubReport) {
	for _, f := range rep.Findings {
		status := "ok"
		if f.Err != nil {
			status = f.Err.Error()
		}
		fmt.Printf("  %-32s %8d units  %s\n", f.File, f.Units, status)
	}
}

func runInfo(cfg *config) error {
	opt, m, err := openOptions(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("index %q (%s)\n  dataset:   %s\n  series:    %d\n  summarization: len=%d segments=%d cardbits=%d\n  materialized:  %v\n",
		cfg.opt.Name, m.Variant, m.RawName, m.Count, m.SeriesLen, m.Segments, m.CardBits, m.Materialized)
	switch m.Variant {
	case manifest.VariantTree:
		ix, err := core.OpenTree(opt)
		if err != nil {
			return err
		}
		defer ix.Close()
		fmt.Printf("  leaves:    %d\n  leaf fill: %.0f%%\n  height:    %d\n  size:      %s\n",
			ix.NumLeaves(), ix.AvgLeafFill()*100, ix.Height(), byteSize(ix.SizeBytes()))
	case manifest.VariantTrie:
		ix, err := core.OpenTrie(opt)
		if err != nil {
			return err
		}
		defer ix.Close()
		fmt.Printf("  leaves:    %d\n  leaf fill: %.0f%%\n  size:      %s\n",
			ix.NumLeaves(), ix.AvgLeafFill()*100, byteSize(ix.SizeBytes()))
	case manifest.VariantLSM:
		fmt.Printf("  runs:      %d\n", len(m.LSM.Runs))
		for _, r := range m.LSM.Runs {
			tier := fmt.Sprintf("%d", r.Tier)
			if r.Tier == lsm.BulkTier {
				tier = "bulk"
			}
			fmt.Printf("    %-24s tier=%-4s %d records\n", r.Name, tier, r.Count)
		}
	case manifest.VariantPartitioned:
		fmt.Printf("  partitions: %d (%s children)\n", m.Part.Partitions, m.Part.ChildVariant)
		for _, c := range m.Part.Children {
			cm, err := core.LoadManifest(cfg.fs, c)
			if err != nil {
				return err
			}
			fmt.Printf("    %-24s %d records\n", c, cm.Count)
		}
	}
	return nil
}

// queryFuncs adapts the three reopened variants to a common query surface.
type queryFuncs struct {
	seriesLen int
	exact     func(context.Context, series.Series) (core.Result, error)
	approx    func(context.Context, series.Series) (core.Result, error)
	knn       func(context.Context, series.Series, int) ([]core.Neighbor, core.Result, error)
	close     func() error
}

func openForQuery(cfg *config) (*queryFuncs, error) {
	opt, m, err := openOptions(cfg)
	if err != nil {
		return nil, err
	}
	seriesLen := opt.S.Params().SeriesLen
	switch m.Variant {
	case manifest.VariantTree:
		ix, err := core.OpenTree(opt)
		if err != nil {
			return nil, err
		}
		return &queryFuncs{
			seriesLen: seriesLen,
			exact: func(ctx context.Context, q series.Series) (core.Result, error) {
				return ix.ExactSearchCtx(ctx, q, cfg.radius)
			},
			approx: func(ctx context.Context, q series.Series) (core.Result, error) {
				return ix.ApproxSearchCtx(ctx, q, cfg.radius)
			},
			knn: func(ctx context.Context, q series.Series, k int) ([]core.Neighbor, core.Result, error) {
				return ix.ExactSearchKNNCtx(ctx, q, k, cfg.radius)
			},
			close: ix.Close,
		}, nil
	case manifest.VariantTrie:
		ix, err := core.OpenTrie(opt)
		if err != nil {
			return nil, err
		}
		return &queryFuncs{
			seriesLen: seriesLen,
			exact: func(ctx context.Context, q series.Series) (core.Result, error) {
				return ix.ExactSearchCtx(ctx, q, cfg.radius)
			},
			approx: func(ctx context.Context, q series.Series) (core.Result, error) {
				return ix.ApproxSearchCtx(ctx, q, cfg.radius)
			},
			close: ix.Close,
		}, nil
	case manifest.VariantLSM:
		lopt := cfg.lsmOptions()
		lopt.S, lopt.RawName = opt.S, opt.RawName
		ix, err := lsm.Open(lopt)
		if err != nil {
			return nil, err
		}
		conv := func(r lsm.Result) core.Result {
			return core.Result{Pos: r.Pos, Dist: r.Dist, VisitedRecords: r.VisitedRecords}
		}
		return &queryFuncs{
			seriesLen: seriesLen,
			exact: func(ctx context.Context, q series.Series) (core.Result, error) {
				r, err := ix.ExactSearchCtx(ctx, q)
				return conv(r), err
			},
			approx: func(ctx context.Context, q series.Series) (core.Result, error) {
				r, err := ix.ApproxSearchCtx(ctx, q)
				return conv(r), err
			},
			close: ix.Close,
		}, nil
	case manifest.VariantPartitioned:
		switch m.Part.ChildVariant {
		case manifest.VariantTree:
			ix, err := partition.OpenTree(opt, 0, false)
			if err != nil {
				return nil, err
			}
			return &queryFuncs{
				seriesLen: seriesLen,
				exact: func(ctx context.Context, q series.Series) (core.Result, error) {
					return ix.ExactSearchCtx(ctx, q, cfg.radius)
				},
				approx: func(ctx context.Context, q series.Series) (core.Result, error) {
					return ix.ApproxSearchCtx(ctx, q, cfg.radius)
				},
				knn: func(ctx context.Context, q series.Series, k int) ([]core.Neighbor, core.Result, error) {
					return ix.ExactSearchKNNCtx(ctx, q, k, cfg.radius)
				},
				close: ix.Close,
			}, nil
		case manifest.VariantTrie:
			ix, err := partition.OpenTrie(opt, 0, false)
			if err != nil {
				return nil, err
			}
			return &queryFuncs{
				seriesLen: seriesLen,
				exact: func(ctx context.Context, q series.Series) (core.Result, error) {
					return ix.ExactSearchCtx(ctx, q, cfg.radius)
				},
				approx: func(ctx context.Context, q series.Series) (core.Result, error) {
					return ix.ApproxSearchCtx(ctx, q, cfg.radius)
				},
				close: ix.Close,
			}, nil
		case manifest.VariantLSM:
			lopt := cfg.lsmOptions()
			lopt.S, lopt.RawName = opt.S, opt.RawName
			ix, err := partition.OpenLSM(lopt, 0)
			if err != nil {
				return nil, err
			}
			conv := func(r lsm.Result) core.Result {
				return core.Result{Pos: r.Pos, Dist: r.Dist, VisitedRecords: r.VisitedRecords}
			}
			return &queryFuncs{
				seriesLen: seriesLen,
				exact: func(ctx context.Context, q series.Series) (core.Result, error) {
					r, err := ix.ExactSearchCtx(ctx, q)
					return conv(r), err
				},
				approx: func(ctx context.Context, q series.Series) (core.Result, error) {
					r, err := ix.ApproxSearchCtx(ctx, q)
					return conv(r), err
				},
				close: ix.Close,
			}, nil
		}
	}
	return nil, fmt.Errorf("unknown stored variant %q", m.Variant)
}

func runQuery(cfg *config) error {
	if cfg.queries == "" {
		return errors.New("-queries is required for query")
	}
	ix, err := openForQuery(cfg)
	if err != nil {
		return err
	}
	defer ix.close()

	qf, err := cfg.fs.Open(cfg.queries)
	if err != nil {
		return err
	}
	defer qf.Close()
	r := series.NewReader(storage.NewSequentialReader(qf, 0, -1, 0), ix.seriesLen)
	qnum := 0
	for {
		q, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		q.ZNormalize()
		// Each query runs under its own -timeout deadline; an expired
		// deadline surfaces as context.DeadlineExceeded, never a partial
		// answer.
		ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
		start := time.Now()
		if cfg.k > 1 {
			if ix.knn == nil {
				cancel()
				return errors.New("-k > 1 is only supported on tree indexes")
			}
			ns, stats, err := ix.knn(ctx, q, cfg.k)
			cancel()
			if err != nil {
				return err
			}
			fmt.Printf("query %d (%d-NN, visited %d series in %v):\n",
				qnum, cfg.k, stats.VisitedRecords, time.Since(start).Round(time.Microsecond))
			for rank, n := range ns {
				fmt.Printf("  %2d. #%d dist=%.4f\n", rank+1, n.Pos, n.Dist)
			}
			qnum++
			continue
		}
		var res core.Result
		if cfg.approx {
			res, err = ix.approx(ctx, q)
		} else {
			res, err = ix.exact(ctx, q)
		}
		cancel()
		if err != nil {
			return err
		}
		mode := "exact"
		if cfg.approx {
			mode = "approx"
		}
		fmt.Printf("query %d (%s): nearest=#%d dist=%.4f visited=%d series, %d leaves, %v\n",
			qnum, mode, res.Pos, res.Dist, res.VisitedRecords, res.VisitedLeaves,
			time.Since(start).Round(time.Microsecond))
		qnum++
	}
	return nil
}

// runStream streams the series of -append into a Coconut-LSM index batch
// by batch, reporting per-Append latency percentiles — synchronous
// compaction inside Append by default, background tier-concurrent
// compaction with -background. A persisted index (manifest present) is
// reopened and continues its deterministic flush/compaction sequence;
// otherwise the index is first bulk-loaded over -data.
func runStream(cfg *config) error {
	if cfg.appendFile == "" {
		return errors.New("-append is required for stream")
	}
	start := time.Now()
	var ix interface {
		Append(batch []series.Series) error
		Sync() error
		Count() int64
		NumRuns() int
		SizeBytes() int64
		Close() error
	}
	seriesLen := cfg.opt.S.Params().SeriesLen
	if cfg.fs.Exists(manifest.FileName(cfg.opt.Name)) {
		opt, m, err := openOptions(cfg)
		if err != nil {
			return err
		}
		lopt := cfg.lsmOptions()
		lopt.S, lopt.RawName = opt.S, opt.RawName
		seriesLen = opt.S.Params().SeriesLen
		switch {
		case m.Variant == manifest.VariantLSM:
			if ix, err = lsm.Open(lopt); err != nil {
				return err
			}
		case m.Variant == manifest.VariantPartitioned && m.Part.ChildVariant == manifest.VariantLSM:
			if ix, err = partition.OpenLSM(lopt, 0); err != nil {
				return err
			}
		default:
			return m.CheckVariant(manifest.VariantLSM)
		}
		fmt.Printf("reopened LSM index %q: %d series across %d runs in %v\n",
			cfg.opt.Name, ix.Count(), ix.NumRuns(), time.Since(start).Round(time.Millisecond))
	} else {
		if cfg.dataFile == "" {
			return errors.New("-data is required to bulk-load a new stream index")
		}
		var err error
		if cfg.partitions > 1 {
			ix, err = partition.BuildLSM(cfg.lsmOptions(), cfg.partitions)
		} else {
			ix, err = lsm.Build(cfg.lsmOptions())
		}
		if err != nil {
			return err
		}
		fmt.Printf("bulk-loaded LSM index %q: %d series in %v\n",
			cfg.opt.Name, ix.Count(), time.Since(start).Round(time.Millisecond))
	}
	defer ix.Close()

	af, err := cfg.fs.Open(cfg.appendFile)
	if err != nil {
		return err
	}
	defer af.Close()
	r := series.NewReader(storage.NewSequentialReader(af, 0, -1, 0), seriesLen)
	var (
		lats     []time.Duration
		appended int64
		batch    []series.Series
	)
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		t0 := time.Now()
		if err := ix.Append(batch); err != nil {
			return err
		}
		lats = append(lats, time.Since(t0))
		appended += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	ingestStart := time.Now()
	for {
		s, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		batch = append(batch, s)
		if len(batch) >= cfg.batch {
			if err := flushBatch(); err != nil {
				return err
			}
		}
	}
	if err := flushBatch(); err != nil {
		return err
	}
	if err := ix.Sync(); err != nil {
		return err
	}
	total := time.Since(ingestStart)
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(p float64) time.Duration { return experiments.Percentile(lats, p) }
	mode := "synchronous"
	if cfg.background {
		mode = fmt.Sprintf("background (%d workers)", cfg.compactionWorkers)
	}
	fmt.Printf("streamed %d series in %d batches (%s compaction) in %v\n",
		appended, len(lats), mode, total.Round(time.Millisecond))
	fmt.Printf("  append latency: p50=%v p99=%v max=%v\n",
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond),
		pct(1.0).Round(time.Microsecond))
	fmt.Printf("  index: %d series across %d runs, %s on disk\n",
		ix.Count(), ix.NumRuns(), byteSize(ix.SizeBytes()))
	return nil
}

// runServe serves the persisted index -name over HTTP/JSON, delegating
// the whole request lifecycle — deadlines, admission control, health and
// stats, graceful drain — to the internal/server package coconutd uses.
func runServe(cfg *config) error {
	fs, err := coconut.NewDiskStorage(cfg.dirPath)
	if err != nil {
		return err
	}
	h, err := server.OpenHandle(context.Background(), coconut.Config{
		Storage:      fs,
		Name:         cfg.opt.Name,
		QueryWorkers: cfg.opt.QueryWorkers,
		CacheBytes:   cfg.cacheBytes,
	})
	if err != nil {
		return err
	}
	mgr := server.NewManager()
	mgr.Add(h)
	srv := server.New(mgr, server.Options{DefaultTimeout: cfg.timeout})
	hs := srv.NewHTTPServer(cfg.addr)
	fmt.Printf("serving index %q (%s, %d series) on %s\n", h.Name, h.Variant, h.Count(), cfg.addr)

	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		mgr.CloseAll()
		return err
	case sig := <-sigc:
		fmt.Printf("received %v, draining\n", sig)
		if err := srv.Shutdown(context.Background(), hs); err != nil {
			return err
		}
		<-errc
		return nil
	}
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
