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
	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/server"
	"github.com/coconut-db/coconut/internal/storage"
)

type config struct {
	// build is the full build configuration the flags spell out; commands
	// over a persisted index open it through openConfig instead.
	build      coconut.Config
	variant    string
	queries    string
	radius     int
	approx     bool
	k          int
	appendFile string
	batch      int
	repair     bool
	timeout    time.Duration
	addr       string
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
	return &config{
		build: coconut.Config{
			Storage:              fs,
			Name:                 *name,
			DataFile:             *data,
			SeriesLen:            *length,
			Segments:             *segments,
			CardinalityBits:      *cardBits,
			LeafSize:             *leaf,
			Materialized:         *mat,
			MemoryBudget:         *mem,
			Workers:              *workers,
			QueryWorkers:         *queryWorkers,
			Partitions:           *partitions,
			BackgroundCompaction: *background,
			CompactionWorkers:    *compactionWorkers,
			WALGroupWindow:       *walWindow,
			CacheBytes:           *cacheBytes,
		},
		variant:    *variant,
		queries:    *queries,
		radius:     *radius,
		approx:     *approx,
		k:          *k,
		appendFile: *appendFile,
		batch:      *batch,
		repair:     *repair,
		timeout:    *timeout,
		addr:       *addr,
	}, nil
}

// openConfig is the configuration for reopening the persisted index: the
// summarization, leaf capacity, materialization and partition layout are
// left unset, to be adopted from the manifest, so query/info/stream/serve
// need only -dir and -name (a -data that names another dataset than the
// stored one still fails loudly).
func (cfg *config) openConfig() coconut.Config {
	oc := cfg.build
	oc.SeriesLen, oc.Segments, oc.CardinalityBits, oc.LeafSize = 0, 0, 0, 0
	oc.Materialized, oc.Partitions = false, 0
	return oc
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

// leafIndex is what build and info report of a tree or a trie.
type leafIndex interface {
	Count() int64
	NumLeaves() int
	LeafFill() float64
	SizeBytes() int64
	Close() error
}

func runBuild(cfg *config) error {
	if cfg.build.DataFile == "" {
		return errors.New("-data is required for build")
	}
	start := time.Now()
	part := ""
	if cfg.build.Partitions > 1 {
		part = fmt.Sprintf(" in %d partitions", cfg.build.Partitions)
	}
	var (
		ix    leafIndex
		title string
		err   error
	)
	switch cfg.variant {
	case "tree":
		title = "Coconut-Tree"
		ix, err = coconut.BuildTreeIndex(cfg.build)
	case "trie":
		title = "Coconut-Trie"
		ix, err = coconut.BuildTrieIndex(cfg.build)
	case "lsm":
		ix, err := coconut.BuildLSMIndex(cfg.build)
		if err != nil {
			return err
		}
		fmt.Printf("built Coconut-LSM %q%s: %d series across %d runs, %s on disk, in %v\n",
			cfg.build.Name, part, ix.Count(), ix.NumRuns(), byteSize(ix.SizeBytes()),
			time.Since(start).Round(time.Millisecond))
		return ix.Close()
	default:
		return fmt.Errorf("unknown variant %q (want tree, trie, or lsm)", cfg.variant)
	}
	if err != nil {
		return err
	}
	fmt.Printf("built %s %q%s: %d series, %d leaves (%.0f%% full), %s on disk, in %v\n",
		title, cfg.build.Name, part, ix.Count(), ix.NumLeaves(), ix.LeafFill()*100,
		byteSize(ix.SizeBytes()), time.Since(start).Round(time.Millisecond))
	return ix.Close()
}

// runScrub verifies every block of every artifact the index's manifest
// references, printing one line per file. With -repair it rebuilds what
// the (verified) raw dataset can re-derive, then re-scrubs. Exits
// non-zero if the final report still holds corruption.
func runScrub(cfg *config) error {
	rep, err := coconut.Scrub(cfg.build.Storage, cfg.build.Name)
	if err != nil {
		return err
	}
	printScrub(rep)
	if cfg.repair && !rep.Clean() {
		fmt.Println("repairing from raw dataset...")
		rep, err = coconut.Repair(coconut.Config{
			Storage:      cfg.build.Storage,
			Name:         cfg.build.Name,
			Workers:      cfg.build.Workers,
			MemoryBudget: cfg.build.MemoryBudget,
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
	m, err := manifest.Load(cfg.build.Storage, cfg.build.Name)
	if err != nil {
		return err
	}
	fmt.Printf("index %q (%s)\n  dataset:   %s\n  series:    %d\n  summarization: len=%d segments=%d cardbits=%d\n  materialized:  %v\n",
		cfg.build.Name, m.Variant, m.RawName, m.Count, m.SeriesLen, m.Segments, m.CardBits, m.Materialized)
	switch m.Variant {
	case manifest.VariantTree, manifest.VariantTrie:
		var ix leafIndex
		if m.Variant == manifest.VariantTree {
			ix, err = coconut.OpenTreeIndex(cfg.openConfig())
		} else {
			ix, err = coconut.OpenTrieIndex(cfg.openConfig())
		}
		if err != nil {
			return err
		}
		defer ix.Close()
		fmt.Printf("  leaves:    %d\n  leaf fill: %.0f%%\n  size:      %s\n",
			ix.NumLeaves(), ix.LeafFill()*100, byteSize(ix.SizeBytes()))
	case manifest.VariantLSM:
		fmt.Printf("  runs:      %d\n", len(m.LSM.Runs))
		for _, r := range m.LSM.Runs {
			tier := fmt.Sprintf("%d", r.Tier)
			if r.Tier == manifest.BulkTier {
				tier = "bulk"
			}
			fmt.Printf("    %-24s tier=%-4s %d records\n", r.Name, tier, r.Count)
		}
	case manifest.VariantPartitioned:
		fmt.Printf("  partitions: %d (%s children)\n", m.Part.Partitions, m.Part.ChildVariant)
		for _, c := range m.Part.Children {
			cm, err := manifest.Load(cfg.build.Storage, c)
			if err != nil {
				return err
			}
			fmt.Printf("    %-24s %d records\n", c, cm.Count)
		}
	}
	return nil
}

func runQuery(cfg *config) error {
	if cfg.queries == "" {
		return errors.New("-queries is required for query")
	}
	// The handle detects the stored variant (a partitioned index is served
	// as its child variant) and carries its capability set.
	ix, err := server.OpenHandle(context.Background(), cfg.openConfig())
	if err != nil {
		return err
	}
	defer ix.Close()

	qf, err := cfg.build.Storage.Open(cfg.queries)
	if err != nil {
		return err
	}
	defer qf.Close()
	r := series.NewReader(storage.NewSequentialReader(qf, 0, -1, 0), ix.SeriesLen)
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
			if ix.SearchKNN == nil {
				cancel()
				return errors.New("-k > 1 is only supported on tree indexes")
			}
			ns, err := ix.SearchKNN(ctx, q, cfg.k)
			cancel()
			if err != nil {
				return err
			}
			fmt.Printf("query %d (%d-NN in %v):\n", qnum, cfg.k, time.Since(start).Round(time.Microsecond))
			for rank, n := range ns {
				fmt.Printf("  %2d. #%d dist=%.4f\n", rank+1, n.Position, n.Distance)
			}
			qnum++
			continue
		}
		var res coconut.Result
		mode := "exact"
		if cfg.approx {
			mode = "approx"
			res, err = ix.SearchApprox(ctx, q, cfg.radius)
		} else {
			res, err = ix.Search(ctx, q)
		}
		cancel()
		if err != nil {
			return err
		}
		fmt.Printf("query %d (%s): nearest=#%d dist=%.4f visited=%d series, %d leaves, %v\n",
			qnum, mode, res.Position, res.Distance, res.VisitedSeries, res.VisitedLeaves,
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
	var ix *coconut.LSMIndex
	seriesLen := cfg.build.SeriesLen
	if cfg.build.Storage.Exists(manifest.FileName(cfg.build.Name)) {
		m, err := manifest.Load(cfg.build.Storage, cfg.build.Name)
		if err != nil {
			return err
		}
		seriesLen = m.SeriesLen
		if ix, err = coconut.OpenLSMIndex(cfg.openConfig()); err != nil {
			return err
		}
		fmt.Printf("reopened LSM index %q: %d series across %d runs in %v\n",
			cfg.build.Name, ix.Count(), ix.NumRuns(), time.Since(start).Round(time.Millisecond))
	} else {
		if cfg.build.DataFile == "" {
			return errors.New("-data is required to bulk-load a new stream index")
		}
		var err error
		if ix, err = coconut.BuildLSMIndex(cfg.build); err != nil {
			return err
		}
		fmt.Printf("bulk-loaded LSM index %q: %d series in %v\n",
			cfg.build.Name, ix.Count(), time.Since(start).Round(time.Millisecond))
	}
	defer ix.Close()

	af, err := cfg.build.Storage.Open(cfg.appendFile)
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
		if err := ix.Insert(batch); err != nil {
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
	// Nearest-rank quantile of the sorted latencies.
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	mode := "synchronous"
	if cfg.build.BackgroundCompaction {
		mode = fmt.Sprintf("background (%d workers)", cfg.build.CompactionWorkers)
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
	h, err := server.OpenHandle(context.Background(), coconut.Config{
		Storage:      cfg.build.Storage,
		Name:         cfg.build.Name,
		QueryWorkers: cfg.build.QueryWorkers,
		CacheBytes:   cfg.build.CacheBytes,
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
