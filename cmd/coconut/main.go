// Command coconut builds and queries persisted Coconut indexes over raw
// data series files on disk. Building and querying are separate
// invocations over a persisted directory: build commits a versioned,
// checksummed manifest next to the index files, and later query/info/
// stream invocations reopen the index from that manifest — the dataset is
// never re-indexed, and the build-time parameters (series length,
// summarization, materialization, partitions, variant) are read back from
// the manifest, so they need not be repeated. A tree's leaves are the
// checksum blocks of its one sorted run, about 4 KiB of whole records each,
// so there is no leaf size to choose.
//
// Build an index over a dataset (see cmd/datagen for producing one):
//
//	coconut build -dir ./data -data walk.bin -name myidx -len 256
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
// Stream new series into the persisted Coconut-LSM index, reporting ingest
// latency percentiles (the runs survive the process — a later stream or
// query picks up where this one stopped):
//
//	coconut stream -dir ./data -name mylsm -append extra.bin
//
// Verify every block of every index artifact against its checksums (add
// -repair to rebuild a damaged index from the raw dataset):
//
//	coconut scrub -dir ./data -name myidx
//	coconut scrub -dir ./data -name mylsm -repair
//
// Serve persisted indexes over HTTP/JSON with request-lifecycle robustness
// built in: every request runs under a deadline (-timeout, or the client's
// timeout_ms capped at -max-timeout), admission control bounds in-flight
// queries and appends (-max-queries, -max-appends: excess load is shed with
// 429 + Retry-After instead of queueing), and SIGINT/SIGTERM triggers a
// graceful drain — stop accepting, let in-flight requests finish within
// -drain-timeout, force-cancel stragglers, then Sync+Close every index so
// the on-disk state reopens clean. It serves every index of the
// comma-separated -indexes, and -demo a freshly built in-memory index named
// "demo" (-demo-count series of length -demo-len; nothing touches disk);
// with neither, it serves -name:
//
//	coconut serve -dir ./data -name myidx -addr :7737 -timeout 5s
//	coconut serve -dir ./data -indexes myidx,mylsm
//	coconut serve -demo
//
// Endpoints:
//
//	GET  /healthz   liveness (503 while draining)
//	GET  /stats     counters: in-flight, shed, deadline-exceeded, per-index info
//	GET  /indexes   the served indexes with their generation UUIDs
//	POST /query     {"index":"myidx","series":[...],"mode":"exact|approx|knn",
//	                 "k":5,"radius":1,"timeout_ms":100,"znormalize":true}
//	POST /append    {"index":"mylsm","series":[[...],...]}
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
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
	// serve's: the indexes to serve instead of -name, the demo index, and
	// the request lifecycle's bounds (timeout is the default per-request
	// deadline).
	indexes   []string
	demo      bool
	demoCount int
	demoLen   int
	lifecycle server.Options
}

func parseFlags(args []string) (*config, error) {
	fl := flag.NewFlagSet("coconut", flag.ContinueOnError)
	dir := fl.String("dir", ".", "directory holding the dataset and index files")
	data := fl.String("data", "", "raw dataset file name (required for build)")
	name := fl.String("name", "coconut", "index name prefix")
	variant := fl.String("variant", "tree", "index variant to build: tree or lsm")
	length := fl.Int("len", 256, "series length")
	segments := fl.Int("segments", 16, "SAX segments")
	cardBits := fl.Int("cardbits", 8, "bits per SAX symbol")
	mat := fl.Bool("materialized", false, "store raw series inside the index")
	mem := fl.Int64("mem", 256<<20, "memory budget in bytes")
	workers := fl.Int("workers", 0, "construction workers (0 = GOMAXPROCS)")
	queryWorkers := fl.Int("query-workers", 0, "per-query fan-out for exact search (0 = GOMAXPROCS)")
	queries := fl.String("queries", "", "query series file (raw format)")
	partitions := fl.Int("partitions", 1, "key-range partitions to build (1 = single index; open adopts the stored layout)")
	radius := fl.Int("radius", 1, "approximate-search radius: every type evaluates 32×(radius+1) records around the query's sort position; exact search seeds from radius 1")
	approx := fl.Bool("approx", false, "run approximate instead of exact search")
	k := fl.Int("k", 1, "number of nearest neighbors to return")
	appendFile := fl.String("append", "", "series file to stream into the LSM index (stream command)")
	batch := fl.Int("batch", 1000, "series per Append batch (stream command)")
	repair := fl.Bool("repair", false, "after scrubbing, rebuild a damaged index from the raw dataset (scrub command)")
	timeout := fl.Duration("timeout", 30*time.Second, "per-query deadline (query command) / default per-request deadline when the client sends no timeout_ms (serve command)")
	addr := fl.String("addr", ":7737", "listen address (serve command)")
	indexes := fl.String("indexes", "", "comma-separated names of persisted indexes to serve instead of -name (serve command)")
	demo := fl.Bool("demo", false, "serve a freshly built in-memory demo index named \"demo\" (serve command)")
	demoCount := fl.Int("demo-count", 2000, "demo dataset size in series (serve command)")
	demoLen := fl.Int("demo-len", 64, "demo series length (serve command)")
	defaults := server.Options{}.WithDefaults()
	maxTimeout := fl.Duration("max-timeout", defaults.MaxTimeout, "upper bound on client-requested timeouts (serve command)")
	maxQueries := fl.Int("max-queries", defaults.MaxInFlightQueries, "in-flight query bound; excess requests are shed with 429 (serve command)")
	maxAppends := fl.Int("max-appends", defaults.MaxInFlightAppends, "in-flight append bound; excess requests are shed with 429 (serve command)")
	drainTimeout := fl.Duration("drain-timeout", defaults.DrainTimeout, "graceful-shutdown budget before in-flight requests are force-cancelled (serve command)")
	cacheBytes := fl.Int64("cache-bytes", 0, "decoded-block cache budget in bytes for LSM runs (0 = 128MiB default)")
	if err := fl.Parse(args); err != nil {
		return nil, err
	}
	if *partitions < 1 {
		return nil, fmt.Errorf("-partitions must be at least 1, got %d", *partitions)
	}
	if *workers < 0 {
		return nil, fmt.Errorf("-workers must be at least 1, got %d (0 selects GOMAXPROCS)", *workers)
	}
	if *queryWorkers < 0 {
		return nil, fmt.Errorf("-query-workers must be at least 1, got %d (0 selects GOMAXPROCS)", *queryWorkers)
	}
	if *timeout <= 0 {
		return nil, fmt.Errorf("-timeout must be positive, got %v", *timeout)
	}
	if *maxTimeout <= 0 {
		return nil, fmt.Errorf("-max-timeout must be positive, got %v", *maxTimeout)
	}
	if *drainTimeout <= 0 {
		return nil, fmt.Errorf("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	if *maxQueries < 1 {
		return nil, fmt.Errorf("-max-queries must be at least 1, got %d", *maxQueries)
	}
	if *maxAppends < 1 {
		return nil, fmt.Errorf("-max-appends must be at least 1, got %d", *maxAppends)
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
			Storage:         fs,
			Name:            *name,
			DataFile:        *data,
			SeriesLen:       *length,
			Segments:        *segments,
			CardinalityBits: *cardBits,
			Materialized:    *mat,
			MemoryBudget:    *mem,
			Workers:         *workers,
			QueryWorkers:    *queryWorkers,
			Partitions:      *partitions,
			CacheBytes:      *cacheBytes,
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
		indexes:    splitNames(*indexes),
		demo:       *demo,
		demoCount:  *demoCount,
		demoLen:    *demoLen,
		lifecycle: server.Options{
			DefaultTimeout:     *timeout,
			MaxTimeout:         *maxTimeout,
			MaxInFlightQueries: *maxQueries,
			MaxInFlightAppends: *maxAppends,
			DrainTimeout:       *drainTimeout,
		},
	}, nil
}

// splitNames splits a comma-separated list, dropping empty names.
func splitNames(list string) []string {
	var names []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// openConfig is the configuration for reopening the persisted index: the
// summarization, materialization and partition layout are
// left unset, to be adopted from the manifest, so query/info/stream/serve
// need only -dir and -name (a -data that names another dataset than the
// stored one still fails loudly).
func (cfg *config) openConfig() coconut.Config {
	oc := cfg.build
	oc.SeriesLen, oc.Segments, oc.CardinalityBits = 0, 0, 0
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

func runBuild(cfg *config) error {
	if cfg.build.DataFile == "" {
		return errors.New("-data is required for build")
	}
	start := time.Now()
	part := ""
	if cfg.build.Partitions > 1 {
		part = fmt.Sprintf(" in %d partitions", cfg.build.Partitions)
	}
	ix, err := coconut.Build(context.Background(), cfg.build, coconut.Variant(cfg.variant))
	if err != nil {
		return err
	}
	fmt.Printf("built %s %q%s: %d series%s, %s on disk, in %v\n",
		titles[ix.Variant()], cfg.build.Name, part, ix.Count(), shape(ix),
		byteSize(ix.SizeBytes()), time.Since(start).Round(time.Millisecond))
	return ix.Close()
}

// titles are the paper's names of the variants.
var titles = map[coconut.Variant]string{coconut.Tree: "Coconut-Tree", coconut.LSM: "Coconut-LSM"}

// shape describes what the index is made of: an LSM's runs, or a tree's
// leaves, the 4 KiB checksum blocks of its run.
func shape(ix *coconut.Index) string {
	if n := ix.NumRuns(); n > 0 {
		return fmt.Sprintf(" across %d runs", n)
	}
	return fmt.Sprintf(", %d leaf blocks (%.0f%% full)", ix.NumLeaves(), ix.LeafFill()*100)
}

// runScrub verifies every block of every artifact the index's manifest
// references, printing one line per file. With -repair it rebuilds the
// index from the (verified) raw dataset, then re-scrubs. Exits non-zero if
// the final report still holds corruption.
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
	// Each layout section the manifest holds is described: a tree's leaves
	// through the open index, an LSM's runs and a partitioned index's
	// children from the manifests.
	if m.Tree != nil {
		ix, err := coconut.Open(context.Background(), cfg.openConfig())
		if err != nil {
			return err
		}
		defer ix.Close()
		fmt.Printf("  leaves:    %d\n  leaf fill: %.0f%%\n  size:      %s\n",
			ix.NumLeaves(), ix.LeafFill()*100, byteSize(ix.SizeBytes()))
	}
	if m.LSM != nil {
		fmt.Printf("  runs:      %d\n", len(m.LSM.Runs))
		for _, r := range m.LSM.Runs {
			tier := fmt.Sprintf("%d", r.Tier)
			if r.Tier == manifest.BulkTier {
				tier = "bulk"
			}
			fmt.Printf("    %-24s tier=%-4s %d records\n", r.Name, tier, r.Count)
		}
	}
	if m.Part != nil {
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
	// Open detects the stored variant (a partitioned index opens as its
	// child variant).
	ix, err := coconut.Open(context.Background(), cfg.openConfig())
	if err != nil {
		return err
	}
	defer ix.Close()

	qf, err := cfg.build.Storage.Open(cfg.queries)
	if err != nil {
		return err
	}
	defer qf.Close()
	r := series.NewReader(storage.NewSequentialReader(qf, 0, -1, 0), ix.SeriesLen())
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
			ns, err := ix.SearchKNNCtx(ctx, q, cfg.k)
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
			res, err = ix.SearchApproxCtx(ctx, q, cfg.radius)
		} else {
			res, err = ix.SearchCtx(ctx, q)
		}
		cancel()
		if err != nil {
			return err
		}
		fmt.Printf("query %d (%s): nearest=#%d dist=%.4f visited=%d series, window over %d leaves, %v\n",
			qnum, mode, res.Position, res.Distance, res.VisitedSeries, res.VisitedLeaves,
			time.Since(start).Round(time.Microsecond))
		qnum++
	}
	return nil
}

// runStream streams the series of -append into a Coconut-LSM index batch
// by batch, reporting per-Insert latency percentiles (full tiers compact
// inside the Insert that filled them). A persisted index (manifest
// present) is reopened and continues its deterministic flush/compaction
// sequence — a stored index of another variant is refused with
// ErrConfigMismatch; otherwise the index is first bulk-loaded over -data.
func runStream(cfg *config) error {
	if cfg.appendFile == "" {
		return errors.New("-append is required for stream")
	}
	start := time.Now()
	var (
		ix  *coconut.Index
		err error
	)
	if cfg.build.Storage.Exists(manifest.FileName(cfg.build.Name)) {
		if ix, err = coconut.Open(context.Background(), cfg.openConfig()); err != nil {
			return err
		}
		if v := ix.Variant(); v != coconut.LSM {
			ix.Close()
			return fmt.Errorf("stream: %w: stored index is a %s index, not %s", coconut.ErrConfigMismatch, v, coconut.LSM)
		}
		fmt.Printf("reopened LSM index %q: %d series across %d runs in %v\n",
			cfg.build.Name, ix.Count(), ix.NumRuns(), time.Since(start).Round(time.Millisecond))
	} else {
		if cfg.build.DataFile == "" {
			return errors.New("-data is required to bulk-load a new stream index")
		}
		if ix, err = coconut.Build(context.Background(), cfg.build, coconut.LSM); err != nil {
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
	r := series.NewReader(storage.NewSequentialReader(af, 0, -1, 0), ix.SeriesLen())
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
	fmt.Printf("streamed %d series in %d batches in %v\n",
		appended, len(lats), total.Round(time.Millisecond))
	fmt.Printf("  append latency: p50=%v p99=%v max=%v\n",
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond),
		pct(1.0).Round(time.Microsecond))
	fmt.Printf("  index: %d series across %d runs, %s on disk\n",
		ix.Count(), ix.NumRuns(), byteSize(ix.SizeBytes()))
	return nil
}

// runServe serves the persisted indexes — -indexes, or -name when neither
// -indexes nor -demo is given — and the -demo index over HTTP/JSON,
// delegating the whole request lifecycle (deadlines, admission control,
// health and stats, graceful drain) to internal/server.
func runServe(cfg *config) error {
	names := cfg.indexes
	if len(names) == 0 && !cfg.demo {
		names = []string{cfg.build.Name}
	}
	mgr := server.NewManager()
	if cfg.demo {
		h, err := buildDemo(cfg.demoCount, cfg.demoLen, cfg.build.QueryWorkers)
		if err != nil {
			return fmt.Errorf("building demo index: %w", err)
		}
		mgr.Add(h)
		log.Printf("serving demo index: %d series of length %d", cfg.demoCount, cfg.demoLen)
	}
	for _, name := range names {
		ix, err := coconut.Open(context.Background(), coconut.Config{
			Storage:      cfg.build.Storage,
			Name:         name,
			QueryWorkers: cfg.build.QueryWorkers,
			CacheBytes:   cfg.build.CacheBytes,
		})
		if err != nil {
			return fmt.Errorf("opening index %q: %w", name, err)
		}
		h := server.NewHandle(name, ix)
		mgr.Add(h)
		log.Printf("serving index %q (%s, %d series, uuid %s)", h.Name, ix.Variant(), ix.Count(), h.UUID)
	}
	srv := server.New(mgr, cfg.lifecycle)
	log.Printf("listening on %s", cfg.addr)
	err := srv.ListenAndServe(srv.NewHTTPServer(cfg.addr), func(sig os.Signal) {
		log.Printf("received %v, draining (budget %v)", sig, cfg.lifecycle.DrainTimeout)
	})
	if err == nil {
		log.Printf("drained cleanly")
	}
	return err
}

// buildDemo builds a small in-memory Coconut-Tree over a generated
// random-walk dataset and wraps it for serving.
func buildDemo(count, seriesLen, queryWorkers int) (*server.Handle, error) {
	fs := coconut.NewMemStorage()
	if err := coconut.GenerateDataset(fs, "demo.bin", coconut.RandomWalk, count, seriesLen, 1); err != nil {
		return nil, err
	}
	ix, err := coconut.Build(context.Background(), coconut.Config{
		Storage:      fs,
		Name:         "demo",
		DataFile:     "demo.bin",
		SeriesLen:    seriesLen,
		QueryWorkers: queryWorkers,
	}, coconut.Tree)
	if err != nil {
		return nil, err
	}
	return server.NewHandle("demo", ix), nil
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
