// Command coconutd serves persisted Coconut indexes over HTTP/JSON with
// request-lifecycle robustness built in: every request runs under a
// deadline (the server default, or the client's timeout_ms capped at the
// server maximum), admission control bounds in-flight queries and appends
// (excess load is shed with 429 + Retry-After instead of queueing), and
// SIGINT/SIGTERM triggers a graceful drain — stop accepting, let in-flight
// requests finish under the drain deadline, force-cancel stragglers, then
// Sync+Close every index so the on-disk state reopens clean.
//
// Serve two persisted indexes from a data directory:
//
//	coconutd -dir ./data -indexes myidx,mylsm -addr :7737
//
// Endpoints:
//
//	GET  /healthz   liveness (503 while draining)
//	GET  /stats     counters: in-flight, shed, deadline-exceeded, per-index info
//	GET  /indexes   the served indexes with their generation UUIDs
//	POST /query     {"index":"myidx","series":[...],"mode":"exact|approx|knn",
//	                 "k":5,"radius":1,"timeout_ms":100,"znormalize":true}
//	POST /append    {"index":"mylsm","series":[[...],...]}
//
// -demo serves a freshly built in-memory index named "demo" (for smoke
// tests and experimentation; nothing touches disk).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	coconut "github.com/coconut-db/coconut"
	"github.com/coconut-db/coconut/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("coconutd", flag.ContinueOnError)
	addr := fl.String("addr", ":7737", "listen address")
	dir := fl.String("dir", ".", "directory holding the persisted indexes")
	indexes := fl.String("indexes", "", "comma-separated names of persisted indexes to serve")
	queryWorkers := fl.Int("query-workers", 0, "per-query fan-out (0 = GOMAXPROCS; 1 maximizes throughput under load)")
	requestTimeout := fl.Duration("request-timeout", server.Options{}.WithDefaults().DefaultTimeout,
		"default per-request deadline when the client sends no timeout_ms")
	maxTimeout := fl.Duration("max-timeout", server.Options{}.WithDefaults().MaxTimeout,
		"upper bound on client-requested timeouts")
	maxQueries := fl.Int("max-queries", server.Options{}.WithDefaults().MaxInFlightQueries,
		"in-flight query bound; excess requests are shed with 429")
	maxAppends := fl.Int("max-appends", server.Options{}.WithDefaults().MaxInFlightAppends,
		"in-flight append bound; excess requests are shed with 429")
	drainTimeout := fl.Duration("drain-timeout", server.Options{}.WithDefaults().DrainTimeout,
		"graceful-shutdown budget before in-flight requests are force-cancelled")
	demo := fl.Bool("demo", false, "serve a freshly built in-memory demo index named \"demo\"")
	demoCount := fl.Int("demo-count", 2000, "demo dataset size in series")
	demoLen := fl.Int("demo-len", 64, "demo series length")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *requestTimeout <= 0 {
		return fmt.Errorf("-request-timeout must be positive, got %v", *requestTimeout)
	}
	if *maxTimeout <= 0 {
		return fmt.Errorf("-max-timeout must be positive, got %v", *maxTimeout)
	}
	if *drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	if *maxQueries < 1 {
		return fmt.Errorf("-max-queries must be at least 1, got %d", *maxQueries)
	}
	if *maxAppends < 1 {
		return fmt.Errorf("-max-appends must be at least 1, got %d", *maxAppends)
	}
	if !*demo && *indexes == "" {
		return errors.New("nothing to serve: pass -indexes or -demo")
	}

	mgr := server.NewManager()
	if *demo {
		h, err := buildDemo(*demoCount, *demoLen, *queryWorkers)
		if err != nil {
			return fmt.Errorf("building demo index: %w", err)
		}
		mgr.Add(h)
		log.Printf("serving demo index: %d series of length %d", *demoCount, *demoLen)
	}
	if *indexes != "" {
		fs, err := coconut.NewDiskStorage(*dir)
		if err != nil {
			return err
		}
		for _, name := range strings.Split(*indexes, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			ix, err := coconut.Open(context.Background(), coconut.Config{
				Storage:      fs,
				Name:         name,
				QueryWorkers: *queryWorkers,
			})
			if err != nil {
				return fmt.Errorf("opening index %q: %w", name, err)
			}
			h := server.NewHandle(name, ix)
			mgr.Add(h)
			log.Printf("serving index %q (%s, %d series, uuid %s)", h.Name, ix.Variant(), ix.Count(), h.UUID)
		}
	}

	srv := server.New(mgr, server.Options{
		DefaultTimeout:     *requestTimeout,
		MaxTimeout:         *maxTimeout,
		MaxInFlightQueries: *maxQueries,
		MaxInFlightAppends: *maxAppends,
		DrainTimeout:       *drainTimeout,
	})
	log.Printf("listening on %s", *addr)
	err := srv.ListenAndServe(srv.NewHTTPServer(*addr), func(sig os.Signal) {
		log.Printf("received %v, draining (budget %v)", sig, *drainTimeout)
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
