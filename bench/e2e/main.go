// Command e2e is the repository's end-to-end benchmark: four fixed workloads
// over real files, every answer checked against a brute-force oracle, every
// metric printed by name with its unit. bench/README.md explains the
// workloads, the estimators and how a layer metric maps to an end-to-end one;
// BENCHMARK.json at the repository root fixes names, units and bounds.
//
//	go run ./bench/e2e -workload static_tree -seed 1 -seconds 12 -trace 0
//	go run ./bench/e2e -runs 10 -out a.json      # every workload, ten seeds
//	go run ./bench/e2e -agree a.json b.json      # two sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"github.com/coconut-db/coconut/internal/storage"
)

// watchdogAfter aborts a workload that hangs, with a named error, well
// inside the 180 s a run is allowed.
const watchdogAfter = 150 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	dir      string
	traceDir string
	runs     int
	out      string
	bench    string
	agree    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload alone and print its result as the last line; empty runs the suite")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated dataset, stream and query lists")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long the query phases of a run measure")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: spans, timing wrapper, probes and twins; prints the per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "full or smoke (tiny sizes, exactly the minimum passes; for tests)")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory the run's temporary data directory is created in")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join("bench", "out"), "where a traced run writes <workload>.trace.json")
	flag.IntVar(&o.runs, "runs", 1, "suite: runs per workload, each with the next seed")
	flag.StringVar(&o.out, "out", "", "suite: write every run's result to this file")
	flag.StringVar(&o.bench, "bench", "BENCHMARK.json", "the metric definitions and bounds -agree and the suite summary use")
	flag.BoolVar(&o.agree, "agree", false, "compare two suite result files (arguments) metric by metric against the bounds")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case o.agree:
		err = agreeFiles(o, flag.Args())
	case o.workload == "":
		err = suite(o)
	default:
		err = one(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line before it: everything that shaped the load, and the
// counters that cost nothing to read.
type detail struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    int               `json:"trace"`
	Spec     spec              `json:"spec"`
	Shape    shape             `json:"shape"`
	Knobs    map[string]any    `json:"knobs"`
	Counters map[string]metric `json:"counters,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
}

// one runs a single workload the way the acceptance driver calls it.
func one(o options) error {
	specs, sh, err := workloads(o.scale)
	if err != nil {
		return err
	}
	var sp *spec
	for i := range specs {
		if specs[i].Name == o.workload {
			sp = &specs[i]
		}
	}
	if sp == nil {
		return fmt.Errorf("unknown -workload %q", o.workload)
	}
	r, err := runWorkload(*sp, sh, o)
	if err != nil {
		return fmt.Errorf("workload %s: %w", sp.Name, err)
	}
	res, det := r.report(o)
	printMetrics(res.Metrics)
	if det.Counters != nil {
		printMetrics(det.Counters)
	}
	for _, line := range []any{det, res} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		return fmt.Errorf("workload %s: %d of %d operations failed: %v", sp.Name, res.Failed, res.Attempted, det.Errors)
	}
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	moves := map[string]string{}
	for _, d := range perLayer {
		moves[d.Name] = "-> " + d.Moves
	}
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %-6s %s\n", n, ms[n].Value, ms[n].Unit, moves[n])
	}
}

// report turns the measured maps into the two output lines. An untraced run
// reports exactly the end-to-end metrics, a traced one exactly the per-layer
// ones (0 where the workload does not exercise the layer).
func (r *run) report(o options) (result, detail) {
	res := result{
		Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: map[string]metric{},
	}
	res.Correct = res.Failed == 0
	det := detail{
		Workload: r.sp.Name, Seed: r.seed, Seconds: o.seconds, Trace: o.trace,
		Spec: r.sp, Shape: r.sh, Knobs: r.knobs, Errors: r.errs,
	}
	if r.traced {
		for _, d := range perLayer {
			res.Metrics[d.Name] = metric{r.layer[d.Name], d.Unit}
		}
		return res, det
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{r.e2e[d.Name], d.Unit}
	}
	det.Counters = map[string]metric{}
	for _, d := range perLayer {
		if v, ok := r.layer[d.Name]; ok {
			det.Counters[d.Name] = metric{v, d.Unit}
		}
	}
	return res, det
}

// runWorkload owns the run's directory: created under o.dir, checked for
// space, removed on every way out, including a signal and the watchdog.
func runWorkload(sp spec, sh shape, o options) (*run, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dir, "e2e-"+sp.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// The trie's sparse leaves take 3.3x the raw bytes, and the traced run
	// builds a second one; the rest is the raw file, sort temporaries, probes.
	need := uint64(sp.N)*recBytes*8 + 128<<20
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil && st.Bavail*uint64(st.Bsize) < need {
		return nil, fmt.Errorf("%s has %d MB free, the workload needs about %d MB: point -dir at a larger disk",
			o.dir, st.Bavail*uint64(st.Bsize)>>20, need>>20)
	}
	osf, err := storage.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	r := &run{
		sp: sp, sh: sh, seed: o.seed, traced: o.trace != 0,
		budget: time.Duration(o.seconds * float64(time.Second)),
		dir:    dir, fs: osf, osf: osf,
		knobs: map[string]any{
			"gomaxprocs": procs, "workers": buildWorkers, "query_workers": queryWorkers,
			"series_len": seriesLen, "mixed_clients": mixedClients, "approx_per_exact": mixedApprox,
			"approx_radius": approxRadius, "compaction": "sync", "wal": "default (on)",
			"checksums": "default (on)", "compression": "default (on)",
		},
	}
	if r.traced {
		r.rec, r.io = newRecorder(), &ioTimes{}
		r.fs = &timedFS{FS: osf, rec: r.rec, times: r.io}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan error, 1)
	go func() {
		// A panic is a bug, but it must not leave the data directory behind.
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		done <- r.execute()
	}()
	select {
	case err = <-done:
	case s := <-sig:
		os.RemoveAll(dir)
		return nil, fmt.Errorf("interrupted by %v", s)
	case <-time.After(watchdogAfter):
		// The stuck goroutine cannot be stopped; the caller exits the process.
		os.RemoveAll(dir)
		return nil, fmt.Errorf("watchdog: still running after %v", watchdogAfter)
	}
	if err != nil {
		return nil, fmt.Errorf("%w (first failed operations: %v)", err, r.errs)
	}
	if r.traced {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := r.rec.write(filepath.Join(o.traceDir, sp.Name+".trace.json"), sp.Name); err != nil {
			return nil, err
		}
	}
	return r, nil
}
