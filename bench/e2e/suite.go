package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runRecord is one run of one workload, as the suite files keep it.
type runRecord struct {
	detail
	result
}

// suiteFile is what -out writes and -agree reads: every run made, and the
// machine they were made on.
type suiteFile struct {
	Env   map[string]string `json:"env"`
	Scale string            `json:"scale"`
	Runs  []runRecord       `json:"runs"`
}

func environment() map[string]string {
	env := map[string]string{
		"nproc": fmt.Sprint(runtime.NumCPU()), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "gomaxprocs": fmt.Sprint(procs),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	return env
}

// suite runs every workload o.runs times, each run a fresh process started
// exactly as the acceptance driver starts it, so that what is summarised
// here is what the driver will see.
func suite(o options) error {
	specs, _, err := workloads(o.scale)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := suiteFile{Env: environment(), Scale: o.scale}
	traces := []int{0}
	if o.trace != 0 {
		traces = append(traces, 1)
	}
	for _, sp := range specs {
		for i := 0; i < o.runs; i++ {
			for _, tr := range traces {
				if tr == 1 && i > 0 {
					continue // one traced run per workload gives the per-layer numbers
				}
				seed := o.seed + int64(i)
				fmt.Fprintf(os.Stderr, "e2e: %s seed %d trace %d\n", sp.Name, seed, tr)
				cmd := exec.Command(self, "-workload", sp.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(tr),
					"-scale", o.scale, "-dir", o.dir, "-trace-dir", o.traceDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output() // waits for the child to end
				rec, perr := parseRun(out)
				if perr != nil {
					return fmt.Errorf("%s seed %d: %v (process: %v)", sp.Name, seed, perr, err)
				}
				file.Runs = append(file.Runs, rec)
				if err != nil {
					return fmt.Errorf("%s seed %d: %v", sp.Name, seed, err)
				}
			}
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	defs, err := loadBenchmark(o.bench)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-26s %14s %-6s %8s %8s  %s\n", "workload", "metric", "median", "unit", "spread", "bound", "")
	for _, row := range summarise(file, defs) {
		note := ""
		if row.spread > row.bound/3 && row.name != "setup_s" {
			note = "spread above a third of the bound"
		}
		fmt.Printf("%-24s %-26s %14.6g %-6s %7.2f%% %7.2f%%  %s\n", row.workload, row.name, row.median, row.unit, 100*row.spread, 100*row.bound, note)
	}
	return nil
}

// parseRun reads the last two lines a single-workload run printed.
func parseRun(out []byte) (runRecord, error) {
	var rec runRecord
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return rec, fmt.Errorf("no result line in %q", out)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &rec.detail); err != nil {
		return rec, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	return rec, nil
}

// benchDef is one end-to-end metric of BENCHMARK.json.
type benchDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchDef `json:"end_to_end"`
	PerLayer []benchDef `json:"per_layer"`
}

func loadBenchmark(path string) ([]benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the bounds: %w (run from the repository root or pass -bench)", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.EndToEnd, nil
}

// summaryRow is one workload × end-to-end metric over a file's untraced runs.
type summaryRow struct {
	workload, name, unit, better string
	median, spread, bound        float64
	n                            int
}

func summarise(f suiteFile, defs []benchDef) []summaryRow {
	var order []string
	vals := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for n, m := range r.Metrics {
			vals[r.Workload][n] = append(vals[r.Workload][n], m.Value)
		}
	}
	var rows []summaryRow
	for _, w := range order {
		for _, d := range defs {
			xs := vals[w][d.Name]
			rows = append(rows, summaryRow{w, d.Name, d.Unit, d.Better, median(xs), quartileSpread(xs), d.Bound, len(xs)})
		}
	}
	return rows
}

// agreeFiles is the repeatability check: two sets of runs of the same code
// must agree within the benchmark's own bounds. One row per workload ×
// metric; the ratio's base is always file a.
func agreeFiles(o options, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-agree takes two result files, got %d arguments", len(args))
	}
	defs, err := loadBenchmark(o.bench)
	if err != nil {
		return err
	}
	var sets [2][]summaryRow
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var f suiteFile
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sets[i] = summarise(f, defs)
	}
	if len(sets[0]) != len(sets[1]) {
		return fmt.Errorf("%s and %s cover different workloads", args[0], args[1])
	}
	fmt.Printf("%-24s %-26s %14s %14s %-6s %10s %8s  %s\n", "workload", "metric", "a", "b", "unit", "b worse by", "bound", "verdict")
	over := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		worse := worseBy(a.median, b.median, a.better)
		v := verdict(worse, max(a.spread, b.spread), a.bound)
		if v == "over" {
			over++
		}
		fmt.Printf("%-24s %-26s %14.6g %14.6g %-6s %9.2f%% %7.2f%%  %s\n", a.workload, a.name, a.median, b.median, a.unit, 100*worse, 100*a.bound, v)
	}
	if over > 0 {
		return fmt.Errorf("%d metrics differ by more than their bound", over)
	}
	return nil
}

// verdict applies the bound: a difference the run-to-run spread could hide is
// unresolved, not ok.
func verdict(worse, spread, bound float64) string {
	switch {
	case worse > bound:
		return "over"
	case spread > bound:
		return "unresolved"
	}
	return "ok"
}
