package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestBestOf(t *testing.T) {
	got := bestOf([][]float64{{5, 2, 9}, {4, 3, 9}, {6, 1, 8}})
	if want := []float64{4, 1, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bestOf = %v, want %v", got, want)
	}
	if bestOf(nil) != nil {
		t.Fatal("bestOf(nil) must be nil")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

// The tail a sample supports is the highest percentile with at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{10: 50, 99: 50, 100: 90, 199: 90, 200: 95, 1000: 99, 2000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if tailPercentile(fullShape.ExactQ) < 90 {
		t.Error("the exact list must support the p90 the benchmark reports")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// quartileSpread must give what Python's statistics.quantiles(xs, n=4) gives,
// since that is what the acceptance check computes.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	ys := []float64{10, 12} // quantiles: 9.5, 11, 12.5
	if got, want := quartileSpread(ys), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two values = %v, want %v", got, want)
	}
}

func TestBounds(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100→110 is worse by %v", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100→90 is worse by %v", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("latency 100→90 must not count as worse, got %v", got)
	}
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.02, 0.01, 0.10, "ok"},
		{-0.30, 0.01, 0.10, "ok"},
		{0.11, 0.01, 0.10, "over"},
		{0.02, 0.15, 0.10, "unresolved"},
	} {
		if got := verdict(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %q, want %q", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the tables in spec.go must name the same things.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	f := readBenchmark(t)
	specs, _, err := workloads("full")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their reasons differ)", i, w.Name, specs[i].Name)
		}
	}
	same := func(kind string, got []benchDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d: BENCHMARK.json %v, spec.go %v", kind, i, g, w)
			}
		}
	}
	same("end-to-end", f.EndToEnd, endToEnd)
	same("per-layer", f.PerLayer, perLayer)
	for _, d := range f.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// The metrics that are counts of what the program did: the same inputs must
// give the same value, bit for bit.
var countMetrics = []string{"approx_dist_ratio", "exact_read_kb_per_query", "write_amp", "index_bytes_per_raw_byte"}

// TestSmoke runs every workload at the smoke scale, once untraced and once
// traced. Every metric BENCHMARK.json names must come out, the oracle check
// must pass, and the count metrics must repeat exactly, tracing or not.
func TestSmoke(t *testing.T) {
	f := readBenchmark(t)
	specs, sh, err := workloads("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			o := options{seed: 7, scale: "smoke", dir: t.TempDir()}
			plain, err := runWorkload(sp, sh, o)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := plain.report(o)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, plain.errs)
			}
			if len(res.Metrics) != len(f.EndToEnd) {
				t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(f.EndToEnd))
			}
			for _, d := range f.EndToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("%s = %+v (present %v): want a finite positive value in %s", d.Name, m, ok, d.Unit)
				}
			}

			// A tree or trie handle keeps a 24-byte (key, position) entry per
			// series in memory; a heap reading below that measured nothing.
			if floor := float64(sp.N) * 24 / (1 << 20); sp.Variant != "lsm" && plain.e2e["live_heap_mb"] < floor {
				t.Errorf("live_heap_mb = %v, below the %v MB the handle's key array alone takes", plain.e2e["live_heap_mb"], floor)
			}

			o = options{seed: 7, scale: "smoke", trace: 1, dir: t.TempDir(), traceDir: t.TempDir()}
			traced, err := runWorkload(sp, sh, o)
			if err != nil {
				t.Fatal(err)
			}
			res, _ = traced.report(o)
			if !res.Correct {
				t.Fatalf("traced run: %d operations failed: %v", res.Failed, traced.errs)
			}
			for _, n := range countMetrics {
				if a, b := plain.e2e[n], traced.e2e[n]; a != b {
					t.Errorf("%s differs between two runs of the same seed: %v vs %v traced", n, a, b)
				}
			}
			for _, d := range f.PerLayer {
				if m, ok := res.Metrics[d.Name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("traced run: %s = %+v (present %v)", d.Name, m, ok)
				}
			}
			if len(res.Metrics) != len(f.PerLayer) {
				t.Errorf("traced run: %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(f.PerLayer))
			}
			b, err := os.ReadFile(filepath.Join(o.traceDir, sp.Name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(b, &tr); err != nil || len(tr.Spans) == 0 {
				t.Fatalf("trace file: %d spans, %v", len(tr.Spans), err)
			}
			for _, s := range tr.Spans {
				if s.End < s.Start || s.Parent >= s.ID {
					t.Fatalf("span %+v: ends before it starts, or hangs under a later span", s)
				}
			}
		})
	}
}
