package main

import (
	"math"
	"sort"
)

// bestOf folds R passes over one query list into one latency per query: the
// minimum a query reached in any pass. Machine noise only ever adds time, so
// the minimum is the estimate that repeats; what is left is the cost of the
// query itself.
func bestOf(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	best := append([]float64(nil), passes[0]...)
	for _, p := range passes[1:] {
		for i, v := range p {
			if v < best[i] {
				best[i] = v
			}
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
// xs is not modified; an empty xs yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile returns the highest of the usual percentiles that still
// leaves at least ten of n samples beyond it — the only tail a sample of that
// size supports. Below 20 samples nothing but the median qualifies.
func tailPercentile(n int) float64 {
	tail := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if rank := int(math.Ceil(p/100*float64(n) - 1e-9)); n-rank >= 10 { // rank as percentile() picks it
			tail = p
		}
	}
	return tail
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), because that is
// how the acceptance check measures run-to-run spread. It needs two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // outside [0,4] at the clamped ends: extrapolates, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// worseBy is how much worse b is than a, as a share of a, in the metric's own
// direction: positive means b regressed. Every ratio this program prints has
// a as its base.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
