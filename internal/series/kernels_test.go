package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// scalarSquaredED is the pre-blocking reference implementation: one element
// at a time, one accumulator. The blocked kernels must be bit-identical.
func scalarSquaredED(a, b Series) float64 {
	acc := 0.0
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc
}

// scalarSquaredEDEarlyAbandon is the pre-blocking reference: check after
// every element.
func scalarSquaredEDEarlyAbandon(a, b Series, limit float64) (float64, bool) {
	acc := 0.0
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
		if acc > limit {
			return acc, false
		}
	}
	return acc, true
}

// TestBlockedEDMatchesScalar fuzzes the blocked kernels against the scalar
// references across lengths (covering empty, sub-block, and ragged tails)
// and abandon limits. The full sum must be BIT-identical (same accumulator,
// same order), and the abandon flag must agree exactly — monotone partial
// sums make block-boundary checks equivalent to per-element checks.
func TestBlockedEDMatchesScalar(t *testing.T) {
	f := func(seed int64, nRaw uint16, limitScale float64) bool {
		n := int(nRaw % 300) // 0..299: exercises all tail residues
		rng := rand.New(rand.NewSource(seed))
		a := make(Series, n)
		b := make(Series, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		want := scalarSquaredED(a, b)
		got, err := SquaredED(a, b)
		if err != nil || got != want {
			return false
		}
		if AddSquaredED(0, a, b) != want {
			return false
		}
		// Accumulating on top of a prior partial must also match the scalar
		// extension of that partial.
		prior := math.Abs(rng.NormFloat64())
		accScalar := prior
		for i := range a {
			d := a[i] - b[i]
			accScalar += d * d
		}
		if AddSquaredED(prior, a, b) != accScalar {
			return false
		}
		// Abandon flag equivalence at limits below, at, and above the sum.
		limits := []float64{
			0,
			want * math.Abs(limitScale-math.Trunc(limitScale)), // somewhere inside
			want, // exactly the sum: must complete (strict > abandons)
			want * 1.5,
			math.Inf(1),
		}
		for _, limit := range limits {
			gotSum, gotOK := SquaredEDEarlyAbandon(a, b, limit)
			_, wantOK := scalarSquaredEDEarlyAbandon(a, b, limit)
			if gotOK != wantOK {
				return false
			}
			// Completed computations return the exact scalar sum.
			if gotOK && gotSum != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyAbandonLengthMismatchPanics pins the contract change: the
// early-abandon kernel no longer truncates to the shorter series — a length
// mismatch is a programming error and panics, consistent with SquaredED's
// refusal (which reports ErrLengthMismatch).
func TestEarlyAbandonLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	SquaredEDEarlyAbandon(Series{1, 2, 3}, Series{1, 2}, math.Inf(1))
}

// TestAddSquaredEDLengthMismatchPanics pins the same contract for the
// accumulator kernel.
func TestAddSquaredEDLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	AddSquaredED(0, []float64{1, 2, 3}, []float64{1})
}

// checkEncodedKernel holds SquaredEDEarlyAbandonEncoded to its contract on
// one input: the flag DecodeInto + SquaredEDEarlyAbandon returns, and when
// the sum completes the same bits (any NaN for a NaN: which payload survives
// an addition of two is the compiler's operand order, not the kernel's).
func checkEncodedKernel(t *testing.T, q Series, enc []byte, limit float64) {
	t.Helper()
	x := make(Series, len(q))
	DecodeInto(enc, x)
	want, wantOK := SquaredEDEarlyAbandon(q, x, limit)
	got, gotOK := SquaredEDEarlyAbandonEncoded(q, enc, limit)
	if gotOK != wantOK {
		t.Fatalf("len %d limit %v: flag %v, decoded kernel %v", len(q), limit, gotOK, wantOK)
	}
	if gotOK && math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("len %d limit %v: sum %x, decoded kernel %x", len(q), limit, math.Float64bits(got), math.Float64bits(want))
	}
}

// encodedKernelLimits are the abandon limits worth checking for (q, enc):
// the extremes, the exact sum (a tie completes) and its two neighbours.
func encodedKernelLimits(q Series, enc []byte) []float64 {
	x := make(Series, len(q))
	DecodeInto(enc, x)
	sum := scalarSquaredED(q, x)
	return []float64{0, math.Inf(1), sum, math.Nextafter(sum, 0), math.Nextafter(sum, math.Inf(1)), sum / 3, math.NaN()}
}

func TestSquaredEDEncodedMatchesDecoded(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nan := math.Float64frombits(0x7ff8dead0000beef)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256} {
		q, x := make(Series, n), make(Series, n)
		for i := range q {
			q[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		variants := []Series{x, q.Clone()} // q itself: distance 0 ties limit 0
		for _, at := range []int{0, n / 2, n - 1} {
			if at >= 0 && at < n {
				v := x.Clone()
				v[at] = nan
				variants = append(variants, v)
			}
		}
		for _, v := range variants {
			enc := AppendEncode(nil, v)
			for _, limit := range encodedKernelLimits(q, enc) {
				checkEncodedKernel(t, q, enc, limit)
			}
		}
	}
}

func TestSquaredEDEncodedLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	SquaredEDEarlyAbandonEncoded(Series{1, 2}, make([]byte, 3*PointSize), math.Inf(1))
}

// FuzzSquaredEDEncoded splits arbitrary bytes into a query and an encoded
// series (so every bit pattern — NaN payloads, infinities, denormals —
// reaches both sides) and checks the encoded kernel against the decoded one
// at the fuzzed limit and at the derived ones.
func FuzzSquaredEDEncoded(f *testing.F) {
	f.Add([]byte{}, 0.0)
	f.Add(AppendEncode(nil, Series{1, 2, 3, 4, 5, 1, 2, 3, 4, 6}), 1.0)
	f.Add(AppendEncode(nil, Series{0, math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 5e-324, 1, 2}), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, limit float64) {
		n := len(data) / (2 * PointSize)
		q := make(Series, n)
		DecodeInto(data, q)
		enc := data[n*PointSize : 2*n*PointSize]
		checkEncodedKernel(t, q, enc, limit)
		for _, l := range encodedKernelLimits(q, enc) {
			checkEncodedKernel(t, q, enc, l)
		}
	})
}
