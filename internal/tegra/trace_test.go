package tegra

import (
	"math"
	"testing"
)

// checkFold fails t unless fold(x, p) has math.Mod(x, p)'s exact bits.
func checkFold(t *testing.T, x, p float64) {
	got, want := fold(x, p), math.Mod(x, p)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fold(%v, %v) = %v (%#016x), math.Mod gives %v (%#016x)",
			x, p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFoldMatchesMod holds the repeat fold to math.Mod bit for bit: on
// the meter's 1024 Hz sample grid over four seconds for 10^4
// log-spaced periods from 1 ns to 1000 s, at exact multiples of the
// period and one ulp either side of them, below one period, and on
// every input that takes the math.Mod fallback. Under -short or the
// race detector it takes every 16th period.
func TestFoldMatchesMod(t *testing.T) {
	const periods = 10000
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 16
	}
	lo, hi := math.Log(1e-9), math.Log(1e3)
	for k := 0; k < periods; k += stride {
		p := math.Exp(lo + (hi-lo)*float64(k)/(periods-1))
		for i := 0; i < 4096; i++ {
			checkFold(t, float64(i)*0x1p-10, p)
		}
		for _, m := range []float64{1, 2, 3, 7, 16, 1000, 1 << 20, 1<<52 - 1} {
			x := m * p
			checkFold(t, x, p)
			checkFold(t, math.Nextafter(x, 0), p)
			checkFold(t, math.Nextafter(x, math.Inf(1)), p)
		}
		checkFold(t, p/3, p)
		checkFold(t, math.Nextafter(p, 0), p)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range [][2]float64{
		{0, 1}, {math.Copysign(0, -1), 1}, {-0.75, 0.5}, {-3, 1e-3},
		{1, 0}, {1, -0.3}, {-1, -0.3}, {0.7, math.Copysign(0, -1)},
		{inf, 1}, {-inf, 1}, {1, inf}, {1, -inf}, {inf, inf},
		{nan, 1}, {1, nan}, {nan, nan},
		{0x1p52, 1}, {0x1p60, 3}, {math.MaxFloat64, 1e-300},
		{1, math.SmallestNonzeroFloat64}, {1e-310, 3e-320}, {5e-324, 5e-324},
		{math.MaxFloat64, math.MaxFloat64}, {math.MaxFloat64, 0.5},
	} {
		checkFold(t, c[0], c[1])
	}
}

// FuzzPeriodFold holds the repeat fold to math.Mod bit for bit on any
// pair of float64 inputs.
func FuzzPeriodFold(f *testing.F) {
	f.Add(0.0146484375, 0.0031415)
	f.Add(0.5, 0.5)
	f.Add(1e300, 1e-300)
	f.Add(-2.5, 1.0)
	f.Add(0.0, 0.0)
	f.Fuzz(func(t *testing.T, x, p float64) {
		checkFold(t, x, p)
	})
}
