package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestHypotMatchesMath checks that the inlined hypot returns math.Hypot's
// bits on finite arguments: zeros of both signs, subnormals, equal and
// opposite arguments, MaxFloat64 (whose hypot overflows), and random
// finite bit patterns.
func TestHypotMatchesMath(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	cases := [][2]float64{
		{0, 0}, {math.Copysign(0, -1), 0}, {0, math.Copysign(0, -1)}, {0, 3}, {-3, 0},
		{tiny, 0}, {tiny, tiny}, {tiny, 1}, {1, tiny}, {2.2250738585072014e-308, 1e-310}, {1e-310, -3e-320},
		{1.5, 1.5}, {-7e100, 7e100}, {1e-300, 1e-300}, {3, 4}, {4, 3},
		{math.MaxFloat64, 0}, {math.MaxFloat64, 1}, {math.MaxFloat64, math.MaxFloat64}, {-math.MaxFloat64, math.MaxFloat64 / 2},
		{1e308, 1e308}, {1, 1e-17}, {1e200, 1e-200},
	}
	rng := rand.New(rand.NewSource(11))
	for len(cases) < 200000 {
		p, q := math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		if rng.Intn(2) == 0 {
			// Nearby exponents, where the ratio's square matters.
			q = p * (0.5 + rng.Float64())
		}
		if math.IsInf(p, 0) || math.IsNaN(p) || math.IsInf(q, 0) || math.IsNaN(q) {
			continue
		}
		cases = append(cases, [2]float64{p, q})
	}
	for _, c := range cases {
		got, want := hypot(c[0], c[1]), math.Hypot(c[0], c[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("hypot(%v, %v) = %v (%#016x), math.Hypot %v (%#016x)",
				c[0], c[1], got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestColNormMatchesHypotChain checks colNorm against the math.Hypot
// chain it replaces, on columns with infinite and NaN entries in every
// position, all-zero columns and columns whose norm overflows.
func TestColNormMatchesHypotChain(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cols := [][]float64{
		nil, {0}, {0, 0, 0}, {3, 4}, {-1, 2, -3, 4},
		{math.MaxFloat64, math.MaxFloat64, 1}, {math.MaxFloat64, math.MaxFloat64, inf},
		{math.MaxFloat64, math.MaxFloat64, nan},
	}
	for _, bad := range []float64{inf, -inf, nan} {
		for pos := 0; pos < 4; pos++ {
			for _, fill := range []float64{0, 1, inf} {
				col := []float64{fill, 2, 0, -5}
				col[pos] = bad
				cols = append(cols, col)
			}
		}
	}
	cols = append(cols, []float64{0, nan, 0}, []float64{nan, inf}, []float64{inf, nan, inf}, []float64{0, 0, nan})
	for _, col := range cols {
		var want float64
		for _, v := range col {
			want = math.Hypot(want, v)
		}
		if got := colNorm(col); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("colNorm(%v) = %v (%#016x), hypot chain %v (%#016x)", col, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
