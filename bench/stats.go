package bench

import (
	"fmt"
	"sort"
)

// NearestRank returns the pct-th percentile of sorted (ascending) by the
// nearest-rank rule: the smallest sample with at least pct percent of
// the samples at or below it. Integer arithmetic keeps the rank exact
// (a float 0.99*100 rounds up to rank 100).
func NearestRank(sorted []float64, pct int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads computed here and by a Python reader
// of the same runs agree. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("bench: quartiles need at least 2 values, have %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j to 1..n-1 and keeps the (then possibly
		// out-of-range) delta, extrapolating for very short inputs.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// median returns the middle of xs (the mean of the middle pair for an
// even count); zero for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
