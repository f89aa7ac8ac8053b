package linalg

import "math"

// hypot returns math.Hypot(p, q) with its bits for finite p and q, in a
// form the compiler inlines. On amd64 math.Hypot is an assembly routine,
// an ABI0 call that cannot be inlined, and in a column norm it sits on
// the serial chain of every row. This performs the routine's operations
// in its order: the larger magnitude times the square root of one plus
// the squared ratio, with the multiply and the add rounded separately.
// The float64 conversion keeps the compiler from fusing them into one
// FMA, which it would do under GOAMD64=v3. The special cases of
// infinite and NaN arguments are left to the caller (see colNorm).
func hypot(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return 0
	}
	q = q / p
	return p * math.Sqrt(1+float64(q*q))
}
