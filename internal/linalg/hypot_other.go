//go:build !amd64

package linalg

import "math"

// hypot is math.Hypot. Off amd64 math.Hypot is already Go code the
// compiler may inline, and calling it keeps whatever contraction the
// platform applies to it.
func hypot(p, q float64) float64 { return math.Hypot(p, q) }
