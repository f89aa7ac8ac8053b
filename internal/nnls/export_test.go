package nnls

import (
	"dvfsroofline/internal/linalg"
	"dvfsroofline/internal/units"
)

// ReferenceSolve and Mismatch give the external tests the reference
// solver and its comparison.
func ReferenceSolve(a *linalg.Matrix, rhs []units.Joule, tol float64) (*Result, error) {
	res, _, err := referenceSolve(a, rhs, tol)
	return res, err
}

var Mismatch = mismatch
