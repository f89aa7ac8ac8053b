// Package nnls implements the Lawson–Hanson active-set algorithm for
// non-negative least squares: given A (m-by-n) and b, find x >= 0
// minimizing ||A*x - b||_2.
//
// The paper instantiates its DVFS-aware energy roofline (Eq. 9) by NNLS
// rather than ordinary least squares because every fitted constant is a
// physical quantity — a switched capacitance or a leakage coefficient —
// that cannot be negative; under measurement noise an unconstrained fit
// can and does produce negative energy costs (see BenchmarkNNLSvsLS in
// the repository root for the ablation).
package nnls

import (
	"errors"
	"math"

	"dvfsroofline/internal/linalg"
	"dvfsroofline/internal/units"
)

// ErrMaxIterations is returned when the active-set loop fails to converge.
// With exact arithmetic Lawson–Hanson terminates finitely; hitting this
// limit indicates a pathologically conditioned problem.
var ErrMaxIterations = errors.New("nnls: exceeded maximum iterations")

// Result reports the solution and diagnostics of an NNLS solve. X stays
// raw float64 because its entries are dimensionally heterogeneous — for
// the Eq. 9 fit they mix pJ/op/V², W/V and W coefficients — and acquire
// their unit types only when core.Fit unpacks them into a Model.
type Result struct {
	X          []float64   // solution, all entries >= 0
	Residual   units.Joule // ||A*x - b||_2
	Iterations int         // outer-loop iterations used
	Passive    []bool      // Passive[j] reports whether x[j] is unconstrained (in the passive set)
}

// Solve runs Lawson–Hanson NNLS on measured energies: given the design
// matrix A and the observed right-hand side, find x >= 0 minimizing
// ||A*x - rhs||_2. The tolerance for the dual feasibility test is scaled
// from the data; passing tol <= 0 selects it automatically.
//
//energylint:hotpath
func Solve(a *linalg.Matrix, rhs []units.Joule, tol float64) (*Result, error) {
	m, n := a.Rows, a.Cols
	if len(rhs) != m {
		panic("nnls: right-hand side length mismatch")
	}
	b := make([]float64, len(rhs))
	for i, v := range rhs {
		b[i] = float64(v)
	}
	w := make([]float64, n) // dual vector Aᵀr, reused each iteration
	if tol <= 0 {
		// Standard choice: a small multiple of machine epsilon scaled by
		// the problem size and the magnitude of Aᵀb.
		dual(w, a, b)
		tol = 10 * 2.220446049250313e-16 * float64(m*n) * maxAbs(w)
		if tol == 0 {
			tol = 1e-12
		}
	}

	x := make([]float64, n)
	passive := make([]bool, n)
	// banned marks variables that were admitted and then dropped again
	// without the iterate moving — a numerically dependent column, or a
	// zero-length step that clamped the variable straight back out. Since
	// x (and therefore the dual vector) is unchanged, the dual test would
	// re-select such a variable immediately and livelock until
	// ErrMaxIterations. Banning it until x actually changes (when the
	// duals are recomputed on new data) is the Lawson–Hanson degeneracy
	// guard; bans are cleared on every real step.
	banned := make([]bool, n)
	resid := append([]float64(nil), b...) // b - A*x, x = 0 initially
	ax := make([]float64, m)              // A*x scratch, reused each iteration
	sub := make([]float64, m*n)           // passive-column submatrix scratch, reused each iteration

	maxIter := 3 * n
	if maxIter < 30 {
		maxIter = 30
	}
	iters := 0
	for {
		// Dual vector w = Aᵀ(b - A*x).
		dual(w, a, resid)

		// Find the most violated constraint among active (clamped) vars.
		t := -1
		wmax := tol
		for j := 0; j < n; j++ {
			if !passive[j] && !banned[j] && w[j] > wmax {
				wmax = w[j]
				t = j
			}
		}
		if t < 0 {
			break // KKT conditions met (up to banned degenerate variables)
		}
		passive[t] = true

		for {
			iters++
			if iters > maxIter {
				return nil, ErrMaxIterations
			}
			// Solve the unconstrained LS problem on the passive set.
			z, err := solvePassive(a, b, passive, sub)
			if err != nil {
				// Numerically dependent column: drop the variable we just
				// admitted and continue with the rest. x is unchanged, so
				// ban it or the dual test re-selects it forever.
				passive[t] = false
				banned[t] = true
				break
			}
			if allPositive(z, passive, 0) {
				copyPassive(x, z, passive)
				clearBans(banned)
				break
			}
			// Some passive variable went non-positive: move along the
			// segment from x toward z until the first variable hits zero,
			// then clamp it back into the active set.
			alpha := math.Inf(1)
			for j := 0; j < n; j++ {
				if passive[j] && z[j] <= 0 {
					if d := x[j] - z[j]; d > 0 {
						if r := x[j] / d; r < alpha {
							alpha = r
						}
					} else {
						alpha = 0
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			if alpha > 0 {
				clearBans(banned)
			}
			for j := 0; j < n; j++ {
				if passive[j] {
					x[j] += alpha * (z[j] - x[j])
					if x[j] <= tol {
						x[j] = 0
						passive[j] = false
						if alpha == 0 {
							// Dropped at a zero step: x is unchanged, so
							// this variable must not be re-admitted until
							// some step moves the iterate.
							banned[j] = true
						}
					}
				}
			}
		}

		// Refresh the residual for the next dual test.
		a.MulVecTo(ax, x)
		for i := range resid {
			resid[i] = b[i] - ax[i]
		}
	}

	a.MulVecTo(ax, x)
	for i := range resid {
		resid[i] = b[i] - ax[i]
	}
	return &Result{
		X:          x,
		Residual:   units.Joule(linalg.Norm2(resid)),
		Iterations: iters,
		Passive:    passive,
	}, nil
}

// dual computes w = Aᵀr column by column from the row-major a, without
// materializing Aᵀ. Each entry sums over the rows in order, the same
// operations, in the same order, as a row of Aᵀ times r.
func dual(w []float64, a *linalg.Matrix, r []float64) {
	n := a.Cols
	for j := range w {
		var s float64
		for i, ri := range r {
			s += a.Data[i*n+j] * ri
		}
		w[j] = s
	}
}

// solvePassive solves the least-squares problem restricted to the passive
// columns, returning a full-length vector with zeros in active positions.
// scratch, at least a.Rows*a.Cols long, holds the passive-column
// submatrix, which the QR factorization then overwrites.
func solvePassive(a *linalg.Matrix, b []float64, passive []bool, scratch []float64) ([]float64, error) {
	cols := make([]int, 0, len(passive))
	for j, p := range passive {
		if p {
			cols = append(cols, j)
		}
	}
	if len(cols) == 0 {
		return make([]float64, len(passive)), nil
	}
	sub := &linalg.Matrix{Rows: a.Rows, Cols: len(cols), Data: scratch[:a.Rows*len(cols)]}
	for i := 0; i < a.Rows; i++ {
		for jj, j := range cols {
			sub.Set(i, jj, a.At(i, j))
		}
	}
	zsub, err := linalg.FactorQRInPlace(sub).Solve(b)
	if err != nil {
		return nil, err
	}
	z := make([]float64, len(passive))
	for jj, j := range cols {
		z[j] = zsub[jj]
	}
	return z, nil
}

func allPositive(z []float64, passive []bool, tol float64) bool {
	for j, p := range passive {
		if p && z[j] <= tol {
			return false
		}
	}
	return true
}

func copyPassive(x, z []float64, passive []bool) {
	for j, p := range passive {
		if p {
			x[j] = z[j]
		} else {
			x[j] = 0
		}
	}
}

func clearBans(banned []bool) {
	for j := range banned {
		banned[j] = false
	}
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
