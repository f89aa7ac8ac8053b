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
	w := make([]float64, n) // dual vector Aᵀr, refreshed each outer iteration
	dual(w, a, b)           // r = b while x = 0
	if tol <= 0 {
		// Standard choice: a small multiple of machine epsilon scaled by
		// the problem size and the magnitude of Aᵀb.
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
	z := make([]float64, n)               // passive solution, reused each iteration
	ps := newPassiveSolver(a)

	maxIter := 3 * n
	if maxIter < 30 {
		maxIter = 30
	}
	iters := 0
	for {
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
			if err := ps.solve(z, b, passive); err != nil {
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

		// Refresh the residual and the duals for the next dual test.
		refresh(resid, w, a, b, x)
	}

	a.MulVecTo(resid, x)
	for i, ax := range resid {
		resid[i] = b[i] - ax
	}
	return &Result{
		X:          x,
		Residual:   units.Joule(linalg.Norm2(resid)),
		Iterations: iters,
		Passive:    passive,
	}, nil
}

// dual computes w = Aᵀr in one row-major pass over a, with one running
// sum per column. Each sum adds its rows' products in row order, the
// same operations, in the same order, as a row of Aᵀ times r.
func dual(w []float64, a *linalg.Matrix, r []float64) {
	n := a.Cols
	w = w[:n]
	clear(w)
	for i, ri := range r {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			w[j] += v * ri
		}
	}
}

// refresh sets r = b - A*x and w = Aᵀr in one row-major pass over a.
// Each entry of r takes MulVecTo's operations in its order, and each
// entry of w dual's.
func refresh(r, w []float64, a *linalg.Matrix, b, x []float64) {
	n := a.Cols
	w, x = w[:n], x[:n]
	clear(w)
	for i := range r {
		row := a.Data[i*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		ri := b[i] - s
		r[i] = ri
		for j, v := range row {
			w[j] += v * ri
		}
	}
}

// passiveSolver solves the least-squares problem restricted to the
// passive columns of a, taken in index order. Its QR keeps the
// factorization of the last passive set, and a new set reuses the part
// of it that covers their common leading columns: the column admitted or
// dropped between two inner iterations refactors only itself and the
// columns after it.
type passiveSolver struct {
	a          *linalg.Matrix
	qr         *linalg.QR
	cols, next []int     // the columns qr holds; the set being solved
	zsub       []float64 // solution over the passive columns
}

func newPassiveSolver(a *linalg.Matrix) *passiveSolver {
	n := a.Cols
	return &passiveSolver{
		a:    a,
		qr:   linalg.NewQR(a.Rows, min(a.Rows, n)),
		cols: make([]int, 0, n),
		next: make([]int, 0, n),
		zsub: make([]float64, n),
	}
}

// solve writes into z the least-squares solution over the passive
// columns, with zeros in active positions.
func (ps *passiveSolver) solve(z, b []float64, passive []bool) error {
	next, k := ps.next[:len(passive)], 0
	for j, p := range passive {
		if p {
			next[k] = j
			k++
		}
	}
	next = next[:k]
	keep := 0
	for keep < len(next) && keep < len(ps.cols) && next[keep] == ps.cols[keep] {
		keep++
	}
	ps.qr.Truncate(keep)
	for _, j := range next[keep:] {
		ps.qr.AppendColumn(ps.a, j)
	}
	ps.cols, ps.next = next, ps.cols
	clear(z)
	if len(next) == 0 {
		return nil
	}
	zsub := ps.zsub[:len(next)]
	if err := ps.qr.SolveTo(zsub, b); err != nil {
		return err
	}
	for jj, j := range next {
		z[j] = zsub[jj]
	}
	return nil
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
