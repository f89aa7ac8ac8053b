package nnls

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dvfsroofline/internal/linalg"
	"dvfsroofline/internal/units"
)

// referencePaths counts how often referenceSolve took the two
// degenerate exits of its inner loop, so the tests can show they ran.
type referencePaths struct {
	rankBans  int // a rank-deficient passive solve banned the admitted column
	zeroSteps int // a variable dropped at a zero-length step and was banned
}

// referenceSolve is the Lawson–Hanson loop as it stood before the
// passive solves shared one incremental QR: every inner iteration copies
// the passive columns into a fresh row-major submatrix and factors all
// of it with referenceQR, and the duals are summed column by column. It
// pins Solve's bits against any restructuring of the factorization.
func referenceSolve(a *linalg.Matrix, rhs []units.Joule, tol float64) (*Result, referencePaths, error) {
	var paths referencePaths
	m, n := a.Rows, a.Cols
	b := make([]float64, len(rhs))
	for i, v := range rhs {
		b[i] = float64(v)
	}
	w := make([]float64, n)
	if tol <= 0 {
		referenceDual(w, a, b)
		tol = 10 * 2.220446049250313e-16 * float64(m*n) * maxAbs(w)
		if tol == 0 {
			tol = 1e-12
		}
	}
	x := make([]float64, n)
	passive := make([]bool, n)
	banned := make([]bool, n)
	resid := append([]float64(nil), b...)
	ax := make([]float64, m)
	maxIter := max(3*n, 30)
	iters := 0
	for {
		referenceDual(w, a, resid)
		t := -1
		wmax := tol
		for j := 0; j < n; j++ {
			if !passive[j] && !banned[j] && w[j] > wmax {
				wmax = w[j]
				t = j
			}
		}
		if t < 0 {
			break
		}
		passive[t] = true
		for {
			iters++
			if iters > maxIter {
				return nil, paths, ErrMaxIterations
			}
			z, err := referencePassive(a, b, passive)
			if err != nil {
				passive[t] = false
				banned[t] = true
				paths.rankBans++
				break
			}
			if allPositive(z, passive, 0) {
				copyPassive(x, z, passive)
				clearBans(banned)
				break
			}
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
							banned[j] = true
							paths.zeroSteps++
						}
					}
				}
			}
		}
		a.MulVecTo(ax, x)
		for i := range resid {
			resid[i] = b[i] - ax[i]
		}
	}
	a.MulVecTo(ax, x)
	for i := range resid {
		resid[i] = b[i] - ax[i]
	}
	return &Result{X: x, Residual: units.Joule(linalg.Norm2(resid)), Iterations: iters, Passive: passive}, paths, nil
}

// referenceDual computes w = Aᵀr one column at a time.
func referenceDual(w []float64, a *linalg.Matrix, r []float64) {
	n := a.Cols
	for j := range w {
		var s float64
		for i, ri := range r {
			s += a.Data[i*n+j] * ri
		}
		w[j] = s
	}
}

// referencePassive copies the passive columns into a row-major
// submatrix and solves the least-squares problem on it.
func referencePassive(a *linalg.Matrix, b []float64, passive []bool) ([]float64, error) {
	var cols []int
	for j, p := range passive {
		if p {
			cols = append(cols, j)
		}
	}
	if len(cols) == 0 {
		return make([]float64, len(passive)), nil
	}
	sub := linalg.NewMatrix(a.Rows, len(cols))
	for i := 0; i < a.Rows; i++ {
		for jj, j := range cols {
			sub.Set(i, jj, a.At(i, j))
		}
	}
	zsub, err := referenceQR(sub, b)
	if err != nil {
		return nil, err
	}
	z := make([]float64, len(passive))
	for jj, j := range cols {
		z[j] = zsub[jj]
	}
	return z, nil
}

// referenceQR factors q in place, right-looking, with Householder
// reflectors stored row-major in q's lower triangle and column norms
// accumulated by math.Hypot, then solves min ||q*x - b||_2.
func referenceQR(q *linalg.Matrix, b []float64) ([]float64, error) {
	if q.Rows < q.Cols {
		panic("linalg: FactorQR requires rows >= cols")
	}
	m, n := q.Rows, q.Cols
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, q.At(i, k))
		}
		if nrm != 0 {
			if q.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				q.Set(i, k, q.At(i, k)/nrm)
			}
			q.Set(k, k, q.At(k, k)+1)
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += q.At(i, k) * q.At(i, j)
				}
				s = -s / q.At(k, k)
				for i := k; i < m; i++ {
					q.Set(i, j, q.At(i, j)+s*q.At(i, k))
				}
			}
		}
		rdiag[k] = -nrm
	}
	var maxAbsD float64
	for _, d := range rdiag {
		if a := math.Abs(d); a > maxAbsD {
			maxAbsD = a
		}
	}
	for _, d := range rdiag {
		if math.Abs(d) <= 1e-12*maxAbsD {
			return nil, linalg.ErrRankDeficient
		}
	}
	if !(maxAbsD > 0) {
		return nil, linalg.ErrRankDeficient
	}
	y := append([]float64(nil), b...)
	for k := 0; k < n; k++ {
		vk := q.At(k, k)
		if vk == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += q.At(i, k) * y[i]
		}
		s = -s / vk
		for i := k; i < m; i++ {
			y[i] += s * q.At(i, k)
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= q.At(i, j) * x[j]
		}
		x[i] = s / rdiag[i]
	}
	return x, nil
}

// sameBits reports whether a and b have the same bits, NaN payloads
// included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// mismatch describes the first difference between Solve's outcome and
// referenceSolve's on one problem, or returns "" when they agree bit for
// bit: the error, X, Residual, Iterations and Passive.
func mismatch(got *Result, gotErr error, want *Result, wantErr error) string {
	if gotErr != wantErr {
		return fmt.Sprintf("err = %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	for j := range want.X {
		if !sameBits(got.X[j], want.X[j]) {
			return fmt.Sprintf("X[%d] = %#016x (%v), reference %#016x (%v)",
				j, math.Float64bits(got.X[j]), got.X[j], math.Float64bits(want.X[j]), want.X[j])
		}
		if got.Passive[j] != want.Passive[j] {
			return fmt.Sprintf("Passive[%d] = %v, reference %v", j, got.Passive[j], want.Passive[j])
		}
	}
	if !sameBits(float64(got.Residual), float64(want.Residual)) {
		return fmt.Sprintf("Residual = %v, reference %v", got.Residual, want.Residual)
	}
	if got.Iterations != want.Iterations {
		return fmt.Sprintf("Iterations = %d, reference %d", got.Iterations, want.Iterations)
	}
	return ""
}

// TestSolveMatchesReference runs Solve and referenceSolve on families of
// problems that reach every branch of the active-set loop, and requires
// the same bits from both: random full-rank fits, nearly collinear,
// duplicated and zero columns (the rank-deficiency ban), zero-length
// steps and ErrMaxIterations, infinite and NaN entries, overflowing
// reflectors, square systems and single columns.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	normal := func(m, n int) *linalg.Matrix {
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		return a
	}
	rhs := func(m int) []units.Joule {
		b := make([]units.Joule, m)
		for i := range b {
			b[i] = units.Joule(rng.NormFloat64())
		}
		return b
	}
	type problem struct {
		name string
		a    *linalg.Matrix
		b    []units.Joule
		tol  float64
	}
	var problems []problem
	add := func(name string, a *linalg.Matrix, b []units.Joule, tol float64) {
		problems = append(problems, problem{name, a, b, tol})
	}
	for trial := 0; trial < 200; trial++ {
		m, n := 5+rng.Intn(40), 1+rng.Intn(9)
		a := normal(m, n)
		if trial%2 == 0 {
			// Eq. 9 is non-negative and positively correlated; mix in
			// that shape, which admits most columns.
			for i := range a.Data {
				a.Data[i] = math.Abs(a.Data[i])
			}
		}
		add(fmt.Sprintf("random %dx%d #%d", m, n, trial), a, rhs(m), 0)
	}
	// Columns that differ by 1e-12 of their size: the QR reports rank
	// deficiency and the admitted column is banned.
	for trial := 0; trial < 150; trial++ {
		m, n := 3+rng.Intn(10), 2+rng.Intn(8)
		a := linalg.NewMatrix(m, n)
		for i := 0; i < m; i++ {
			base := rng.NormFloat64()
			for j := 0; j < n; j++ {
				a.Set(i, j, base*(1+0.1*float64(j))+1e-12*rng.NormFloat64())
			}
		}
		add(fmt.Sprintf("collinear %dx%d #%d", m, n, trial), a, rhs(m), 0)
	}
	for trial := 0; trial < 60; trial++ {
		m, n := 6+rng.Intn(10), 3+rng.Intn(4)
		a := normal(m, n)
		for i := 0; i < m; i++ {
			a.Set(i, 1, a.At(i, 0)) // duplicate
			if trial%2 == 0 {
				a.Set(i, n-1, 0) // zero column
			}
		}
		add(fmt.Sprintf("duplicate %dx%d #%d", m, n, trial), a, rhs(m), 0)
	}
	// A consistent system b = A·x* with a sparse x* leaves duals that are
	// rounding noise at the optimum. Under a caller tolerance far below
	// that noise, columns are admitted whose least-squares value is not
	// positive while their iterate is zero: zero-length steps, and some
	// runs cycle until ErrMaxIterations.
	for trial := 0; trial < 150; trial++ {
		m, n := 10+rng.Intn(10), 3+rng.Intn(6)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
		}
		xs := make([]float64, n)
		for j := range xs {
			if rng.Intn(2) == 0 {
				xs[j] = rng.Float64()
			}
		}
		ax := a.MulVec(xs)
		b := make([]units.Joule, m)
		for i := range b {
			b[i] = units.Joule(ax[i])
		}
		add(fmt.Sprintf("consistent %dx%d #%d", m, n, trial), a, b, 1e-20)
	}
	for _, n := range []int{1, 2, 5, 9} {
		add(fmt.Sprintf("square %dx%d", n, n), normal(n, n), rhs(n), 0)
	}
	for _, m := range []int{1, 2, 17, 300} {
		add(fmt.Sprintf("single column %dx1", m), normal(m, 1), rhs(m), 0)
		a := normal(m, 1)
		for i := range a.Data {
			a.Data[i] = math.Abs(a.Data[i])
		}
		b := rhs(m)
		for i := range b {
			b[i] = units.Joule(math.Abs(float64(b[i])))
		}
		add(fmt.Sprintf("single positive column %dx1", m), a, b, 0)
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for trial := 0; trial < 6; trial++ {
			m, n := 8, 4
			a := normal(m, n)
			for i := range a.Data {
				a.Data[i] = math.Abs(a.Data[i])
			}
			b := rhs(m)
			switch trial % 3 {
			case 0:
				a.Set(rng.Intn(m), rng.Intn(n), v)
			case 1:
				for i := 0; i < m; i++ {
					a.Set(i, trial%n, v)
				}
			case 2:
				b[rng.Intn(m)] = units.Joule(v)
			}
			add(fmt.Sprintf("non-finite %v #%d", v, trial), a, b, 0)
		}
	}
	// Entries near MaxFloat64 overflow the reflector updates to
	// infinities and NaNs that no input held.
	for trial := 0; trial < 6; trial++ {
		a := normal(10, 4)
		for i := range a.Data {
			a.Data[i] = math.Abs(a.Data[i]) * 1e307
		}
		add(fmt.Sprintf("overflowing #%d", trial), a, rhs(10), 0)
	}

	var paths referencePaths
	var maxIters int
	for _, p := range problems {
		want, pp, wantErr := referenceSolve(p.a, p.b, p.tol)
		paths.rankBans += pp.rankBans
		paths.zeroSteps += pp.zeroSteps
		if wantErr == ErrMaxIterations {
			maxIters++
		}
		got, gotErr := Solve(p.a, p.b, p.tol)
		if d := mismatch(got, gotErr, want, wantErr); d != "" {
			t.Errorf("%s: %s", p.name, d)
		}
	}
	if paths.rankBans == 0 || paths.zeroSteps == 0 || maxIters == 0 {
		t.Errorf("reference took %d rank-deficiency bans and %d zero-step drops and hit ErrMaxIterations %d times; the problems must reach all three",
			paths.rankBans, paths.zeroSteps, maxIters)
	}
}

// TestRefreshMatchesReference pins the one-pass residual and dual update
// to the loops it fused: r = b - A*x as MulVecTo computes A*x, and w =
// Aᵀr summed column by column in row order. The duals only steer which
// variable enters, so a changed summation order can leave every Solve
// result above intact; this compares them directly.
func TestRefreshMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		m, n := 1+rng.Intn(300), 1+rng.Intn(12)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		b, x := make([]float64, m), make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for j := range x {
			x[j] = math.Abs(rng.NormFloat64())
		}
		r, w := make([]float64, m), make([]float64, n)
		refresh(r, w, a, b, x)
		wantR := make([]float64, m)
		a.MulVecTo(wantR, x)
		for i := range wantR {
			wantR[i] = b[i] - wantR[i]
		}
		wantW := make([]float64, n)
		referenceDual(wantW, a, wantR)
		for i := range r {
			if !sameBits(r[i], wantR[i]) {
				t.Fatalf("%dx%d #%d: r[%d] = %v, reference %v", m, n, trial, i, r[i], wantR[i])
			}
		}
		for j := range w {
			if !sameBits(w[j], wantW[j]) {
				t.Fatalf("%dx%d #%d: w[%d] = %v, reference %v", m, n, trial, j, w[j], wantW[j])
			}
		}
		dual(w, a, b)
		referenceDual(wantW, a, b)
		for j := range w {
			if !sameBits(w[j], wantW[j]) {
				t.Fatalf("%dx%d #%d: dual w[%d] = %v, reference %v", m, n, trial, j, w[j], wantW[j])
			}
		}
	}
}
