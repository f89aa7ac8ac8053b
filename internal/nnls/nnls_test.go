package nnls

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dvfsroofline/internal/linalg"
	"dvfsroofline/internal/units"
)

// joules converts a raw right-hand-side vector to the typed form Solve
// takes, keeping the test matrices in plain float64.
func joules(v []float64) []units.Joule {
	out := make([]units.Joule, len(v))
	for i, x := range v {
		out[i] = units.Joule(x)
	}
	return out
}

func TestSolveRecoverNonnegative(t *testing.T) {
	// When the unconstrained LS solution is already non-negative, NNLS
	// must find it exactly.
	a := linalg.FromRows([][]float64{
		{1, 0, 0},
		{0, 2, 0},
		{0, 0, 3},
		{1, 1, 1},
	})
	want := []float64{1, 0.5, 2}
	b := a.MulVec(want)
	res, err := Solve(a, joules(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], want[i])
		}
	}
	if res.Residual > 1e-10 {
		t.Errorf("residual = %v, want ~0", res.Residual)
	}
}

func TestSolveClampsNegative(t *testing.T) {
	// Classic example: the LS solution has a negative component; NNLS
	// must clamp it to zero and re-optimize the rest.
	a := linalg.FromRows([][]float64{
		{1, 1},
		{1, -1},
	})
	// Unconstrained solution of b=(0,2) is x=(1,-1); NNLS must return
	// x=(x1,0) minimizing (x1)²+(x1-2)² -> x1=1.
	b := []float64{0, 2}
	res, err := Solve(a, joules(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.X[1] != 0 {
		t.Errorf("x[1] = %v, want 0 (clamped)", res.X[1])
	}
	if math.Abs(res.X[0]-1) > 1e-10 {
		t.Errorf("x[0] = %v, want 1", res.X[0])
	}
}

func TestSolveAllZero(t *testing.T) {
	// If b is in the cone of -A columns, the best non-negative x is 0.
	a := linalg.FromRows([][]float64{{1}, {1}})
	res, err := Solve(a, []units.Joule{-1, -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 0 {
		t.Errorf("x = %v, want 0", res.X[0])
	}
	if math.Abs(float64(res.Residual)-math.Sqrt(2)) > 1e-12 {
		t.Errorf("residual = %v, want sqrt(2)", res.Residual)
	}
}

func TestKKTConditions(t *testing.T) {
	// Property: the NNLS solution satisfies the KKT conditions —
	// x >= 0, w = Aᵀ(b-Ax) <= tol for active vars, |w| ~ 0 for passive.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(10)
		n := 1 + rng.Intn(5)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res, err := Solve(a, joules(b), 0)
		if err != nil {
			return true // ill-conditioned draw is acceptable
		}
		ax := a.MulVec(res.X)
		r := make([]float64, m)
		for i := range r {
			r[i] = b[i] - ax[i]
		}
		w := a.T().MulVec(r)
		for j := 0; j < n; j++ {
			if res.X[j] < 0 {
				return false
			}
			if res.X[j] > 0 && math.Abs(w[j]) > 1e-6 {
				return false // gradient must vanish for interior vars
			}
			if res.X[j] == 0 && w[j] > 1e-6 {
				return false // no descent direction may remain
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestResidualNeverWorseThanZeroVector(t *testing.T) {
	// Property: NNLS cannot do worse than x = 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + rng.Intn(8)
		n := 1 + rng.Intn(4)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res, err := Solve(a, joules(b), 0)
		if err != nil {
			return true
		}
		return float64(res.Residual) <= linalg.Norm2(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEnergyModelShapedProblem(t *testing.T) {
	// A fit shaped like the paper's Eq. 9 design matrix: columns are
	// op-count x voltage² products plus time columns, with known
	// non-negative ground truth and small noise. NNLS must recover the
	// truth to within the noise level.
	rng := rand.New(rand.NewSource(42))
	truth := []float64{27.33, 131.12, 56.56, 369.63, 2.70, 3.80, 0.15}
	n := len(truth)
	m := 120
	a := linalg.NewMatrix(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Float64()*10)
		}
		dot := 0.0
		for j := 0; j < n; j++ {
			dot += a.At(i, j) * truth[j]
		}
		b[i] = dot * (1 + 0.001*rng.NormFloat64())
	}
	res, err := Solve(a, joules(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		// Small coefficients absorb proportionally more of the noise, so
		// allow them a looser relative tolerance.
		tol := 0.05
		if truth[j] < 10 {
			tol = 0.15
		}
		rel := math.Abs(res.X[j]-truth[j]) / truth[j]
		if rel > tol {
			t.Errorf("coefficient %d: got %v, want %v (rel err %.3f)", j, res.X[j], truth[j], rel)
		}
	}
}

// TestDegenerateColumnNoLivelock is the regression test for the
// zero-progress livelock: column 1 is numerically dependent on column 0
// (the pair is rank-deficient to the QR solver) yet carries a positive
// dual after column 0 converges, because b has a huge component along the
// tiny independent tail. The old loop admitted it, failed the passive
// solve, dropped it, recomputed the *unchanged* dual, re-admitted it, and
// burned iterations until ErrMaxIterations.
func TestDegenerateColumnNoLivelock(t *testing.T) {
	a := linalg.FromRows([][]float64{
		{2, 1},
		{0, 1e-13},
		{0, 0},
	})
	b := []float64{1, 1e6, 0}
	res, err := Solve(a, joules(b), 0)
	if err != nil {
		t.Fatalf("degenerate column livelocked: %v", err)
	}
	// Column 0 alone solves the reachable part of b: x0 = (2·1)/4.
	if math.Abs(res.X[0]-0.5) > 1e-10 {
		t.Errorf("x[0] = %v, want 0.5", res.X[0])
	}
	if res.X[1] != 0 {
		t.Errorf("x[1] = %v, want 0 (degenerate column must stay clamped)", res.X[1])
	}
}

// TestNearDuplicateColumnsStress feeds the solver batches of matrices
// with exactly and nearly duplicated columns. None may hit
// ErrMaxIterations, every solution must be non-negative, and no solution
// may fit worse than x = 0.
func TestNearDuplicateColumnsStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m, n := 6, 4
		a := linalg.NewMatrix(m, n)
		for i := 0; i < m; i++ {
			a.Set(i, 0, rng.NormFloat64())
			a.Set(i, 1, rng.NormFloat64())
		}
		for i := 0; i < m; i++ {
			// Column 2 duplicates column 0 exactly; column 3 nearly
			// duplicates column 1, with a tail small enough to be
			// rank-deficient to the QR factorization.
			a.Set(i, 2, a.At(i, 0))
			a.Set(i, 3, a.At(i, 1)+1e-14*rng.NormFloat64())
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64() * math.Pow(10, float64(trial%7)-3)
		}
		res, err := Solve(a, joules(b), 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j, xj := range res.X {
			if xj < 0 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, j, xj)
			}
		}
		if zero := linalg.Norm2(b); float64(res.Residual) > zero*(1+1e-9) {
			t.Fatalf("trial %d: residual %v worse than zero vector %v", trial, res.Residual, zero)
		}
	}
}

func TestSolveRHSMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched rhs")
		}
	}()
	Solve(linalg.NewMatrix(3, 2), []units.Joule{1, 2}, 0)
}

// benchProblem is a fixed, well-conditioned Eq. 9-sized fit (16
// settings x 7 coefficients, the paper's calibration shape).
func benchProblem() (*linalg.Matrix, []units.Joule) {
	rng := rand.New(rand.NewSource(7))
	m, n := 16, 7
	a := linalg.NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = math.Abs(rng.NormFloat64())
	}
	truth := make([]float64, n)
	for j := range truth {
		truth[j] = float64(j%3) * 0.5
	}
	bvec := a.MulVec(truth)
	for i := range bvec {
		bvec[i] += 0.01 * rng.NormFloat64()
	}
	return a, joules(bvec)
}

// TestSolvePinnedBits pins the exact bits of benchProblem's solution.
// Solver refactors (buffer reuse, in-place factorization, the
// column-wise dual) must not reorder a single floating-point operation:
// the paper's tables are reproduced bit for bit from these fits.
func TestSolvePinnedBits(t *testing.T) {
	want := []uint64{
		0x3f111e9b9b07ee54,
		0x3fdfdb6aa245b974,
		0x3ff00ed9ed40cb5c,
		0x0000000000000000,
		0x3fe022bae1e44c23,
		0x3fefd1eb6cad6be2,
		0x3f5d7360decfb39a,
	}
	a, rhs := benchProblem()
	res, err := Solve(a, rhs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range res.X {
		if got := math.Float64bits(x); got != want[j] {
			t.Errorf("x[%d] = %#016x (%v), want %#016x", j, got, x, want[j])
		}
	}
	if got := math.Float64bits(float64(res.Residual)); got != 0x3f9585533c3613b5 {
		t.Errorf("residual = %#016x (%v), want 0x3f9585533c3613b5", got, res.Residual)
	}
}

// BenchmarkNNLSSolve runs benchProblem. The bench gate watches
// allocs/op: a regression means a per-iteration allocation crept back
// into the active-set loop.
func BenchmarkNNLSSolve(b *testing.B) {
	a, rhs := benchProblem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
