package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 7)
	got := Mul(a, Identity(7))
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatal("A*I != A")
		}
	}
	got = Mul(Identity(4), a)
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatal("I*A != A")
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		a := randomMatrix(rng, r, c)
		tt := a.T().T()
		for i := range a.Data {
			if tt.Data[i] != a.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 5, 3)
	x := []float64{1, -2, 0.5}
	xm := NewMatrix(3, 1)
	copy(xm.Data, x)
	y := a.MulVec(x)
	ym := Mul(a, xm)
	for i := range y {
		if !approxEq(y[i], ym.At(i, 0), 1e-14) {
			t.Fatalf("MulVec[%d] = %v, Mul = %v", i, y[i], ym.At(i, 0))
		}
	}
	dst := make([]float64, 5)
	a.MulVecTo(dst, x)
	for i := range dst {
		if dst[i] != y[i] {
			t.Fatal("MulVecTo differs from MulVec")
		}
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !approxEq(got, 5, 1e-15) {
		t.Errorf("Norm2(3,4) = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
	// Overflow resistance.
	if got := Norm2([]float64{3e200, 4e200}); !approxEq(got, 5e200, 1e-14) {
		t.Errorf("Norm2 large = %v, want 5e200", got)
	}
}

func TestQRSolveSquare(t *testing.T) {
	a := FromRows([][]float64{
		{4, 1, 0},
		{1, 3, 1},
		{0, 1, 2},
	})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	x, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !approxEq(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestQRLeastSquaresResidualOrthogonality(t *testing.T) {
	// Property: for the LS solution, the residual is orthogonal to the
	// column space: Aᵀ(Ax - b) = 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + rng.Intn(10)
		n := 1 + rng.Intn(4)
		a := randomMatrix(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLS(a, b)
		if err != nil {
			return true // rank-deficient random draw; acceptable
		}
		ax := a.MulVec(x)
		res := make([]float64, m)
		for i := range res {
			res[i] = ax[i] - b[i]
		}
		atr := a.T().MulVec(res)
		for _, v := range atr {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFactorQRInPlace checks the copy contract: FactorQR and SolveLS
// leave their inputs untouched, while FactorQRInPlace overwrites its
// matrix and produces the same solution bit for bit.
func TestFactorQRInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 12, 4)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	orig := a.Clone()
	origB := append([]float64(nil), b...)
	want, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatalf("SolveLS modified a at %d", i)
		}
	}
	for i := range b {
		if b[i] != origB[i] {
			t.Fatalf("SolveLS modified b at %d", i)
		}
	}
	got, err := FactorQRInPlace(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Errorf("x[%d] in place = %v, copying = %v", j, got[j], want[j])
		}
	}
	changed := false
	for i := range a.Data {
		changed = changed || a.Data[i] != orig.Data[i]
	}
	if !changed {
		t.Error("FactorQRInPlace left its matrix unchanged; it should hold the factorization")
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	if _, err := SolveLS(a, []float64{1, 2, 3}); err == nil {
		t.Error("expected rank-deficiency error for collinear columns")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Build SPD matrix A = BᵀB + I.
	b := randomMatrix(rng, 6, 6)
	a := Add(Mul(b.T(), b), Identity(6))
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := Mul(l, l.T())
	for i := range a.Data {
		if !approxEq(llt.Data[i], a.Data[i], 1e-10) {
			t.Fatalf("L*Lᵀ != A at %d: %v vs %v", i, llt.Data[i], a.Data[i])
		}
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	rhs := a.MulVec(want)
	x := CholeskySolve(l, rhs)
	for i := range want {
		if !approxEq(x[i], want[i], 1e-9) {
			t.Errorf("CholeskySolve x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := Cholesky(a); err == nil {
		t.Error("expected error for non-SPD matrix")
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][2]int{{5, 3}, {3, 5}, {4, 4}, {8, 2}, {1, 1}} {
		a := randomMatrix(rng, dims[0], dims[1])
		d := FactorSVD(a)
		// Reconstruct U * diag(S) * Vᵀ.
		us := d.U.Clone()
		for j := 0; j < len(d.S); j++ {
			for i := 0; i < us.Rows; i++ {
				us.Set(i, j, us.At(i, j)*d.S[j])
			}
		}
		rec := Mul(us, d.V.T())
		for i := range a.Data {
			if !approxEq(rec.Data[i], a.Data[i], 1e-10) {
				t.Fatalf("%dx%d: SVD reconstruction mismatch at %d: %v vs %v",
					dims[0], dims[1], i, rec.Data[i], a.Data[i])
			}
		}
		// Singular values sorted descending and non-negative.
		for k := 1; k < len(d.S); k++ {
			if d.S[k] > d.S[k-1] {
				t.Fatal("singular values not sorted descending")
			}
		}
		for _, s := range d.S {
			if s < 0 {
				t.Fatal("negative singular value")
			}
		}
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 7, 4)
	d := FactorSVD(a)
	utu := Mul(d.U.T(), d.U)
	vtv := Mul(d.V.T(), d.V)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !approxEq(utu.At(i, j), want, 1e-10) {
				t.Errorf("UᵀU[%d][%d] = %v, want %v", i, j, utu.At(i, j), want)
			}
			if !approxEq(vtv.At(i, j), want, 1e-10) {
				t.Errorf("VᵀV[%d][%d] = %v, want %v", i, j, vtv.At(i, j), want)
			}
		}
	}
}

func TestSVDKnownSingularValues(t *testing.T) {
	// diag(3, 2, 1) has singular values 3, 2, 1.
	a := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	d := FactorSVD(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if !approxEq(d.S[i], want[i], 1e-12) {
			t.Errorf("S[%d] = %v, want %v", i, d.S[i], want[i])
		}
	}
}

func TestPseudoInverseMoorePenrose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomMatrix(rng, 6, 4)
	p := PseudoInverse(a, 1e-13)
	// A * A⁺ * A = A.
	apa := Mul(Mul(a, p), a)
	for i := range a.Data {
		if !approxEq(apa.Data[i], a.Data[i], 1e-9) {
			t.Fatalf("A A⁺ A != A at %d", i)
		}
	}
	// A⁺ * A * A⁺ = A⁺.
	pap := Mul(Mul(p, a), p)
	for i := range p.Data {
		if !approxEq(pap.Data[i], p.Data[i], 1e-9) {
			t.Fatalf("A⁺ A A⁺ != A⁺ at %d", i)
		}
	}
}

func TestPseudoInverseTruncation(t *testing.T) {
	// A matrix with singular values {1, 1e-12}: with rcond=1e-6 the tiny
	// value must be truncated, so pinv has spectral norm ~1, not ~1e12.
	a := FromRows([][]float64{{1, 0}, {0, 1e-12}})
	p := PseudoInverse(a, 1e-6)
	if p.At(1, 1) != 0 {
		t.Errorf("truncated pseudo-inverse should zero tiny mode, got %v", p.At(1, 1))
	}
	if !approxEq(p.At(0, 0), 1, 1e-12) {
		t.Errorf("dominant mode should invert to 1, got %v", p.At(0, 0))
	}
}

func TestCond2(t *testing.T) {
	a := FromRows([][]float64{{10, 0}, {0, 0.1}})
	d := FactorSVD(a)
	if !approxEq(d.Cond2(), 100, 1e-10) {
		t.Errorf("Cond2 = %v, want 100", d.Cond2())
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestDimensionPanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"Mul":      func() { Mul(a, b) },
		"MulVec":   func() { a.MulVec([]float64{1}) },
		"Dot":      func() { Dot([]float64{1}, []float64{1, 2}) },
		"NewBad":   func() { NewMatrix(0, 3) },
		"Cholesky": func() { Cholesky(a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
