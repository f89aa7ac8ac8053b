package linalg

import (
	"errors"
	"math"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// ErrRankDeficient is returned when a triangular solve meets a (near-)zero
// pivot, indicating the system does not have a unique solution.
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// QR holds a Householder QR factorization A = Q*R with A m-by-n, m >= n,
// stored compactly: the strict upper triangle of qr holds R, the lower
// triangle (including the diagonal) holds the Householder vectors, and
// rdiag holds the diagonal of R.
type QR struct {
	qr    *Matrix
	rdiag []float64
}

// FactorQR computes the Householder QR factorization of a, leaving a
// unchanged: it factors a copy. It panics if a has fewer rows than
// columns (the least-squares use cases in this repository are always
// overdetermined or square).
func FactorQR(a *Matrix) *QR {
	return FactorQRInPlace(a.Clone())
}

// FactorQRInPlace is FactorQR without the copy: it overwrites a with the
// compact factorization, and the returned QR keeps using a's storage, so
// a must not be modified while the QR is in use. The NNLS solver factors
// a fresh passive-column submatrix per inner iteration and uses this to
// skip a second m-by-n buffer.
func FactorQRInPlace(a *Matrix) *QR {
	if a.Rows < a.Cols {
		panic("linalg: FactorQR requires rows >= cols")
	}
	m, n := a.Rows, a.Cols
	f := &QR{qr: a, rdiag: make([]float64, n)}
	q := f.qr
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, q.At(i, k))
		}
		if nrm != 0 {
			// Choose the sign that avoids cancellation in v_k.
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
		f.rdiag[k] = -nrm
	}
	return f
}

// RDiag returns the k-th diagonal element of R.
func (f *QR) RDiag(k int) float64 { return f.rdiag[k] }

// FullRank reports whether every diagonal element of R is meaningfully
// non-zero relative to the largest one.
func (f *QR) FullRank() bool {
	var maxAbs float64
	for _, d := range f.rdiag {
		if a := math.Abs(d); a > maxAbs {
			maxAbs = a
		}
	}
	tol := 1e-12 * maxAbs
	for _, d := range f.rdiag {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return maxAbs > 0
}

// Solve computes the least-squares solution x of min ||A*x - b||_2 using
// the stored factorization. b must have length A.Rows and is not
// modified. It returns ErrRankDeficient if R is numerically singular.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows, f.qr.Cols
	if len(b) != m {
		panic("linalg: QR.Solve right-hand side has wrong length")
	}
	if !f.FullRank() {
		return nil, ErrRankDeficient
	}
	y := append([]float64(nil), b...)
	// Apply Qᵀ to b, one Householder reflector at a time.
	for k := 0; k < n; k++ {
		vk := f.qr.At(k, k)
		if vk == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / vk
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back substitution with R.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.rdiag[i]
	}
	return x, nil
}

// SolveLS is a convenience wrapper: factorize a and solve the
// least-squares problem min ||a*x - b|| in one call. Neither a nor b is
// modified; it factors a copy of a (see FactorQRInPlace to avoid it).
func SolveLS(a *Matrix, b []float64) ([]float64, error) {
	return FactorQR(a).Solve(b)
}

// Cholesky computes the lower-triangular factor L with a = L*Lᵀ for a
// symmetric positive-definite matrix. It returns ErrRankDeficient when a
// pivot is not strictly positive.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, ErrRankDeficient
		}
		l.Set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/l.At(j, j))
		}
	}
	return l, nil
}

// CholeskySolve solves a*x = b given the Cholesky factor L of a.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("linalg: CholeskySolve dimension mismatch")
	}
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}
