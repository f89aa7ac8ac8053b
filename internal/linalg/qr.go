package linalg

import (
	"errors"
	"math"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// ErrRankDeficient is returned when a triangular solve meets a (near-)zero
// pivot, indicating the system does not have a unique solution.
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// QR holds a Householder QR factorization A = Q*R of an m-by-n matrix,
// m >= n, stored column by column: column j keeps R's entries above the
// diagonal in rows 0..j-1 and the j-th Householder vector in rows
// j..m-1, and rdiag holds the diagonal of R.
//
// Columns are factored one at a time as they are appended: each new
// column takes the reflectors of the columns before it, in order, and
// then yields its own. The factorization of A's first k columns is
// therefore a prefix of A's, and Truncate(k) followed by AppendColumn
// refactors only the columns past k. Every entry goes through the same
// operations in the same order as a right-looking factorization of the
// whole matrix, so the bits do not depend on how the columns arrived.
//
// Solve reuses a scratch vector the QR owns, so a QR is not safe for
// concurrent use.
type QR struct {
	m     int
	data  []float64 // column j at data[j*m : (j+1)*m]
	rdiag []float64
	y     []float64 // Qᵀb scratch for SolveTo
}

// NewQR returns an empty factorization for matrices of m rows, with room
// for maxCols columns before it reallocates.
func NewQR(m, maxCols int) *QR {
	return &QR{m: m, data: make([]float64, 0, m*maxCols), rdiag: make([]float64, 0, maxCols)}
}

// FactorQR computes the Householder QR factorization of a, leaving a
// unchanged. It panics if a has fewer rows than columns (the
// least-squares use cases in this repository are always overdetermined
// or square).
func FactorQR(a *Matrix) *QR {
	if a.Rows < a.Cols {
		panic("linalg: FactorQR requires rows >= cols")
	}
	f := NewQR(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		f.AppendColumn(a, j)
	}
	return f
}

// Truncate drops every column past the first k, keeping the
// factorization of those k.
func (f *QR) Truncate(k int) {
	f.data = f.data[:k*f.m]
	f.rdiag = f.rdiag[:k]
}

// AppendColumn appends column j of a, which must have the factorization's
// row count, and factors it. It panics when the factorization already has
// as many columns as rows.
func (f *QR) AppendColumn(a *Matrix, j int) {
	m, k := f.m, len(f.rdiag)
	if a.Rows != m {
		panic("linalg: QR.AppendColumn row count mismatch")
	}
	if k >= m {
		panic("linalg: FactorQR requires rows >= cols")
	}
	f.data = append(f.data, make([]float64, m)...)
	col := f.data[k*m : (k+1)*m]
	for i := range col {
		col[i] = a.Data[i*a.Cols+j]
	}
	// Apply the earlier reflectors in order. A zero norm left its column
	// without one.
	for r := 0; r < k; r++ {
		if f.rdiag[r] == 0 {
			continue
		}
		v := f.data[r*m : (r+1)*m]
		var s float64
		for i := r; i < m; i++ {
			s += v[i] * col[i]
		}
		s = -s / v[r]
		for i := r; i < m; i++ {
			col[i] += s * v[i]
		}
	}
	nrm := colNorm(col[k:])
	if nrm != 0 {
		// Choose the sign that avoids cancellation in v_k.
		if col[k] < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			col[i] /= nrm
		}
		col[k]++
	}
	f.rdiag = append(f.rdiag, -nrm)
}

// colNorm returns the Euclidean norm of x accumulated row by row as
// math.Hypot(…math.Hypot(math.Hypot(0, x[0]), x[1])…, x[len(x)-1]), with
// those bits. While the entries are finite the inlined hypot computes
// each step (a running norm that overflows to +Inf stays +Inf there, as
// in math.Hypot); from the first infinite or NaN entry on, math.Hypot
// does, for its special cases.
func colNorm(x []float64) float64 {
	var nrm float64
	for i, v := range x {
		if !(math.Abs(v) <= math.MaxFloat64) {
			for _, v := range x[i:] {
				nrm = math.Hypot(nrm, v)
			}
			return nrm
		}
		nrm = hypot(nrm, v)
	}
	return nrm
}

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
	x := make([]float64, len(f.rdiag))
	if err := f.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo is Solve writing the solution into x, one entry per factored
// column, without allocating once the factorization has solved for one
// right-hand side.
func (f *QR) SolveTo(x, b []float64) error {
	m, n := f.m, len(f.rdiag)
	if len(b) != m {
		panic("linalg: QR.Solve right-hand side has wrong length")
	}
	if len(x) != n {
		panic("linalg: QR.Solve solution has wrong length")
	}
	if !f.FullRank() {
		return ErrRankDeficient
	}
	if f.y == nil {
		f.y = make([]float64, m)
	}
	y := f.y
	copy(y, b)
	// Apply Qᵀ to b, one Householder reflector at a time.
	for k := 0; k < n; k++ {
		v := f.data[k*m : (k+1)*m]
		vk := v[k]
		if vk == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += v[i] * y[i]
		}
		s = -s / vk
		for i := k; i < m; i++ {
			y[i] += s * v[i]
		}
	}
	// Back substitution with R.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.data[j*m+i] * x[j]
		}
		x[i] = s / f.rdiag[i]
	}
	return nil
}

// SolveLS is a convenience wrapper: factorize a and solve the
// least-squares problem min ||a*x - b|| in one call. Neither a nor b is
// modified.
func SolveLS(a *Matrix, b []float64) ([]float64, error) {
	return FactorQR(a).Solve(b)
}
