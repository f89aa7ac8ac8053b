// Package linalg implements the small dense linear algebra kernel the
// reproduction needs: matrix/vector arithmetic, Householder QR for least
// squares (used by the NNLS solver), Cholesky factorization, a one-sided
// Jacobi SVD, and truncated pseudo-inverses (used to build the KIFMM
// equivalent-density operators). Matrices are row-major and small in at
// least one dimension — a few hundred rows/columns for the KIFMM
// operators, a couple of thousand rows by nine columns for the NNLS
// calibration fit — so the implementation favors clarity and numerical
// robustness over blocking.
package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = element (i,j)
}

// NewMatrix returns a zeroed r-by-c matrix. It panics for non-positive
// dimensions.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows requires a non-empty rectangular input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: len %d, want %d", i, len(row), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns the matrix product a*b. It panics on a dimension mismatch.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecTo computes m*x into a caller-provided destination, avoiding
// allocation in hot loops (the FMM translation operators call this once
// per tree node per phase).
func (m *Matrix) MulVecTo(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("linalg: MulVecTo dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Add returns a+b. It panics on shape mismatch.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: Add shape mismatch")
	}
	c := a.Clone()
	for i, v := range b.Data {
		c.Data[i] += v
	}
	return c
}

// Scale returns s*m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	c := m.Clone()
	for i := range c.Data {
		c.Data[i] *= s
	}
	return c
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow for extreme inputs.
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := x
		if ax < 0 {
			ax = -ax
		}
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * sqrt(ssq)
}
