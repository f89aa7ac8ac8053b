package linalg

import "math"

// SVD holds a thin singular value decomposition a = U * diag(S) * Vᵀ for an
// m-by-n matrix with m >= n: U is m-by-n with orthonormal columns, S holds
// the n singular values in descending order, and V is n-by-n orthogonal.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// FactorSVD computes a thin SVD using the one-sided Jacobi method, which is
// simple, backward stable, and more than fast enough for the operator
// matrices in this repository (a few hundred rows at most). For inputs with
// m < n the routine factorizes the transpose and swaps U and V.
func FactorSVD(a *Matrix) *SVD {
	if a.Rows < a.Cols {
		s := FactorSVD(a.T())
		return &SVD{U: s.V, S: s.S, V: s.U}
	}
	m, n := a.Rows, a.Cols
	// The sweeps walk whole columns, so U and V are held column by
	// column, each in its own contiguous slice: u[j] is column j of U.
	u := columns(m, n)
	for i := 0; i < m; i++ {
		for j, x := range a.Row(i) {
			u[j][i] = x
		}
	}
	v := columns(n, n)
	for j := range v {
		v[j][j] = 1
	}

	// One-sided Jacobi: repeatedly orthogonalize pairs of columns of U,
	// accumulating rotations into V, until all pairs are orthogonal to
	// machine precision.
	const eps = 1e-15
	for sweep := 0; sweep < 60; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				up, uq := u[p], u[q][:m]
				var alpha, beta, gamma float64
				for i := range up {
					alpha += up[i] * up[i]
					beta += uq[i] * uq[i]
					gamma += up[i] * uq[i]
				}
				if gamma == 0 {
					continue
				}
				if math.Abs(gamma) > eps*math.Sqrt(alpha*beta) {
					off += gamma * gamma
					// Jacobi rotation that zeroes the (p,q) inner product.
					zeta := (beta - alpha) / (2 * gamma)
					t := sign(zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
					c := 1 / math.Sqrt(1+t*t)
					s := c * t
					rotate(up, uq, c, s)
					rotate(v[p], v[q], c, s)
				}
			}
		}
		if off == 0 {
			break
		}
	}

	// Column norms of U are the singular values; normalize the columns.
	s := make([]float64, n)
	for j, col := range u {
		var norm float64
		for _, x := range col {
			norm = math.Hypot(norm, x)
		}
		s[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := range col {
				col[i] *= inv
			}
		}
	}

	// Sort singular values descending, permuting U and V columns to match.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[order[j]] > s[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	su := NewMatrix(m, n)
	sv := NewMatrix(n, n)
	ss := make([]float64, n)
	for jnew, jold := range order {
		ss[jnew] = s[jold]
		for i, x := range u[jold] {
			su.Set(i, jnew, x)
		}
		for i, x := range v[jold] {
			sv.Set(i, jnew, x)
		}
	}
	return &SVD{U: su, S: ss, V: sv}
}

// columns returns n zeroed columns of length m, backed by one slice.
func columns(m, n int) [][]float64 {
	flat := make([]float64, m*n)
	out := make([][]float64, n)
	for j := range out {
		out[j] = flat[j*m : (j+1)*m : (j+1)*m]
	}
	return out
}

// rotate applies the Jacobi rotation (c, s) to the column pair (x, y):
// x, y = c·x − s·y, s·x + c·y.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// PseudoInverse returns the Moore-Penrose pseudo-inverse computed from the
// SVD, truncating singular values below rcond times the largest. This is
// the regularization the kernel-independent FMM uses to invert its
// (ill-conditioned) equivalent-to-check potential operators.
func (d *SVD) PseudoInverse(rcond float64) *Matrix {
	n := len(d.S)
	cutoff := 0.0
	if n > 0 {
		cutoff = rcond * d.S[0]
	}
	// pinv = V * diag(1/s) * Uᵀ, skipping truncated values.
	ut := d.U.T()
	out := NewMatrix(d.V.Rows, ut.Cols)
	for k := 0; k < n; k++ {
		if d.S[k] <= cutoff || d.S[k] == 0 {
			continue
		}
		inv := 1 / d.S[k]
		for i := 0; i < out.Rows; i++ {
			vik := d.V.At(i, k) * inv
			if vik == 0 {
				continue
			}
			urow := ut.Data[k*ut.Cols : (k+1)*ut.Cols]
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, uv := range urow {
				orow[j] += vik * uv
			}
		}
	}
	return out
}

// PseudoInverse is a convenience wrapper combining FactorSVD and
// SVD.PseudoInverse.
func PseudoInverse(a *Matrix, rcond float64) *Matrix {
	return FactorSVD(a).PseudoInverse(rcond)
}

// Cond2 returns the 2-norm condition number estimate from the SVD
// (largest over smallest non-zero singular value). It returns +Inf when
// the matrix is singular to working precision.
func (d *SVD) Cond2() float64 {
	if len(d.S) == 0 || d.S[0] == 0 {
		return math.Inf(1)
	}
	smin := d.S[len(d.S)-1]
	if smin == 0 {
		return math.Inf(1)
	}
	return d.S[0] / smin
}
