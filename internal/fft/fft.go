// Package fft implements the fast Fourier transforms the FMM substrate
// needs: an iterative radix-2 complex FFT, Bluestein's chirp-z algorithm
// for arbitrary lengths, multidimensional transforms, and fast cyclic
// convolution. The paper's V-list (M2L) phase is FFT-accelerated; this
// package provides that acceleration for the kernel-independent FMM.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Forward computes the in-place forward DFT of x:
// X[k] = sum_j x[j] * exp(-2*pi*i*j*k/n). Any length is supported: powers
// of two use the radix-2 path, other lengths use Bluestein's algorithm.
func Forward(x []complex128) {
	transform(x, false)
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalization, so Inverse(Forward(x)) == x up to round-off.
func Inverse(x []complex128) {
	transform(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// twiddleSteps[d][lg] is radix2's twiddle step exp(i·sign·2π/2^lg) for
// sign −1 (d = 0, forward) and +1 (d = 1, inverse), for every power of
// two an int can hold, so a transform calls no Sincos. Each entry comes
// from the runtime expression radix2 once evaluated per stage, with sign
// a variable rather than a folded constant, so the table holds the same
// bits.
var twiddleSteps = func() (t [2][63]complex128) {
	for d, sign := range []float64{-1, 1} {
		for lg := 1; lg < len(t[d]); lg++ {
			size := 1 << lg
			t[d][lg] = cmplx.Rect(1, sign*2*math.Pi/float64(size))
		}
	}
	return t
}()

// radix2 is the iterative Cooley-Tukey FFT for power-of-two lengths: the
// one-lane call of radix2Lanes.
func radix2(x []complex128, inverse bool) {
	radix2Lanes(x, len(x), 1, 1, 1, inverse)
}

// radix2Lanes runs the iterative Cooley-Tukey FFT on lanes sequences of
// power-of-two length n at once: element j of lane l is x[j*stride +
// l*laneStride]. Each stage walks its butterflies in order and, inside
// each, every lane, so a lane sees exactly the operations, and the twiddle
// values of the one w *= wStep recurrence, that it would see alone; a
// stage's butterflies touch disjoint pairs, so the interleaving changes
// no element's result. With laneStride 1 the lane loop runs over
// contiguous memory.
func radix2Lanes(x []complex128, n, stride, lanes, laneStride int, inverse bool) {
	span := (lanes-1)*laneStride + 1 // one element of every lane
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			d := (j - i) * stride
			for o := i * stride; o < i*stride+span; o += laneStride {
				x[o], x[o+d] = x[o+d], x[o]
			}
		}
	}
	steps := &twiddleSteps[0]
	if inverse {
		steps = &twiddleSteps[1]
	}
	for size, lg := 2, 1; size <= n; size, lg = size<<1, lg+1 {
		half := size >> 1
		d := half * stride // from a butterfly's first element to its second
		// w = exp(i·sign·2π·k/size), advanced by one step per butterfly.
		wStep := steps[lg]
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for p := start * stride; p < (start+half)*stride; p += stride {
				for o := p; o < p+span; o += laneStride {
					a := x[o]
					b := x[o+d] * w
					x[o] = a + b
					x[o+d] = a - b
				}
				w *= wStep
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution of
// chirp-modulated sequences, which is evaluated with a power-of-two FFT.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[j] = exp(sign*i*pi*j^2/n). j^2 mod 2n keeps the argument
	// bounded for large n.
	w := make([]complex128, n)
	for j := 0; j < n; j++ {
		jj := (int64(j) * int64(j)) % int64(2*n)
		w[j] = cmplx.Rect(1, sign*math.Pi*float64(jj)/float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for j := 0; j < n; j++ {
		a[j] = x[j] * w[j]
		b[j] = cmplx.Conj(w[j])
	}
	for j := 1; j < n; j++ {
		b[m-j] = cmplx.Conj(w[j])
	}
	radix2(a, false)
	radix2(b, false)
	for j := range a {
		a[j] *= b[j]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for j := 0; j < n; j++ {
		x[j] = a[j] * scale * w[j]
	}
}

// Convolve returns the cyclic convolution of a and b, which must have the
// same length n: out[k] = sum_j a[j]*b[(k-j) mod n].
func Convolve(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fft: Convolve length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	Forward(fa)
	Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	Inverse(fa)
	_ = n
	return fa
}

// Dim3 describes the extents of a 3-D array stored in row-major order
// with index (i, j, k) at position (i*Ny+j)*Nz+k.
type Dim3 struct {
	Nx, Ny, Nz int
}

// Len returns the total number of elements.
func (d Dim3) Len() int { return d.Nx * d.Ny * d.Nz }

// Index returns the linear index of (i, j, k).
func (d Dim3) Index(i, j, k int) int { return (i*d.Ny+j)*d.Nz + k }

// Forward3 computes the forward 3-D DFT of x in place.
func Forward3(x []complex128, d Dim3) {
	transform3(x, d, false)
}

// Inverse3 computes the normalized inverse 3-D DFT of x in place.
func Inverse3(x []complex128, d Dim3) {
	transform3(x, d, true)
	n := complex(float64(d.Len()), 0)
	for i := range x {
		x[i] /= n
	}
}

func transform3(x []complex128, d Dim3, inverse bool) {
	if len(x) != d.Len() {
		panic(fmt.Sprintf("fft: array length %d does not match dims %dx%dx%d", len(x), d.Nx, d.Ny, d.Nz))
	}
	slab := d.Ny * d.Nz
	// z: the Nx·Ny contiguous rows are the lanes.
	transformLanes(x, d.Nz, 1, d.Nx*d.Ny, d.Nz, inverse)
	// y: in each x-slab, the Nz contiguous columns are the lanes.
	for i := 0; i < d.Nx; i++ {
		transformLanes(x[i*slab:(i+1)*slab], d.Ny, d.Nz, d.Nz, 1, inverse)
	}
	// x: the Ny·Nz contiguous columns are the lanes.
	transformLanes(x, d.Nx, slab, slab, 1, inverse)
}

// transformLanes transforms lanes sequences of length n laid out as
// radix2Lanes describes. A power-of-two length runs radix2Lanes over every
// lane at once; any other length gathers each lane into a buffer for
// Bluestein.
func transformLanes(x []complex128, n, stride, lanes, laneStride int, inverse bool) {
	switch {
	case n <= 1:
		return
	case n&(n-1) == 0:
		radix2Lanes(x, n, stride, lanes, laneStride, inverse)
		return
	}
	buf := make([]complex128, n)
	for l := 0; l < lanes; l++ {
		off := l * laneStride
		for j := range buf {
			buf[j] = x[off+j*stride]
		}
		bluestein(buf, inverse)
		for j, v := range buf {
			x[off+j*stride] = v
		}
	}
}

// Convolve3 returns the cyclic 3-D convolution of a and b (both with
// extents d): out[p] = sum_q a[q]*b[(p-q) mod d].
func Convolve3(a, b []complex128, d Dim3) []complex128 {
	if len(a) != d.Len() || len(b) != d.Len() {
		panic("fft: Convolve3 length mismatch")
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	Forward3(fa, d)
	Forward3(fb, d)
	for i := range fa {
		fa[i] *= fb[i]
	}
	Inverse3(fa, d)
	return fa
}

// FlopEstimate returns the standard 5*n*log2(n) floating-point operation
// estimate for a complex FFT of length n. The FMM's counter profile uses
// it to attribute V-list work, mirroring how the paper's authors counted
// their cuFFT-based translation phase.
func FlopEstimate(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}
