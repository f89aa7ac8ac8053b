package fmm

import (
	"math"
	"math/cmplx"
	"sync/atomic"
	"testing"

	"dvfsroofline/internal/fft"
)

func TestLatticeIndexRoundTrip(t *testing.T) {
	for _, p := range []int{2, 4, 6} {
		surf := SurfaceGrid(p)
		seen := map[int]bool{}
		dim := fft.Dim3{Nx: 2 * p, Ny: 2 * p, Nz: 2 * p}
		for _, u := range surf {
			ix, iy, iz := latticeIndex(u, p)
			if ix < 0 || ix >= p || iy < 0 || iy >= p || iz < 0 || iz >= p {
				t.Fatalf("p=%d: lattice index (%d,%d,%d) out of range", p, ix, iy, iz)
			}
			li := dim.Index(ix, iy, iz)
			if seen[li] {
				t.Fatalf("p=%d: two surface points map to lattice cell %d", p, li)
			}
			seen[li] = true
		}
	}
}

func TestKernelHatMatchesDirectConvolution(t *testing.T) {
	// Applying the spectral kernel to a point density must equal the
	// direct kernel sum between the corresponding lattice points of two
	// offset boxes.
	const p = 4
	surf := SurfaceGrid(p)
	plan := newFFTPlan(p, surf)
	h := 0.25
	off := [3]int8{2, -2, 0}
	k := Laplace{}
	ghat := plan.kernelHat(k, off, h)
	dim := plan.dim

	// Source density: a spike at one surface point.
	srcIdx := 7 // arbitrary surface point
	grid := make([]complex128, dim.Len())
	grid[plan.surfIdx[srcIdx]] = 1
	fft.Forward3(grid, dim)
	for i := range grid {
		grid[i] *= ghat[i]
	}
	fft.Inverse3(grid, dim)

	// Direct: target box center offset by 2h*off.
	delta := 2 * h / float64(p-1)
	srcPt := placeSurface(surf, Point{}, h, equivRadius)[srcIdx]
	tc := Point{2 * h * float64(off[0]), 2 * h * float64(off[1]), 2 * h * float64(off[2])}
	dst := placeSurface(surf, tc, h, equivRadius)
	_ = delta
	for ti, tp := range dst {
		want := k.Eval(tp.X-srcPt.X, tp.Y-srcPt.Y, tp.Z-srcPt.Z)
		got := real(grid[plan.surfIdx[ti]])
		if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("target %d: spectral %v vs direct %v", ti, got, want)
		}
	}
}

func TestKernelHatCached(t *testing.T) {
	plan := newFFTPlan(4, SurfaceGrid(4))
	a := plan.kernelHat(Laplace{}, [3]int8{2, 0, 0}, 0.5)
	b := plan.kernelHat(Laplace{}, [3]int8{2, 0, 0}, 0.5)
	if &a[0] != &b[0] {
		t.Error("kernel grid not cached")
	}
}

// TestKernelHatConcurrentBuildsOnce asks 8 goroutines for one new offset:
// the grid must be sampled once and every caller must get the cached one.
func TestKernelHatConcurrentBuildsOnce(t *testing.T) {
	var evals atomic.Int64
	plan := newFFTPlan(4, SurfaceGrid(4))
	got := concurrently(func() []complex128 {
		return plan.kernelHat(countingKernel{n: &evals}, [3]int8{2, 0, 0}, 0.5)
	})
	if n, want := evals.Load(), int64(7*7*7); n != want {
		t.Errorf("%d kernel evaluations, want one build of %d", n, want)
	}
	for g, ghat := range got {
		if &ghat[0] != &got[0][0] {
			t.Fatalf("goroutine %d got a different grid", g)
		}
	}
}

func TestKernelHatFiniteEverywhere(t *testing.T) {
	// V-list offsets never bring lattice points into coincidence, so the
	// grids must be finite; and the zero-frequency component equals the
	// sum of kernel samples.
	plan := newFFTPlan(4, SurfaceGrid(4))
	for _, off := range [][3]int8{{2, 0, 0}, {3, 3, 3}, {-2, 1, 0}, {0, 0, 2}} {
		g := plan.kernelHat(Laplace{}, off, 0.125)
		for i, v := range g {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				t.Fatalf("offset %v: non-finite spectral value at %d", off, i)
			}
		}
	}
}

func TestMod(t *testing.T) {
	cases := []struct{ a, m, want int }{
		{5, 8, 5}, {-1, 8, 7}, {8, 8, 0}, {-8, 8, 0}, {-9, 8, 7},
	}
	for _, c := range cases {
		if got := mod(c.a, c.m); got != c.want {
			t.Errorf("mod(%d,%d) = %d, want %d", c.a, c.m, got, c.want)
		}
	}
}
