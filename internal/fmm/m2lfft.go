package fmm

import (
	"sync"

	"dvfsroofline/internal/fft"
)

// FFT-accelerated M2L (V-list) translation, the variant the paper's GPU
// implementation uses (§III-B: the V list "approximates interactions with
// far neighbors through fast Fourier transforms").
//
// The trick (Ying et al.): equivalent and check surface points lie on the
// p³ lattice of each box, and same-level boxes are offset by exactly
// (p-1) lattice steps, so the check potentials of a target box are a 3-D
// discrete convolution of the source box's equivalent densities with
// kernel samples on the relative lattice. Embedding both in a (2p)³
// cyclic grid turns every V-list interaction into a pointwise product in
// Fourier space:
//
//	T̂_target += Ĝ_offset ⊙ q̂_source
//
// with one forward FFT per source box, one inverse FFT per target box,
// and O(M³) work per pair instead of O(nsurf²).

// latticeIndex converts a surface-point coordinate (in units of the box's
// lattice with spacing 2h/(p-1), centered on the box) to grid indices
// 0..p-1 per axis.
func latticeIndex(u Point, p int) (int, int, int) {
	// unit surface coordinates are in [-1, 1] with spacing 2/(p-1)
	f := float64(p-1) / 2
	return roundInt((u.X + 1) * f), roundInt((u.Y + 1) * f), roundInt((u.Z + 1) * f)
}

// fftPlan holds the per-level spectral kernels and scratch geometry.
type fftPlan struct {
	p    int // surface order
	m    int // grid extent per axis = 2p
	dim  fft.Dim3
	surf []Point // unit surface grid
	// surfIdx[i] is the linear grid index of unit-surface point i.
	surfIdx []int

	mu      sync.Mutex
	kernels map[[3]int8][]complex128 // per offset: Ĝ on the cyclic grid
}

func newFFTPlan(p int, surf []Point) *fftPlan {
	m := 2 * p
	plan := &fftPlan{
		p: p, m: m,
		dim:     fft.Dim3{Nx: m, Ny: m, Nz: m},
		surf:    surf,
		surfIdx: make([]int, len(surf)),
		kernels: make(map[[3]int8][]complex128),
	}
	for i, u := range surf {
		ix, iy, iz := latticeIndex(u, p)
		plan.surfIdx[i] = plan.dim.Index(ix, iy, iz)
	}
	return plan
}

// kernelHat returns (building if needed) the spectral kernel for a V-list
// offset at the given box half-width. G[d] = K((offset·(p-1) + d)·δ) for
// relative lattice displacements d ∈ (-p, p)³, embedded cyclically. Grids
// are built under the plan's lock, so each is built once.
func (pl *fftPlan) kernelHat(k Kernel, off [3]int8, h float64) []complex128 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if g, ok := pl.kernels[off]; ok {
		return g
	}
	delta := 2 * h / float64(pl.p-1)
	base := [3]float64{
		float64(off[0]) * float64(pl.p-1) * delta,
		float64(off[1]) * float64(pl.p-1) * delta,
		float64(off[2]) * float64(pl.p-1) * delta,
	}
	g := make([]complex128, pl.dim.Len())
	for dx := -pl.p + 1; dx < pl.p; dx++ {
		for dy := -pl.p + 1; dy < pl.p; dy++ {
			for dz := -pl.p + 1; dz < pl.p; dz++ {
				v := k.Eval(base[0]+float64(dx)*delta, base[1]+float64(dy)*delta, base[2]+float64(dz)*delta)
				g[pl.dim.Index(mod(dx, pl.m), mod(dy, pl.m), mod(dz, pl.m))] = complex(v, 0)
			}
		}
	}
	fft.Forward3(g, pl.dim)
	pl.kernels[off] = g
	return g
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

// vPhaseFFT computes the V phase through the spectral path, level by
// level: forward-transform every source box's equivalent densities,
// accumulate Ĝ⊙q̂ per target, inverse-transform, and scatter the surface
// values into the downward check potentials.
func (e *engine) vPhaseFFT() {
	p := e.opt.SurfaceOrder
	plan := newFFTPlan(p, e.ops.unitSurf)
	dim := plan.dim

	for lvl := range e.byLevel {
		// Collect this level's targets and the sources they reference.
		var targets []int
		sources := map[int32]bool{}
		for _, i := range e.byLevel[lvl] {
			n := &e.t.Nodes[i]
			if len(n.V) == 0 {
				continue
			}
			targets = append(targets, i)
			for _, v := range n.V {
				sources[v] = true
			}
		}
		if len(targets) == 0 {
			continue
		}
		// The kernel grids depend on the level's box size; per-level plans
		// keep the method kernel-independent (no homogeneity assumption).
		levelPlan := newFFTPlan(p, e.ops.unitSurf)
		h := e.ops.halfAt(lvl)

		// Forward FFT per source box.
		qhat := make(map[int32][]complex128, len(sources))
		var mu sync.Mutex
		srcList := make([]int, 0, len(sources))
		for s := range sources {
			srcList = append(srcList, int(s))
		}
		e.parallelNodes(srcList, func(si int) {
			grid := make([]complex128, dim.Len())
			for k, idx := range plan.surfIdx {
				grid[idx] = complex(e.upEquiv[si][k], 0)
			}
			fft.Forward3(grid, dim)
			mu.Lock()
			qhat[int32(si)] = grid
			mu.Unlock()
		})

		// Pre-build kernel grids sequentially for determinism.
		for _, ti := range targets {
			n := &e.t.Nodes[ti]
			for _, v := range n.V {
				levelPlan.kernelHat(e.opt.Kernel, vOffset(n, &e.t.Nodes[v]), h)
			}
		}

		// Accumulate spectrally and invert per target.
		e.parallelNodes(targets, func(ti int) {
			n := &e.t.Nodes[ti]
			acc := make([]complex128, dim.Len())
			for _, v := range n.V {
				ghat := levelPlan.kernelHat(e.opt.Kernel, vOffset(n, &e.t.Nodes[v]), h)
				src := qhat[v]
				for k := range acc {
					acc[k] += ghat[k] * src[k]
				}
			}
			fft.Inverse3(acc, dim)
			dst := e.dnCheck[ti]
			for k, idx := range plan.surfIdx {
				dst[k] += real(acc[idx])
			}
		})
	}
}
