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

	mu sync.Mutex
	// kernels[vOffsetSlot(off)] is Ĝ on the cyclic grid for V-list offset
	// off, or nil until kernelHat builds it under mu. vPhaseFFT reads it
	// without mu, but only after building every grid it reads.
	kernels [7 * 7 * 7][]complex128
}

// vOffsetSlot numbers a V-list offset for a table of 7³ entries. A V-list
// box is a child of a colleague of its target's parent that does not
// touch the target, so each component lies in [-3, 3].
func vOffsetSlot(off [3]int8) int {
	return ((int(off[0])+3)*7+int(off[1])+3)*7 + int(off[2]) + 3
}

func newFFTPlan(p int, surf []Point) *fftPlan {
	m := 2 * p
	plan := &fftPlan{
		p: p, m: m,
		dim:     fft.Dim3{Nx: m, Ny: m, Nz: m},
		surf:    surf,
		surfIdx: make([]int, len(surf)),
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
	cached := &pl.kernels[vOffsetSlot(off)]
	if *cached != nil {
		return *cached
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
	*cached = g
	return g
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

// cmulAcc sets acc[k] += g[k]*s[k] for every k, the V phase's Hadamard
// multiply-accumulate. Where useAVX2 is set, blocks of four go to the
// cmulAcc4 kernel; the last len%4 values, and every value elsewhere, take
// the Go loop. The results are bit-identical either way: both do the same
// four correctly rounded products, one subtraction, one addition and one
// add into acc per value, with no fused multiply-add. A g or s shorter than
// acc panics with a bounds error before either path reads anything.
func cmulAcc(acc, g, s []complex128) {
	n := len(acc)
	if n == 0 {
		return
	}
	_, _ = g[n-1], s[n-1]
	i := 0
	if useAVX2 {
		i = n &^ 3
		cmulAcc4(acc[:i], g, s)
	}
	for ; i < n; i++ {
		acc[i] += g[i] * s[i]
	}
}

// vPhaseFFT computes the V phase through the spectral path, level by
// level: forward-transform every source box's equivalent densities,
// accumulate Ĝ⊙q̂ per target, inverse-transform, and scatter the surface
// values into the downward check potentials.
func (e *engine) vPhaseFFT() {
	// slot[v]-1 is source box v's grid in its level's qhat. A V-list box
	// sits on its target's level, so a box gets a slot at one level only.
	slot := make([]int32, len(e.t.Nodes))
	for lvl := farLevel; lvl < len(e.byLevel); lvl++ {
		var targets []int
		for _, i := range e.byLevel[lvl] {
			if len(e.t.Nodes[i].V) > 0 {
				targets = append(targets, i)
			}
		}
		if len(targets) == 0 {
			continue
		}
		// The kernel grids depend on the level's box size; per-level plans
		// keep the method kernel-independent (no homogeneity assumption).
		plan := newFFTPlan(e.opt.SurfaceOrder, e.ops.unitSurf)
		dim := plan.dim
		h := e.ops.halfAt(lvl)

		// Walk the V pairs once, sequentially and in target order: build
		// each offset's kernel grid, so builds are deterministic, and give
		// each source box a slot. The parallel loops below read only
		// these, with no lock and no map.
		var srcNodes []int
		for _, ti := range targets {
			n := &e.t.Nodes[ti]
			for _, v := range n.V {
				plan.kernelHat(e.opt.Kernel, vOffset(n, &e.t.Nodes[v]), h)
				if slot[v] == 0 {
					srcNodes = append(srcNodes, int(v))
					slot[v] = int32(len(srcNodes))
				}
			}
		}

		// Forward FFT per source box.
		size := dim.Len()
		qhat := make([]complex128, len(srcNodes)*size)
		e.parallelNodes(srcNodes, func(si int) {
			src := int(slot[si]-1) * size
			grid := qhat[src : src+size]
			for k, idx := range plan.surfIdx {
				grid[idx] = complex(e.upEquiv[si][k], 0)
			}
			fft.Forward3(grid, dim)
		})

		// Accumulate spectrally and invert per target.
		e.parallelNodes(targets, func(ti int) {
			n := &e.t.Nodes[ti]
			acc := make([]complex128, size)
			for _, v := range n.V {
				src := int(slot[v]-1) * size
				ghat := plan.kernels[vOffsetSlot(vOffset(n, &e.t.Nodes[v]))]
				cmulAcc(acc, ghat, qhat[src:src+size])
			}
			fft.Inverse3(acc, dim)
			dst := e.dnCheck[ti]
			for k, idx := range plan.surfIdx {
				dst[k] += real(acc[idx])
			}
		})
	}
}
