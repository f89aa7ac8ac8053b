package fmm

import (
	"sync"

	"dvfsroofline/internal/linalg"
)

// rcond is the relative singular-value cutoff used when pseudo-inverting
// the (mildly ill-conditioned) equivalent-to-check operators. The value
// trades approximation accuracy against noise amplification; 1e-9 is the
// standard KIFMM choice for double precision.
const rcond = 1e-9

// levelOps holds the translation operators for one tree level (box half
// width h = rootHalf / 2^level). Operators depend only on the level for a
// fixed kernel, so they are computed once and shared across the level's
// nodes. Nothing here assumes a homogeneous kernel — operators are built
// per level, which is what keeps the method kernel-independent. An
// evaluation builds them only for levels farLevel and below: levels 0
// and 1 have no far-field work.
type levelOps struct {
	uc2ue *linalg.Matrix    // pinv: upward check potential -> upward equivalent density
	dc2de *linalg.Matrix    // pinv: downward check potential -> downward equivalent density
	m2m   [8]*linalg.Matrix // child octant equivalent -> parent upward check
	l2l   [8]*linalg.Matrix // parent downward equivalent -> child downward check

	m2l   map[[3]int8]*linalg.Matrix // V-list offset -> (source UE -> target DC)
	m2lMu sync.Mutex
}

// operatorSet builds and caches levelOps per level for one kernel and
// root geometry.
type operatorSet struct {
	kernel   Kernel
	unitSurf []Point // unit cube-surface grid
	rootHalf float64

	mu     sync.Mutex
	levels map[int]*levelOps
}

func newOperatorSet(k Kernel, surfaceOrder int, rootHalf float64) *operatorSet {
	return &operatorSet{
		kernel:   k,
		unitSurf: SurfaceGrid(surfaceOrder),
		rootHalf: rootHalf,
		levels:   make(map[int]*levelOps),
	}
}

func (o *operatorSet) halfAt(level int) float64 {
	h := o.rootHalf
	for i := 0; i < level; i++ {
		h /= 2
	}
	return h
}

// kernelMatrix evaluates K(target_i, source_j) into a dense matrix.
func (o *operatorSet) kernelMatrix(targets, sources []Point) *linalg.Matrix {
	m := linalg.NewMatrix(len(targets), len(sources))
	for i, t := range targets {
		row := m.Row(i)
		for j, s := range sources {
			row[j] = o.kernel.Eval(t.X-s.X, t.Y-s.Y, t.Z-s.Z)
		}
	}
	return m
}

// at returns the operators for a level, building them on first use.
func (o *operatorSet) at(level int) *levelOps {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ops, ok := o.levels[level]; ok {
		return ops
	}
	h := o.halfAt(level)
	origin := Point{}

	ue := placeSurface(o.unitSurf, origin, h, equivRadius)
	uc := placeSurface(o.unitSurf, origin, h, checkRadius)
	dc := placeSurface(o.unitSurf, origin, h, equivRadius)
	de := placeSurface(o.unitSurf, origin, h, checkRadius)

	ops := &levelOps{
		uc2ue: linalg.PseudoInverse(o.kernelMatrix(uc, ue), rcond),
		dc2de: linalg.PseudoInverse(o.kernelMatrix(dc, de), rcond),
		m2l:   make(map[[3]int8]*linalg.Matrix),
	}

	// M2M: child (level+1) equivalent surface -> this level's upward
	// check surface, per octant. L2L: this level's downward equivalent ->
	// child downward check.
	ch := h / 2
	for oct := 0; oct < 8; oct++ {
		cc := octantCenter(origin, h, oct)
		childUE := placeSurface(o.unitSurf, cc, ch, equivRadius)
		childDC := placeSurface(o.unitSurf, cc, ch, equivRadius)
		ops.m2m[oct] = o.kernelMatrix(uc, childUE)
		ops.l2l[oct] = o.kernelMatrix(childDC, de)
	}

	o.levels[level] = ops
	return ops
}

// m2lFor returns the dense M2L operator for a same-level V-list offset
// (in units of the box edge 2h): source upward-equivalent densities to
// target downward-check potentials. Operators are cached per offset and
// built under the level's lock, so each is built and counted once.
func (o *operatorSet) m2lFor(level int, off [3]int8) *linalg.Matrix {
	ops := o.at(level)
	ops.m2lMu.Lock()
	defer ops.m2lMu.Unlock()
	if m, ok := ops.m2l[off]; ok {
		return m
	}
	h := o.halfAt(level)
	src := placeSurface(o.unitSurf, Point{}, h, equivRadius)
	tc := Point{2 * h * float64(off[0]), 2 * h * float64(off[1]), 2 * h * float64(off[2])}
	dst := placeSurface(o.unitSurf, tc, h, equivRadius)
	m := o.kernelMatrix(dst, src)
	ops.m2l[off] = m
	return m
}

// vOffset computes the integer offset (in box edges) from source node s
// to target node t at the same level; used to key M2L operators.
func vOffset(t, s *Node) [3]int8 {
	edge := 2 * t.Half
	d := t.Center.Sub(s.Center)
	return [3]int8{
		int8(roundInt(d.X / edge)),
		int8(roundInt(d.Y / edge)),
		int8(roundInt(d.Z / edge)),
	}
}

func roundInt(x float64) int {
	if x >= 0 {
		return int(x + 0.5)
	}
	return -int(-x + 0.5)
}
