package fmm

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"dvfsroofline/internal/linalg"
)

// newTestOps returns an operator set on a unit root box.
func newTestOps(p int) *operatorSet {
	return newOperatorSet(Laplace{}, p, 0.5)
}

func TestEquivalentDensityReproducesFarField(t *testing.T) {
	// The defining KIFMM property: solving for an upward equivalent
	// density from check-surface potentials reproduces the source's far
	// field outside the check surface.
	ops := newTestOps(6)
	lv := ops.at(0)
	h := 0.5
	k := Laplace{}

	// A few interior sources with random-ish densities.
	sources := []Point{{0.1, -0.2, 0.05}, {-0.3, 0.25, -0.1}, {0.0, 0.4, 0.3}}
	dens := []float64{1.0, -0.7, 0.4}

	// Check potential on the upward check surface.
	uc := placeSurface(ops.unitSurf, Point{}, h, checkRadius)
	chk := make([]float64, len(uc))
	evalSum(k, uc, chk, sources, dens)

	// Equivalent density on the box surface.
	equiv := lv.uc2ue.MulVec(chk)
	ue := placeSurface(ops.unitSurf, Point{}, h, equivRadius)

	// Probe far points (well outside the check surface).
	probes := []Point{{5, 0, 0}, {3, 3, 3}, {0, -4, 2}, {2.2, -1.7, 0.4}}
	for _, p := range probes {
		var exact, approx float64
		for j, s := range sources {
			exact += k.Eval(p.X-s.X, p.Y-s.Y, p.Z-s.Z) * dens[j]
		}
		for j, s := range ue {
			approx += k.Eval(p.X-s.X, p.Y-s.Y, p.Z-s.Z) * equiv[j]
		}
		if rel := math.Abs(approx-exact) / math.Abs(exact); rel > 1e-5 {
			t.Errorf("probe %v: equivalent field %v vs exact %v (rel %.2e)", p, approx, exact, rel)
		}
	}
}

func TestM2MPreservesFarField(t *testing.T) {
	// Translating a child's equivalent density to its parent must
	// preserve the far field.
	ops := newTestOps(6)
	parent := ops.at(0)
	_ = ops.at(1)
	h := 0.5
	k := Laplace{}

	// Source inside child octant 0 (center (-h/2,-h/2,-h/2)).
	childCenter := octantCenter(Point{}, h, 0)
	sources := []Point{childCenter.Add(Point{0.05, -0.03, 0.08})}
	dens := []float64{1.25}

	// Child P2M.
	childOps := ops.at(1)
	cc := placeSurface(ops.unitSurf, childCenter, h/2, checkRadius)
	chk := make([]float64, len(cc))
	evalSum(k, cc, chk, sources, dens)
	childEquiv := childOps.uc2ue.MulVec(chk)

	// M2M: child equivalent -> parent check -> parent equivalent.
	parentChk := parent.m2m[0].MulVec(childEquiv)
	parentEquiv := parent.uc2ue.MulVec(parentChk)
	ue := placeSurface(ops.unitSurf, Point{}, h, equivRadius)

	for _, p := range []Point{{4, 1, 0}, {-3, -3, 3}, {0, 5, -2}} {
		var exact, approx float64
		for j, s := range sources {
			exact += k.Eval(p.X-s.X, p.Y-s.Y, p.Z-s.Z) * dens[j]
		}
		for j, s := range ue {
			approx += k.Eval(p.X-s.X, p.Y-s.Y, p.Z-s.Z) * parentEquiv[j]
		}
		if rel := math.Abs(approx-exact) / math.Abs(exact); rel > 1e-4 {
			t.Errorf("probe %v: M2M field %v vs exact %v (rel %.2e)", p, approx, exact, rel)
		}
	}
}

func TestOperatorCachePerLevel(t *testing.T) {
	ops := newTestOps(4)
	a := ops.at(2)
	b := ops.at(2)
	if a != b {
		t.Error("level operators not cached")
	}
	if ops.at(3) == a {
		t.Error("different levels share an operator set")
	}
}

func TestM2LForCachesPerOffset(t *testing.T) {
	ops := newTestOps(4)
	off := [3]int8{2, 0, -1}
	a := ops.m2lFor(1, off)
	b := ops.m2lFor(1, off)
	if a != b {
		t.Error("M2L operator not cached per offset")
	}
	if ops.m2lFor(1, [3]int8{0, 2, 0}) == a {
		t.Error("distinct offsets share an M2L operator")
	}
}

// countingKernel is the Laplace kernel with an evaluation counter that
// is safe for concurrent use.
type countingKernel struct {
	Laplace
	n *atomic.Int64
}

func (k countingKernel) Eval(dx, dy, dz float64) float64 {
	k.n.Add(1)
	return k.Laplace.Eval(dx, dy, dz)
}

// concurrently runs fn from 8 goroutines released together and returns
// their results.
func concurrently[T any](fn func() T) []T {
	out := make([]T, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out[g] = fn()
		}()
	}
	close(start)
	wg.Wait()
	return out
}

// TestM2LForConcurrentBuildsOnce asks 8 goroutines for one new offset:
// the operator must be built exactly once, one nsurf×nsurf block of
// kernel evaluations, and every caller must get the cached matrix.
func TestM2LForConcurrentBuildsOnce(t *testing.T) {
	var evals atomic.Int64
	ops := newOperatorSet(countingKernel{n: &evals}, 4, 0.5)
	ops.at(2)
	before := evals.Load()
	off := [3]int8{2, 0, -1}
	got := concurrently(func() *linalg.Matrix { return ops.m2lFor(2, off) })
	nsurf := int64(SurfaceCount(4))
	if n := evals.Load() - before; n != nsurf*nsurf {
		t.Errorf("%d kernel evaluations for one %d×%d operator", n, nsurf, nsurf)
	}
	for g, m := range got {
		if m != got[0] {
			t.Fatalf("goroutine %d got a different matrix", g)
		}
	}
}

func TestVOffset(t *testing.T) {
	h := 0.125
	a := &Node{Center: Point{0.5, 0.5, 0.5}, Half: h}
	b := &Node{Center: Point{0.5 + 2*2*h, 0.5 - 3*2*h, 0.5}, Half: h}
	off := vOffset(a, b)
	if off != [3]int8{-2, 3, 0} {
		t.Errorf("vOffset = %v, want [-2 3 0]", off)
	}
	// Antisymmetry.
	rev := vOffset(b, a)
	if rev != [3]int8{2, -3, 0} {
		t.Errorf("reverse vOffset = %v, want [2 -3 0]", rev)
	}
}

func TestKernelMatrixShapeAndSymmetry(t *testing.T) {
	ops := newTestOps(3)
	a := placeSurface(ops.unitSurf, Point{}, 0.5, 1.0)
	b := placeSurface(ops.unitSurf, Point{3, 0, 0}, 0.5, 1.0)
	m := ops.kernelMatrix(a, b)
	if m.Rows != len(a) || m.Cols != len(b) {
		t.Fatalf("kernel matrix %dx%d, want %dx%d", m.Rows, m.Cols, len(a), len(b))
	}
	// Laplace is symmetric in its arguments: K(x,y) = K(y,x).
	mt := ops.kernelMatrix(b, a)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-mt.At(j, i)) > 1e-15 {
				t.Fatal("kernel matrix not symmetric under argument swap")
			}
		}
	}
}

func TestHalfAt(t *testing.T) {
	ops := newTestOps(4)
	if ops.halfAt(0) != 0.5 {
		t.Errorf("halfAt(0) = %v", ops.halfAt(0))
	}
	if ops.halfAt(3) != 0.0625 {
		t.Errorf("halfAt(3) = %v, want 0.0625", ops.halfAt(3))
	}
}

func TestRoundInt(t *testing.T) {
	cases := map[float64]int{2.4: 2, 2.6: 3, -2.4: -2, -2.6: -3, 0: 0, 0.5: 1, -0.5: -1}
	for in, want := range cases {
		if got := roundInt(in); got != want {
			t.Errorf("roundInt(%v) = %d, want %d", in, got, want)
		}
	}
}
