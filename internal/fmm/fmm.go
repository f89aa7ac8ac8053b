package fmm

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/par"
)

// Options configures an FMM evaluation.
type Options struct {
	// Q is the maximum number of points per leaf box (the paper's tuning
	// parameter: large Q shifts work into the compute-bound U phase,
	// small Q into the bandwidth-bound V phase). Default 128.
	Q int
	// SurfaceOrder is the number of equivalent-surface points per cube
	// edge; accuracy grows with it. Default 4 (56 surface points); it
	// must be at least 2.
	SurfaceOrder int
	// UseFFTM2L selects the FFT-accelerated V-list translation, the
	// variant the paper's GPU implementation uses. Dense M2L stays the
	// default because the counted V-phase profile differs by path
	// (TestCountPhasesVDenseVsFFT) and workload.profilePool evaluates
	// with zero Options: flipping the default would rewrite every
	// generated trace and the soak goldens.
	UseFFTM2L bool
	// MaxLevel bounds tree depth. Default 20.
	MaxLevel int
	// Workers bounds evaluation parallelism. Default GOMAXPROCS.
	Workers int
	// Kernel is the interaction kernel. Default Laplace.
	Kernel Kernel
}

// withDefaults fills the zero fields with their defaults and rejects a
// surface order below 2, the smallest SurfaceGrid builds.
func (o Options) withDefaults() (Options, error) {
	if o.Q == 0 {
		o.Q = 128
	}
	if o.SurfaceOrder == 0 {
		o.SurfaceOrder = 4
	}
	if o.MaxLevel == 0 {
		o.MaxLevel = 20
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Kernel == nil {
		o.Kernel = Laplace{}
	}
	if o.SurfaceOrder < 2 {
		return o, fmt.Errorf("fmm: invalid surface order %d", o.SurfaceOrder)
	}
	return o, nil
}

// Result holds the outcome of an FMM evaluation.
type Result struct {
	// Potentials[i] is the potential at input point i (original order).
	Potentials []float64
	// Tree is the octree used for the evaluation.
	Tree *Tree
	// Profiles hold the per-phase operation profiles — the performance-
	// counter view of the run that feeds the energy model.
	Profiles PhaseProfiles
	// SetupEvals counts kernel evaluations spent precomputing operators
	// (done on the host in the paper's implementation, hence kept out of
	// the device phases). Operators exist only for levels from farLevel
	// (2) down, so a tree of depth 0 or 1 counts none.
	SetupEvals int64
	// Options echoes the effective (defaulted) options.
	Options Options
}

// Evaluate computes the N-body potentials f(x_i) = Σ_j K(x_i, y_j)·s_j
// (paper Eq. 10) for sources == targets == points, using the kernel-
// independent FMM.
func Evaluate(points []Point, densities []float64, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(points) != len(densities) {
		return nil, fmt.Errorf("fmm: %d points but %d densities", len(points), len(densities))
	}
	tree, err := BuildTree(points, opt.Q, opt.MaxLevel)
	if err != nil {
		return nil, err
	}
	return evaluateOnTree(tree, densities, opt)
}

// newEngine prepares an engine over a listed tree with permuted
// densities and warmed operators.
func newEngine(tree *Tree, densities []float64, opt Options) *engine {
	tree.BuildLists()
	e := &engine{
		t:    tree,
		opt:  opt,
		ops:  newOperatorSet(opt.Kernel, opt.SurfaceOrder, tree.Nodes[tree.Root].Half),
		dens: make([]float64, len(tree.Src)),
		pot:  make([]float64, len(tree.Src)),
	}
	for i, orig := range tree.SrcPerm {
		e.dens[i] = densities[orig]
	}
	nsurf := SurfaceCount(opt.SurfaceOrder)
	e.upEquiv = makeVecs(len(tree.Nodes), nsurf)
	e.dnCheck = makeVecs(len(tree.Nodes), nsurf)
	e.dnEquiv = makeVecs(len(tree.Nodes), nsurf)
	e.byLevel = groupByLevel(tree)

	// Warm the operator cache level by level before the parallel phases,
	// so SetupEvals is deterministic and contention-free.
	for lvl := farLevel; lvl < len(e.byLevel); lvl++ {
		e.ops.at(lvl)
	}
	return e
}

// farLevel is the shallowest level with far-field work. The root has no
// colleagues and the eight level-1 boxes all touch, so no box above
// farLevel has a V or X list or sits in a W list: nothing reads its
// upward equivalent densities, and its downward check and equivalent
// densities stay +0. The tree passes skip those levels and build no
// operators for them; the results keep every bit, because the L2L they
// skip into level farLevel would add a vector of +0 to a downward check
// potential that is never -0 (it starts at +0 and is only added to).
const farLevel = 2

// runTreePasses executes the four tree phases (UP, V, X, DOWN), leaving
// every node's upward and downward equivalent densities populated.
func (e *engine) runTreePasses() {
	e.upward()
	switch {
	case e.opt.UseFFTM2L:
		e.vPhaseFFT()
	default:
		e.vPhaseDense()
	}
	e.xPhase()
	e.downward()
}

// result packages the engine's potentials and counted profiles.
func (e *engine) result() *Result {
	tree := e.t
	out := make([]float64, len(tree.Src))
	for i, orig := range tree.SrcPerm {
		out[orig] = e.pot[i]
	}
	nsurf := SurfaceCount(e.opt.SurfaceOrder)
	tallies := countPhases(tree, nsurf, e.opt.UseFFTM2L, e.opt.SurfaceOrder)
	var profiles PhaseProfiles
	for ph := Phase(0); ph < NumPhases; ph++ {
		profiles[ph] = tallies[ph].Profile()
	}
	return &Result{
		Potentials: out,
		Tree:       tree,
		Profiles:   profiles,
		SetupEvals: e.ops.evalCount.Load(),
		Options:    e.opt,
	}
}

func evaluateOnTree(tree *Tree, densities []float64, opt Options) (*Result, error) {
	e := newEngine(tree, densities, opt)
	e.runTreePasses()
	e.l2pPhase()
	e.wPhase()
	e.uPhase()
	return e.result(), nil
}

// Workload converts a phase profile into a device workload with the
// phase's characteristic occupancy.
func (r *Result) Workload(ph Phase) counters.Profile { return r.Profiles[ph] }

type engine struct {
	t    *Tree
	opt  Options
	ops  *operatorSet
	dens []float64 // densities, permuted order
	pot  []float64 // potentials, permuted order

	upEquiv [][]float64
	dnCheck [][]float64
	dnEquiv [][]float64
	byLevel [][]int // node indices grouped by level, index = level
}

func makeVecs(n, m int) [][]float64 {
	flat := make([]float64, n*m)
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*m : (i+1)*m]
	}
	return out
}

func groupByLevel(t *Tree) [][]int {
	depth := 0
	for i := range t.Nodes {
		if t.Nodes[i].Level > depth {
			depth = t.Nodes[i].Level
		}
	}
	out := make([][]int, depth+1)
	for i := range t.Nodes {
		lvl := t.Nodes[i].Level
		out[lvl] = append(out[lvl], i)
	}
	return out
}

// parallelNodes runs fn over the given node indices through par.For,
// bounded by Options.Workers. All phases are structured so that fn
// writes only state owned by its node, making this race-free. The tasks
// cannot fail, so For returns nil.
func (e *engine) parallelNodes(nodes []int, fn func(i int)) {
	_ = par.For(context.TODO(), e.opt.Workers, len(nodes), func(k int) error {
		fn(nodes[k])
		return nil
	})
}

// evalSum adds Σ_j K(x - y_j)·q_j to each accumulator for targets x.
func evalSum(k Kernel, targets []Point, acc []float64, sources []Point, q []float64) {
	if _, ok := k.(Laplace); ok {
		laplaceSum(targets, acc, sources, q)
		return
	}
	for i, t := range targets {
		var s float64
		for j, y := range sources {
			s += k.Eval(t.X-y.X, t.Y-y.Y, t.Z-y.Z) * q[j]
		}
		acc[i] += s
	}
}

// inv4pi is the Laplace kernel's 1/(4π), applied once per target sum.
const inv4pi = 1.0 / (4 * 3.141592653589793)

// laplaceSum is the concrete fast path for the Laplace kernel (avoids
// interface dispatch in the innermost loop, mirroring the hand-tuned
// inner kernels of the paper's CUDA implementation). Where useAVX2 is
// set it hands blocks of four targets to the laplace4 kernel, which keeps
// one sum per target and adds the sources in order; the last len%4
// targets, and every target elsewhere, take the scalar loop. The results
// are bit-identical either way: each step is the same correctly rounded
// IEEE operation with no fused multiply-add, and a masked source (r² = 0
// or NaN) adds +0, which leaves a sum that starts at +0 unchanged.
func laplaceSum(targets []Point, acc []float64, sources []Point, q []float64) {
	i := 0
	if useAVX2 && len(targets) >= 4 {
		// The kernel reads q[:len(sources)]; index it once here so a short
		// q panics with a bounds error as the scalar loop does.
		if len(sources) > 0 {
			_ = q[len(sources)-1]
		}
		var blk [12]float64 // targets' x, y, z in three rows of four
		var sum [4]float64
		for ; i+4 <= len(targets); i += 4 {
			for k, t := range targets[i : i+4] {
				blk[k], blk[4+k], blk[8+k] = t.X, t.Y, t.Z
			}
			laplace4(&blk, sources, q, &sum)
			for k, s := range sum {
				acc[i+k] += s * inv4pi
			}
		}
	}
	for ; i < len(targets); i++ {
		acc[i] += laplaceTarget(targets[i], sources, q) * inv4pi
	}
}

// laplaceTarget is the scalar loop: Σ_j q[j]/|t − sources[j]| over the
// sources with r² > 0, added in source order.
func laplaceTarget(t Point, sources []Point, q []float64) float64 {
	var s float64
	for j := range sources {
		dx := t.X - sources[j].X
		dy := t.Y - sources[j].Y
		dz := t.Z - sources[j].Z
		r2 := dx*dx + dy*dy + dz*dz
		if r2 > 0 {
			s += q[j] / math.Sqrt(r2)
		}
	}
	return s
}

// upward runs the UP phase: P2M at leaves, then M2M level by level
// toward the root, stopping at farLevel.
func (e *engine) upward() {
	nsurf := len(e.ops.unitSurf)
	for lvl := len(e.byLevel) - 1; lvl >= farLevel; lvl-- {
		ops := e.ops.at(lvl)
		e.parallelNodes(e.byLevel[lvl], func(i int) {
			n := &e.t.Nodes[i]
			chk := make([]float64, nsurf)
			if n.Leaf {
				ucPts := placeSurface(e.ops.unitSurf, n.Center, n.Half, checkRadius)
				evalSum(e.opt.Kernel, ucPts, chk, e.t.Src[n.SrcStart:n.SrcEnd], e.dens[n.SrcStart:n.SrcEnd])
			} else {
				tmp := make([]float64, nsurf)
				for _, c := range n.Children {
					if c == nilNode {
						continue
					}
					ops.m2m[e.t.Nodes[c].Octant].MulVecTo(tmp, e.upEquiv[c])
					for k := range chk {
						chk[k] += tmp[k]
					}
				}
			}
			ops.uc2ue.MulVecTo(e.upEquiv[i], chk)
		})
	}
}

// vPhaseDense applies dense M2L operators pair by pair.
//
//energylint:hotpath
func (e *engine) vPhaseDense() {
	nsurf := len(e.ops.unitSurf)
	// Pre-build the needed M2L operators sequentially (deterministic
	// eval counting), then apply in parallel.
	for i := range e.t.Nodes {
		n := &e.t.Nodes[i]
		for _, v := range n.V {
			e.ops.m2lFor(n.Level, vOffset(n, &e.t.Nodes[v]))
		}
	}
	all := make([]int, 0, len(e.t.Nodes))
	for i := range e.t.Nodes {
		if len(e.t.Nodes[i].V) > 0 {
			all = append(all, i)
		}
	}
	e.parallelNodes(all, func(i int) {
		n := &e.t.Nodes[i]
		tmp := make([]float64, nsurf)
		for _, v := range n.V {
			m := e.ops.m2lFor(n.Level, vOffset(n, &e.t.Nodes[v]))
			m.MulVecTo(tmp, e.upEquiv[v])
			dst := e.dnCheck[i]
			for k := range dst {
				dst[k] += tmp[k]
			}
		}
	})
}

// xPhase evaluates X-list source points directly onto downward check
// surfaces.
func (e *engine) xPhase() {
	var nodes []int
	for i := range e.t.Nodes {
		if len(e.t.Nodes[i].X) > 0 {
			nodes = append(nodes, i)
		}
	}
	e.parallelNodes(nodes, func(i int) {
		n := &e.t.Nodes[i]
		dcPts := placeSurface(e.ops.unitSurf, n.Center, n.Half, equivRadius)
		for _, x := range n.X {
			a := &e.t.Nodes[x]
			evalSum(e.opt.Kernel, dcPts, e.dnCheck[i], e.t.Src[a.SrcStart:a.SrcEnd], e.dens[a.SrcStart:a.SrcEnd])
		}
	})
}

// downward runs the DOWN tree pass from farLevel: convert check to
// equivalent densities and push to children (L2L), level by level.
func (e *engine) downward() {
	nsurf := len(e.ops.unitSurf)
	for lvl := farLevel; lvl < len(e.byLevel); lvl++ {
		ops := e.ops.at(lvl)
		e.parallelNodes(e.byLevel[lvl], func(i int) {
			n := &e.t.Nodes[i]
			// Parent contribution (L2L) arrives via the parent's
			// equivalent density, already computed on the previous level;
			// a parent above farLevel holds only +0.
			if n.Level > farLevel {
				tmp := make([]float64, nsurf)
				parentOps := e.ops.at(n.Level - 1)
				parentOps.l2l[n.Octant].MulVecTo(tmp, e.dnEquiv[n.Parent])
				dst := e.dnCheck[i]
				for k := range dst {
					dst[k] += tmp[k]
				}
			}
			ops.dc2de.MulVecTo(e.dnEquiv[i], e.dnCheck[i])
		})
	}
}

// l2pPhase evaluates each leaf's local expansion (downward equivalent
// densities) at its target points. Together with downward it forms the
// paper's DOWN phase.
func (e *engine) l2pPhase() {
	leaves := e.t.Leaves()
	e.parallelNodes(leaves, func(i int) {
		n := &e.t.Nodes[i]
		dePts := placeSurface(e.ops.unitSurf, n.Center, n.Half, checkRadius)
		evalSum(e.opt.Kernel, e.t.Src[n.SrcStart:n.SrcEnd], e.pot[n.SrcStart:n.SrcEnd], dePts, e.dnEquiv[i])
	})
}

// wPhase evaluates W-list upward equivalent densities at leaf targets.
func (e *engine) wPhase() {
	leaves := e.t.Leaves()
	e.parallelNodes(leaves, func(i int) {
		n := &e.t.Nodes[i]
		for _, w := range n.W {
			a := &e.t.Nodes[w]
			uePts := placeSurface(e.ops.unitSurf, a.Center, a.Half, equivRadius)
			evalSum(e.opt.Kernel, e.t.Src[n.SrcStart:n.SrcEnd], e.pot[n.SrcStart:n.SrcEnd], uePts, e.upEquiv[w])
		}
	})
}

// uPhase computes the near-field directly, leaf against adjacent leaves.
func (e *engine) uPhase() {
	leaves := e.t.Leaves()
	e.parallelNodes(leaves, func(i int) {
		n := &e.t.Nodes[i]
		targets := e.t.Src[n.SrcStart:n.SrcEnd]
		acc := e.pot[n.SrcStart:n.SrcEnd]
		for _, u := range n.U {
			a := &e.t.Nodes[u]
			evalSum(e.opt.Kernel, targets, acc, e.t.Src[a.SrcStart:a.SrcEnd], e.dens[a.SrcStart:a.SrcEnd])
		}
	})
}
