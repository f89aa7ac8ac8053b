package fmm

import (
	"math"
	"testing"
)

// evaluateAndCompare runs the FMM and the direct sum and returns the
// relative L2 error.
func evaluateAndCompare(t *testing.T, d Distribution, n int, opt Options, seed int64) (float64, *Result) {
	t.Helper()
	pts := GeneratePoints(d, n, seed)
	dens := GenerateDensities(n, seed+1)
	res, err := Evaluate(pts, dens, opt)
	if err != nil {
		t.Fatal(err)
	}
	exact := DirectSum(pts, dens, opt.Kernel, 0)
	return RelErrL2(res.Potentials, exact), res
}

func TestAccuracyUniform(t *testing.T) {
	err, _ := evaluateAndCompare(t, Uniform, 3000, Options{Q: 40}, 1)
	if err > 2e-3 {
		t.Errorf("uniform: relative L2 error %.2e too large", err)
	}
	t.Logf("uniform N=3000 Q=40 p=4: rel L2 err = %.2e", err)
}

func TestAccuracyPlummerAdaptive(t *testing.T) {
	// Plummer clusters force an adaptive tree with non-empty W/X lists.
	err, res := evaluateAndCompare(t, Plummer, 3000, Options{Q: 40}, 2)
	if err > 2e-3 {
		t.Errorf("plummer: relative L2 error %.2e too large", err)
	}
	s := res.Tree.Stats()
	if s.TotalW == 0 || s.TotalX == 0 {
		t.Error("plummer tree should exercise W and X lists")
	}
	t.Logf("plummer N=3000: rel err %.2e, W entries %d, X entries %d", err, s.TotalW, s.TotalX)
}

func TestAccuracySphere(t *testing.T) {
	err, _ := evaluateAndCompare(t, SphereSurface, 3000, Options{Q: 40}, 3)
	if err > 2e-3 {
		t.Errorf("sphere: relative L2 error %.2e too large", err)
	}
}

func TestAccuracyImprovesWithSurfaceOrder(t *testing.T) {
	err4, _ := evaluateAndCompare(t, Uniform, 2000, Options{Q: 40, SurfaceOrder: 4}, 4)
	err6, _ := evaluateAndCompare(t, Uniform, 2000, Options{Q: 40, SurfaceOrder: 6}, 4)
	if err6 >= err4 {
		t.Errorf("p=6 error %.2e not better than p=4 error %.2e", err6, err4)
	}
	t.Logf("convergence: p=4 -> %.2e, p=6 -> %.2e", err4, err6)
}

func TestFFTM2LMatchesDense(t *testing.T) {
	pts := GeneratePoints(Plummer, 2500, 5)
	dens := GenerateDensities(2500, 6)
	dense, err := Evaluate(pts, dens, Options{Q: 30})
	if err != nil {
		t.Fatal(err)
	}
	fftr, err := Evaluate(pts, dens, Options{Q: 30, UseFFTM2L: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := RelErrL2(fftr.Potentials, dense.Potentials); d > 1e-10 {
		t.Errorf("FFT M2L differs from dense by %.2e", d)
	}
}

func TestKernelIndependenceYukawa(t *testing.T) {
	// The same machinery must work for a different kernel with no code
	// changes — the defining KIFMM property.
	opt := Options{Q: 40, Kernel: Yukawa{Lambda: 1.5}}
	err, _ := evaluateAndCompare(t, Uniform, 2000, opt, 7)
	if err > 5e-3 {
		t.Errorf("yukawa: relative L2 error %.2e too large", err)
	}
	t.Logf("yukawa λ=1.5: rel err %.2e", err)
}

func TestSmallNDegeneratesToDirect(t *testing.T) {
	// With N <= Q the tree is one leaf and the FMM is exactly the direct
	// sum (single U-list self interaction).
	pts := GeneratePoints(Uniform, 50, 8)
	dens := GenerateDensities(50, 9)
	res, err := Evaluate(pts, dens, Options{Q: 128})
	if err != nil {
		t.Fatal(err)
	}
	exact := DirectSum(pts, dens, nil, 1)
	if d := RelErrL2(res.Potentials, exact); d > 1e-13 {
		t.Errorf("single-leaf FMM differs from direct by %.2e", d)
	}
}

// TestEvaluateShallowTrees covers the trees where the passes above
// farLevel matter: depth 0 (one leaf), depth 1 (all leaves at level 1),
// depth 2 (the first level with V lists) and an adaptive Plummer tree
// with a leaf at level 1, on both M2L paths, each against the direct sum.
func TestEvaluateShallowTrees(t *testing.T) {
	for _, tc := range []struct {
		name      string
		d         Distribution
		n, q      int
		seed      int64
		depth     int // -1: any depth, with a leaf at level 1
		tolerance float64
	}{
		{"depth0", Uniform, 50, 128, 8, 0, 1e-13},
		{"depth1", Uniform, 300, 64, 14, 1, 1e-13},
		{"depth2", Uniform, 2000, 64, 15, 2, 2e-3},
		{"plummer_level1_leaf", Plummer, 1000, 40, 1, -1, 2e-3},
	} {
		for _, fft := range []bool{false, true} {
			name := tc.name + "/dense"
			if fft {
				name = tc.name + "/fft"
			}
			t.Run(name, func(t *testing.T) {
				err, res := evaluateAndCompare(t, tc.d, tc.n, Options{Q: tc.q, UseFFTM2L: fft}, tc.seed)
				if tc.depth >= 0 && res.Tree.Depth() != tc.depth {
					t.Fatalf("tree depth %d, want %d", res.Tree.Depth(), tc.depth)
				}
				if tc.depth < 0 && !hasLeafAt(res.Tree, 1) {
					t.Fatal("tree has no leaf at level 1")
				}
				if err > tc.tolerance {
					t.Errorf("relative L2 error %.2e, want at most %.0e", err, tc.tolerance)
				}
			})
		}
	}
}

// TestOperatorsStartAtFarLevel checks that newEngine builds operators
// only for the levels that have far-field work: none for trees of depth
// 0 and 1, and one set per level from farLevel down otherwise.
func TestOperatorsStartAtFarLevel(t *testing.T) {
	for _, tc := range []struct {
		d     Distribution
		n, q  int
		seed  int64
		depth int
	}{
		{Uniform, 50, 128, 8, 0},
		{Uniform, 300, 64, 14, 1},
		{Plummer, 1000, 40, 1, -1},
	} {
		pts := GeneratePoints(tc.d, tc.n, tc.seed)
		opt, err := Options{Q: tc.q}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildTree(pts, opt.Q, opt.MaxLevel)
		if err != nil {
			t.Fatal(err)
		}
		if tc.depth >= 0 && tree.Depth() != tc.depth {
			t.Fatalf("tree depth %d, want %d", tree.Depth(), tc.depth)
		}
		e := newEngine(tree, GenerateDensities(len(pts), 2), opt)
		for lvl := range e.ops.levels {
			if lvl < farLevel {
				t.Errorf("depth %d: operators built for level %d, above farLevel %d", tree.Depth(), lvl, farLevel)
			}
		}
		if got, want := len(e.ops.levels), max(0, tree.Depth()+1-farLevel); got != want {
			t.Errorf("depth %d: operators for %d levels, want %d", tree.Depth(), got, want)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	pts := GeneratePoints(Plummer, 1500, 10)
	dens := GenerateDensities(1500, 11)
	for _, tc := range []struct {
		name string
		fft  bool
	}{{"dense", false}, {"fft", true}} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Evaluate(pts, dens, Options{Q: 25, UseFFTM2L: tc.fft, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Evaluate(pts, dens, Options{Q: 25, UseFFTM2L: tc.fft, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Potentials {
				if math.Float64bits(a.Potentials[i]) != math.Float64bits(b.Potentials[i]) {
					t.Fatalf("potential %d differs across worker counts: %v vs %v",
						i, a.Potentials[i], b.Potentials[i])
				}
			}
			if a.Profiles != b.Profiles {
				t.Errorf("profiles differ across worker counts:\n%+v\n%+v", a.Profiles, b.Profiles)
			}
		})
	}
}

func TestEvaluateInputErrors(t *testing.T) {
	pts := GeneratePoints(Uniform, 10, 1)
	if _, err := Evaluate(pts, make([]float64, 5), Options{}); err == nil {
		t.Error("mismatched densities accepted")
	}
	if _, err := Evaluate(nil, nil, Options{}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestEvaluateRejectsInvalidInput(t *testing.T) {
	pts := GeneratePoints(Uniform, 10, 1)
	dens := GenerateDensities(10, 2)
	with := func(i int, p Point) []Point {
		out := append([]Point(nil), pts...)
		out[i] = p
		return out
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		eval    func() (*Result, error)
		wantErr string
	}{
		{"NaN coordinate", func() (*Result, error) {
			return Evaluate(with(3, Point{0.5, nan, 0.5}), dens, Options{})
		}, "fmm: source point 3 has non-finite coordinate"},
		{"+Inf coordinate", func() (*Result, error) {
			return Evaluate(with(9, Point{inf, 0, 0}), dens, Options{})
		}, "fmm: source point 9 has non-finite coordinate"},
		{"-Inf coordinate", func() (*Result, error) {
			return Evaluate(with(0, Point{0, 0, -inf}), dens, Options{})
		}, "fmm: source point 0 has non-finite coordinate"},
		{"surface order 1", func() (*Result, error) {
			return Evaluate(pts, dens, Options{SurfaceOrder: 1})
		}, "fmm: invalid surface order 1"},
		{"surface order -1", func() (*Result, error) {
			return Evaluate(pts, dens, Options{SurfaceOrder: -1})
		}, "fmm: invalid surface order -1"},
		{"NaN density propagates", func() (*Result, error) {
			d := append([]float64(nil), dens...)
			d[5] = nan
			return Evaluate(pts, d, Options{})
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.eval()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Ten points make one leaf, so every other point sees density
			// 5 directly; a point's own density never reaches it.
			for i, v := range res.Potentials {
				if math.IsNaN(v) != (i != 5) {
					t.Errorf("potential %d = %v, want NaN only where density 5 reaches", i, v)
				}
			}
		})
	}
}

func TestDirectSumKnownTwoBody(t *testing.T) {
	// Two unit charges at distance 1: each feels 1/(4π).
	pts := []Point{{0, 0, 0}, {1, 0, 0}}
	dens := []float64{1, 1}
	out := DirectSum(pts, dens, nil, 1)
	want := 1 / (4 * math.Pi)
	for i, v := range out {
		if math.Abs(v-want) > 1e-15 {
			t.Errorf("potential[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestRelErrL2(t *testing.T) {
	if RelErrL2([]float64{1, 2}, []float64{1, 2}) != 0 {
		t.Error("identical vectors should have zero error")
	}
	if got := RelErrL2([]float64{0, 0}, []float64{3, 4}); math.Abs(got-1) > 1e-15 {
		t.Errorf("zero approx error = %v, want 1", got)
	}
	if RelErrL2([]float64{0}, []float64{0}) != 0 {
		t.Error("0/0 should be 0")
	}
}

func TestLaplaceKernelValues(t *testing.T) {
	k := Laplace{}
	if k.Eval(0, 0, 0) != 0 {
		t.Error("self-interaction must be zero")
	}
	if got := k.Eval(1, 0, 0); math.Abs(got-1/(4*math.Pi)) > 1e-16 {
		t.Errorf("K(r=1) = %v", got)
	}
	if k.Name() != "laplace3d" {
		t.Error("name wrong")
	}
	y := Yukawa{Lambda: 0}
	if math.Abs(y.Eval(0.5, 0, 0)-k.Eval(0.5, 0, 0)) > 1e-16 {
		t.Error("Yukawa λ=0 should equal Laplace")
	}
	if y.Eval(0, 0, 0) != 0 {
		t.Error("Yukawa self-interaction must be zero")
	}
}

func TestComplexityScalesLinearly(t *testing.T) {
	// The FMM's total kernel evaluations must grow ~linearly in N: going
	// 4096 -> 16384 at fixed Q should grow direct-phase work by ~4x, not
	// 16x (the quadratic signature).
	count := func(n int) float64 {
		pts := GeneratePoints(Uniform, n, 13)
		tree, err := BuildTree(pts, 64, 20)
		if err != nil {
			t.Fatal(err)
		}
		tree.BuildLists()
		ts := countPhases(tree, SurfaceCount(4), false, 4)
		var tot float64
		for ph := Phase(0); ph < NumPhases; ph++ {
			tot += float64(ts[ph].kernelEvals) + float64(ts[ph].matvecOps)
		}
		return tot
	}
	small := count(4096)
	big := count(16384)
	ratio := big / small
	if ratio > 8 {
		t.Errorf("work ratio for 4x points = %.1f; quadratic behaviour suspected", ratio)
	}
	t.Logf("4x points -> %.2fx work", ratio)
}

func TestKernelIndependenceGaussian(t *testing.T) {
	// A smooth, non-singular, non-homogeneous kernel: nothing about the
	// machinery may assume a 1/r-like singularity.
	opt := Options{Q: 40, Kernel: Gaussian{Sigma: 0.35}}
	err, _ := evaluateAndCompare(t, Uniform, 2000, opt, 31)
	if err > 1e-3 {
		t.Errorf("gaussian: relative L2 error %.2e too large", err)
	}
	t.Logf("gaussian σ=0.35: rel err %.2e", err)
}

func TestLargeScaleSoak(t *testing.T) {
	// Large-N validation without an O(N²) reference: evaluate 100k
	// sources with the FMM and spot-check a handful of probe targets
	// against the exact sum (cheap: N evals per probe).
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const n = 100000
	pts := GeneratePoints(Plummer, n, 131)
	dens := GenerateDensities(n, 132)
	res, err := Evaluate(pts, dens, Options{Q: 100, UseFFTM2L: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	probes := []int{0, n / 3, n / 2, 2 * n / 3, n - 1}
	for _, pi := range probes {
		var exact float64
		x := pts[pi]
		for j, y := range pts {
			exact += (Laplace{}).Eval(x.X-y.X, x.Y-y.Y, x.Z-y.Z) * dens[j]
		}
		rel := math.Abs(res.Potentials[pi]-exact) / math.Abs(exact)
		if rel > 5e-3 {
			t.Errorf("probe %d: FMM %v vs exact %v (rel %.2e)", pi, res.Potentials[pi], exact, rel)
		}
	}
}
