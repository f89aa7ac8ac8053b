package fmm

import (
	"context"
	"math"
	"runtime"

	"dvfsroofline/internal/par"
)

// DirectSum evaluates the n-body sums exactly in O(N²) — the baseline the
// FMM approximates and the reference for accuracy tests. The computation
// is parallelized over targets.
func DirectSum(points []Point, densities []float64, k Kernel, workers int) []float64 {
	return DirectSumAt(points, points, densities, k, workers)
}

// DirectSumAt evaluates the exact potentials at arbitrary target points
// due to the given sources — the O(N·M) reference for EvaluateAt.
func DirectSumAt(targets, sources []Point, densities []float64, k Kernel, workers int) []float64 {
	if len(sources) != len(densities) {
		panic("fmm: DirectSumAt length mismatch")
	}
	if k == nil {
		k = Laplace{}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(targets)
	out := make([]float64, n)
	// One task per contiguous block of targets; a target's sum does not
	// depend on its block, so the output is the same at any worker count.
	// The tasks cannot fail, so For returns nil.
	chunk := max((n+workers-1)/workers, 1)
	_ = par.For(context.TODO(), workers, (n+chunk-1)/chunk, func(c int) error {
		lo, hi := c*chunk, min((c+1)*chunk, n)
		evalSum(k, targets[lo:hi], out[lo:hi], sources, densities)
		return nil
	})
	return out
}

// RelErrL2 returns the relative L2 error ||approx - exact|| / ||exact||,
// the accuracy metric used in FMM literature.
func RelErrL2(approx, exact []float64) float64 {
	if len(approx) != len(exact) {
		panic("fmm: RelErrL2 length mismatch")
	}
	var num, den float64
	for i := range approx {
		d := approx[i] - exact[i]
		num += d * d
		den += exact[i] * exact[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return 1
	}
	return math.Sqrt(num / den)
}
