package fmm_test

import (
	"fmt"

	"dvfsroofline/internal/fmm"
)

func ExampleEvaluate() {
	pts := fmm.GeneratePoints(fmm.Uniform, 2000, 1)
	dens := fmm.GenerateDensities(2000, 2)
	res, err := fmm.Evaluate(pts, dens, fmm.Options{Q: 50})
	if err != nil {
		fmt.Println(err)
		return
	}
	exact := fmm.DirectSum(pts, dens, nil, 0)
	fmt.Println("error below 1e-3:", fmm.RelErrL2(res.Potentials, exact) < 1e-3)
	fmt.Println("leaves:", res.Tree.NumLeaves())
	// Output:
	// error below 1e-3: true
	// leaves: 64
}

func ExampleSurfaceCount() {
	fmt.Println(fmm.SurfaceCount(4), fmm.SurfaceCount(6))
	// Output: 56 152
}
