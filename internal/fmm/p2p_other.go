//go:build !amd64

package fmm

// useAVX2 is false off amd64, so laplaceSum and cmulAcc always take their
// Go loops.
var useAVX2 = false

// laplace4 is the pure-Go form of the amd64 kernel: the scalar loop for
// four targets held as blk[0:4], blk[4:8] and blk[8:12].
func laplace4(blk *[12]float64, src []Point, q []float64, sum *[4]float64) {
	for k := range sum {
		sum[k] = laplaceTarget(Point{blk[k], blk[4+k], blk[8+k]}, src, q)
	}
}
