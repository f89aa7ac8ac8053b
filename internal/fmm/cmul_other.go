//go:build !amd64

package fmm

// cmulAcc4 is the pure-Go form of the amd64 kernel. useAVX2 is false off
// amd64, so cmulAcc never calls it.
func cmulAcc4(acc, g, s []complex128) {
	for i := range acc {
		acc[i] += g[i] * s[i]
	}
}
