package fmm

// cmulAcc4 sets acc[k] += g[k]*s[k] for every k < len(acc), four complex
// values per iteration, two per ymm register. len(acc) must be a multiple
// of four; it reads g[:len(acc)] and s[:len(acc)], which the caller checks.
// Each lane does what Go compiles the scalar loop to: the products
// gr·sr, gi·si, gr·si and gi·sr, the real part by subtraction and the
// imaginary part by addition (VADDSUBPD), then one add into acc, with no
// fused multiply-add.
//
//go:noescape
func cmulAcc4(acc, g, s []complex128)
