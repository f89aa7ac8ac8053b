package fmm

// useAVX2 routes laplaceSum's blocks of four targets and cmulAcc's blocks
// of four complex values through the AVX2 kernels. It is set once from
// CPUID; tests flip it to compare paths.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// ymm registers: CPUID.1:ECX has OSXSAVE and AVX, XCR0 has the SSE and
// AVX state bits, and CPUID.7.0:EBX has AVX2.
func hasAVX2() bool

// laplace4 sets sum[k] = Σ_j q[j]/|t_k − src[j]| over the sources with
// r² > 0, for the four targets whose x, y and z coordinates are blk[0:4],
// blk[4:8] and blk[8:12]. Each lane adds its terms in source order, with
// the scalar loop's operations: sub, mul, add, sqrt, div, add. It reads
// q[:len(src)]; the caller checks that q is long enough.
//
//go:noescape
func laplace4(blk *[12]float64, src []Point, q []float64, sum *[4]float64)
