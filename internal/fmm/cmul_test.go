package fmm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// runCmulAcc runs cmulAcc on a copy of acc with useAVX2 set to avx2,
// restoring the flag afterwards, even when cmulAcc panics.
func runCmulAcc(avx2 bool, acc, g, s []complex128) []complex128 {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = avx2
	out := append([]complex128(nil), acc...)
	cmulAcc(out, g, s)
	return out
}

// sameFloatBits reports whether a and b have the same bits or are both
// NaN. As in checkLaplacePaths, a NaN's payload is left open: Go may
// commute the operands of a complex multiply's parts or of acc += p.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkCmulAccPaths fails unless the AVX2 and Go paths leave the same
// bits in both parts of every accumulator, or NaN in both. It skips the
// comparison on a CPU without AVX2.
func checkCmulAccPaths(t testing.TB, acc, g, s []complex128) {
	t.Helper()
	want := runCmulAcc(false, acc, g, s)
	if !hostAVX2 {
		t.Skip("CPU lacks AVX2: only the Go path ran")
	}
	got := runCmulAcc(true, acc, g, s)
	for i := range want {
		if !sameFloatBits(real(got[i]), real(want[i])) || !sameFloatBits(imag(got[i]), imag(want[i])) {
			t.Fatalf("value %d of %d: acc %v += %v * %v: AVX2 %v (%#016x, %#016x), Go %v (%#016x, %#016x)",
				i, len(acc), acc[i], g[i], s[i],
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// cmulCase draws n accumulators, kernel and source values from one seed;
// each part comes from pick.
func cmulCase(n int, seed int64, pick func(*rand.Rand) float64) (acc, g, s []complex128) {
	rng := rand.New(rand.NewSource(seed))
	draw := func() []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(pick(rng), pick(rng))
		}
		return x
	}
	return draw(), draw(), draw()
}

func normal(rng *rand.Rand) float64 { return rng.NormFloat64() }

func TestCmulAccPathsBitIdentical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	// A NaN whose payload differs from math.NaN()'s and from the
	// hardware default NaN.
	otherNaN := math.Float64frombits(0x7ff8_dead_beef_0001)
	specials := []float64{0, negZero, 1, -1, 0.5, 3, 1e-160, -1e-160,
		5e-324, -2.2250738585072014e-308, 1e154, -1e200, math.MaxFloat64,
		inf, -inf, math.NaN(), otherNaN}
	special := func(rng *rand.Rand) float64 { return specials[rng.Intn(len(specials))] }

	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 512, 513} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			acc, g, s := cmulCase(n, int64(n)+1, normal)
			checkCmulAccPaths(t, acc, g, s)
		})
	}
	t.Run("signed zeros", func(t *testing.T) {
		// Every sign pattern of six zero parts: acc, g and s, real and
		// imaginary.
		var acc, g, s []complex128
		z := func(bit int) float64 {
			if bit != 0 {
				return negZero
			}
			return 0
		}
		for m := 0; m < 64; m++ {
			acc = append(acc, complex(z(m&1), z(m&2)))
			g = append(g, complex(z(m&4), z(m&8)))
			s = append(s, complex(z(m&16), z(m&32)))
		}
		checkCmulAccPaths(t, acc, g, s)
	})
	t.Run("subnormal products", func(t *testing.T) {
		// 1e-160² = 1e-320 is subnormal; products with 5e-324 round to
		// ±0 or the smallest subnormal.
		acc, g, s := cmulCase(37, 3, func(rng *rand.Rand) float64 {
			return []float64{1e-160, -3e-161, 5e-324, 2.5e-324, 1, -0.5}[rng.Intn(6)]
		})
		checkCmulAccPaths(t, acc, g, s)
	})
	t.Run("infinities", func(t *testing.T) {
		// Inf·0 and Inf−Inf give the default NaN; MaxFloat64² overflows.
		acc, g, s := cmulCase(41, 5, func(rng *rand.Rand) float64 {
			return []float64{inf, -inf, 0, negZero, 2, math.MaxFloat64}[rng.Intn(6)]
		})
		checkCmulAccPaths(t, acc, g, s)
	})
	t.Run("mixed specials", func(t *testing.T) {
		acc, g, s := cmulCase(513, 7, special)
		checkCmulAccPaths(t, acc, g, s)
	})
}

// FuzzCmulAcc reads accumulators, kernel and source values as raw
// float64 bit patterns, so the fuzzer reaches NaN payloads, subnormals
// and infinities, and compares the two paths as the table test does.
func FuzzCmulAcc(f *testing.F) {
	f.Add(uint8(5), []byte{})
	f.Add(uint8(4), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5)))
	f.Add(uint8(9), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	seed := make([]byte, 0, 8*40)
	for _, v := range GenerateDensities(40, 3) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(13), seed)
	f.Fuzz(func(t *testing.T, nv uint8, data []byte) {
		n := int(nv % 40)
		// Values cycle through data, so short inputs repeat values.
		k := 0
		next := func() float64 {
			k++
			if len(data) < 8 {
				return float64(k%7) * 0.25
			}
			off := 8 * ((k - 1) % (len(data) / 8))
			return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		acc := make([]complex128, n)
		g := make([]complex128, n)
		s := make([]complex128, n)
		for i := range acc {
			acc[i] = complex(next(), next())
			g[i] = complex(next(), next())
			s[i] = complex(next(), next())
		}
		checkCmulAccPaths(t, acc, g, s)
	})
}

func TestCmulAccShortSlicesPanic(t *testing.T) {
	paths := []bool{false}
	if hostAVX2 {
		paths = append(paths, true)
	}
	for _, avx2 := range paths {
		for _, tc := range []struct {
			name  string
			n     int
			ng    int // length of g
			ns    int // length of s
			spare bool
		}{
			{name: "short g", n: 8, ng: 7, ns: 8},
			{name: "short s", n: 8, ng: 8, ns: 7},
			{name: "short g with spare capacity", n: 8, ng: 7, ns: 8, spare: true},
			{name: "short s with spare capacity", n: 8, ng: 8, ns: 4, spare: true},
			{name: "short s in the tail", n: 6, ng: 6, ns: 5},
			{name: "empty g", n: 1, ng: 0, ns: 1},
		} {
			t.Run(fmt.Sprintf("avx2=%v/%s", avx2, tc.name), func(t *testing.T) {
				acc, g, s := cmulCase(tc.n, 9, normal)
				g, s = g[:tc.ng], s[:tc.ns]
				if !tc.spare {
					g, s = g[:tc.ng:tc.ng], s[:tc.ns:tc.ns]
				}
				before := append([]complex128(nil), acc...)
				defer func(old bool) {
					useAVX2 = old
					r := recover()
					if _, ok := r.(runtime.Error); !ok {
						t.Fatalf("want a runtime bounds panic, got %v", r)
					}
					for i := range acc {
						if acc[i] != before[i] {
							t.Fatalf("acc[%d] changed to %v before the panic", i, acc[i])
						}
					}
				}(useAVX2)
				useAVX2 = avx2
				cmulAcc(acc, g, s)
			})
		}
	}
}

// BenchmarkCmulAcc times the V phase's Hadamard multiply-accumulate on
// one FFT-M2L grid at surface order 4: (2p)³ = 512 complex values.
func BenchmarkCmulAcc(b *testing.B) {
	acc, g, s := cmulCase(512, 1, normal)
	b.ReportAllocs()
	for range b.N {
		cmulAcc(acc, g, s)
	}
}
