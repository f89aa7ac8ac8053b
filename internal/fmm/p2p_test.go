package fmm

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// hostAVX2 records whether this CPU takes laplaceSum's AVX2 path, before
// any test flips useAVX2.
var hostAVX2 = useAVX2

// runLaplaceSum runs laplaceSum on a copy of acc with useAVX2 set to
// avx2, restoring the flag afterwards, even when laplaceSum panics.
func runLaplaceSum(avx2 bool, targets []Point, acc []float64, sources []Point, q []float64) []float64 {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = avx2
	out := append([]float64(nil), acc...)
	laplaceSum(targets, out, sources, q)
	return out
}

// checkLaplacePaths fails unless the AVX2 and scalar paths leave the
// same bits in every accumulator, or NaN in both. A NaN's payload is the
// one bit pattern Go leaves open: the compiler may commute the operands
// of the scalar loop's s += term, and a -race build does, so two NaNs
// with different payloads can meet in either order. It skips the
// comparison on a CPU without AVX2.
func checkLaplacePaths(t testing.TB, targets []Point, acc []float64, sources []Point, q []float64) {
	t.Helper()
	want := runLaplaceSum(false, targets, acc, sources, q)
	if !hostAVX2 {
		t.Skip("CPU lacks AVX2: only the scalar path ran")
	}
	got := runLaplaceSum(true, targets, acc, sources, q)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("target %d of %d (%d sources): AVX2 %v (%#016x), scalar %v (%#016x)",
				i, len(targets), len(sources), got[i], math.Float64bits(got[i]),
				want[i], math.Float64bits(want[i]))
		}
	}
}

// p2pCase builds n targets and m sources in the unit cube with charges
// in [-1, 1) and zero accumulators, all from one seed.
func p2pCase(n, m int, seed int64) (targets []Point, acc []float64, sources []Point, q []float64) {
	if n > 0 {
		targets = GeneratePoints(Uniform, n, seed)
	}
	if m > 0 {
		sources = GeneratePoints(Uniform, m, seed+1)
		q = GenerateDensities(m, seed+2)
	}
	return targets, make([]float64, n), sources, q
}

func TestLaplaceSumPathsBitIdentical(t *testing.T) {
	nan := math.NaN()
	// A NaN whose payload differs from math.NaN()'s and from the
	// hardware default NaN.
	otherNaN := math.Float64frombits(0x7ff8_dead_beef_0001)
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	type input struct {
		targets, sources []Point
		acc, q           []float64
	}
	cases := []struct {
		name string
		n, m int
		edit func(in *input)
	}{
		{name: "n=1", n: 1, m: 64},
		{name: "n=2", n: 2, m: 64},
		{name: "n=3", n: 3, m: 64},
		{name: "n=4", n: 4, m: 64},
		{name: "n=5", n: 5, m: 64},
		{name: "n=6", n: 6, m: 5},
		{name: "n=7", n: 7, m: 1},
		{name: "n=64", n: 64, m: 130},
		{name: "n=130", n: 130, m: 64},
		{name: "n=513", n: 513, m: 130},
		{name: "m=0", n: 7, m: 0},
		{name: "n=0", n: 0, m: 5},
		{name: "coincident points", n: 9, m: 9, edit: func(in *input) {
			copy(in.sources, in.targets)
		}},
		{name: "NaN charges", n: 9, m: 20, edit: func(in *input) {
			in.q[3], in.q[11] = nan, otherNaN
		}},
		{name: "infinite charges", n: 9, m: 20, edit: func(in *input) {
			// +Inf then -Inf gives the default NaN, then a NaN charge with
			// its own payload joins it.
			in.q[2], in.q[5], in.q[7], in.q[13] = inf, -inf, otherNaN, -inf
		}},
		{name: "negative zero charges", n: 9, m: 20, edit: func(in *input) {
			for j := range in.q {
				in.q[j] = negZero
			}
		}},
		{name: "NaN coordinates", n: 9, m: 20, edit: func(in *input) {
			in.targets[1].X = nan
			in.targets[6].Z = nan
			in.sources[4].Y = nan
		}},
		{name: "infinite coordinates", n: 9, m: 20, edit: func(in *input) {
			in.targets[2].Y = inf
			in.sources[8].X = -inf
			in.sources[9].Z = inf
		}},
		{name: "subnormal r2", n: 8, m: 8, edit: func(in *input) {
			// r² of 1e-320 is subnormal; a 5e-324 offset squares to 0.
			for j := range in.sources {
				in.sources[j] = in.targets[j]
			}
			in.sources[0].X += 1e-160
			in.sources[1].Y += 3e-161
			in.sources[2] = Point{X: 5e-324}
			in.targets[2] = Point{}
		}},
		{name: "huge r2", n: 8, m: 8, edit: func(in *input) {
			// Coordinates near 1e154 put r² near MaxFloat64; 1e200
			// overflows r² to +Inf, whose term is q/Inf = ±0.
			for j := range in.sources {
				in.sources[j].X *= 1e154
				in.targets[j].Y *= 1e154
			}
			in.sources[5].Z = 1e200
		}},
		{name: "non-zero starting acc", n: 11, m: 30, edit: func(in *input) {
			for i := range in.acc {
				in.acc[i] = float64(i) - 4.5
			}
			in.acc[3] = negZero
			in.acc[9] = otherNaN
			in.q[0] = nan
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var in input
			in.targets, in.acc, in.sources, in.q = p2pCase(tc.n, tc.m, int64(10*i+1))
			if tc.edit != nil {
				tc.edit(&in)
			}
			checkLaplacePaths(t, in.targets, in.acc, in.sources, in.q)
		})
	}
}

// FuzzLaplaceSum reads targets, sources, charges and starting sums as
// raw float64 bit patterns, so the fuzzer reaches NaN payloads,
// subnormals and infinities, and compares the two paths as the table
// test does.
func FuzzLaplaceSum(f *testing.F) {
	f.Add(uint8(5), uint8(7), []byte{})
	f.Add(uint8(4), uint8(4), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5)))
	f.Add(uint8(9), uint8(3), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	seed := make([]byte, 0, 8*40)
	for _, v := range GenerateDensities(40, 3) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(13), uint8(17), seed)
	f.Fuzz(func(t *testing.T, nt, ns uint8, data []byte) {
		n, m := int(nt%20), int(ns%40)
		// Values cycle through data, so short inputs repeat points and
		// give coincident pairs.
		k := 0
		next := func() float64 {
			k++
			if len(data) < 8 {
				return float64(k%7) * 0.25
			}
			off := 8 * ((k - 1) % (len(data) / 8))
			return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		targets := make([]Point, n)
		acc := make([]float64, n)
		for i := range targets {
			targets[i] = Point{next(), next(), next()}
			acc[i] = next()
		}
		sources := make([]Point, m)
		q := make([]float64, m)
		for j := range sources {
			sources[j] = Point{next(), next(), next()}
			q[j] = next()
		}
		checkLaplacePaths(t, targets, acc, sources, q)
	})
}

func TestLaplaceSumShortSlicesPanic(t *testing.T) {
	paths := []bool{false}
	if hostAVX2 {
		paths = append(paths, true)
	}
	for _, avx2 := range paths {
		for _, tc := range []struct {
			name   string
			n, m   int
			nq, na int // lengths of q and acc
			spareQ bool
		}{
			{name: "short q", n: 8, m: 8, nq: 7, na: 8},
			{name: "short q with spare capacity", n: 8, m: 8, nq: 7, na: 8, spareQ: true},
			{name: "short acc", n: 8, m: 8, nq: 8, na: 7},
			{name: "short acc in the tail", n: 6, m: 8, nq: 8, na: 5},
		} {
			t.Run(fmt.Sprintf("avx2=%v/%s", avx2, tc.name), func(t *testing.T) {
				targets, _, sources, q := p2pCase(tc.n, tc.m, 5)
				q = q[:tc.nq]
				if !tc.spareQ {
					q = q[:tc.nq:tc.nq]
				}
				acc := make([]float64, tc.na)
				defer func() {
					r := recover()
					if _, ok := r.(runtime.Error); !ok {
						t.Fatalf("want a runtime bounds panic, got %v", r)
					}
				}()
				runLaplaceSum(avx2, targets, acc, sources, q)
			})
		}
	}
}

// BenchmarkLaplaceSum times the P2P kernel at the FMM's three shapes for
// Q = 64 and surface order 4 (56 surface points): a leaf against a
// U-list leaf, a check surface against a leaf's sources (P2M, X), and a
// leaf's targets against a surface (L2P, W).
func BenchmarkLaplaceSum(b *testing.B) {
	for _, sh := range []struct {
		name string
		n, m int
	}{
		{"U_64x64", 64, 64},
		{"P2M_56x128", 56, 128},
		{"L2P_128x56", 128, 56},
	} {
		b.Run(sh.name, func(b *testing.B) {
			targets, acc, sources, q := p2pCase(sh.n, sh.m, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				laplaceSum(targets, acc, sources, q)
			}
		})
	}
}
