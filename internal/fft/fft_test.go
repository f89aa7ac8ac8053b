package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * cmplx.Rect(1, sign*2*math.Pi*float64(j*k)/float64(n))
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Cover radix-2 sizes, Bluestein sizes (including primes), and edges.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 17, 31, 32, 60, 64, 100} {
		x := randComplex(rng, n)
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		Forward(got)
		if d := maxDiff(got, want); d > 1e-9 {
			t.Errorf("n=%d: forward differs from naive DFT by %v", n, d)
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 3, 8, 15, 16, 27} {
		x := randComplex(rng, n)
		want := naiveDFT(x, true)
		got := append([]complex128(nil), x...)
		Inverse(got)
		if d := maxDiff(got, want); d > 1e-9 {
			t.Errorf("n=%d: inverse differs from naive by %v", n, d)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: Inverse(Forward(x)) == x for arbitrary lengths.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(96)
		x := randComplex(rng, n)
		y := append([]complex128(nil), x...)
		Forward(y)
		Inverse(y)
		return maxDiff(x, y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Property: sum |x|^2 == (1/n) sum |X|^2.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		x := randComplex(rng, n)
		var ex float64
		for _, v := range x {
			ex += real(v)*real(v) + imag(v)*imag(v)
		}
		Forward(x)
		var eX float64
		for _, v := range x {
			eX += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(ex-eX/float64(n)) < 1e-8*(1+ex)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	// Property: F(a*x + y) == a*F(x) + F(y).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + y[i]
		}
		Forward(mix)
		Forward(x)
		Forward(y)
		for i := range mix {
			if cmplx.Abs(mix[i]-(a*x[i]+y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestForward3MatchesSeparableNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := Dim3{Nx: 3, Ny: 4, Nz: 5}
	x := randComplex(rng, d.Len())
	got := append([]complex128(nil), x...)
	Forward3(got, d)
	// Direct triple-sum DFT.
	for a := 0; a < d.Nx; a++ {
		for b := 0; b < d.Ny; b++ {
			for c := 0; c < d.Nz; c++ {
				var s complex128
				for i := 0; i < d.Nx; i++ {
					for j := 0; j < d.Ny; j++ {
						for k := 0; k < d.Nz; k++ {
							ph := float64(a*i)/float64(d.Nx) + float64(b*j)/float64(d.Ny) + float64(c*k)/float64(d.Nz)
							s += x[d.Index(i, j, k)] * cmplx.Rect(1, -2*math.Pi*ph)
						}
					}
				}
				if cmplx.Abs(got[d.Index(a, b, c)]-s) > 1e-9 {
					t.Fatalf("3-D DFT mismatch at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}

func TestRoundTrip3(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []Dim3{{2, 2, 2}, {4, 4, 4}, {3, 5, 2}, {8, 8, 8}, {1, 1, 7}} {
		x := randComplex(rng, d.Len())
		y := append([]complex128(nil), x...)
		Forward3(y, d)
		Inverse3(y, d)
		if diff := maxDiff(x, y); diff > 1e-9 {
			t.Errorf("dims %v: 3-D round trip error %v", d, diff)
		}
	}
}

// complexDigest is the hex SHA-256 of the little-endian bits of the real
// and imaginary parts of x.
func complexDigest(x []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFFTBits pins every output bit of Forward3 and Inverse3 on the FMM's
// 8³ M2L grid (radix-2 only), on two non-cubic radix-2 grids (4×8×2 and
// 16×2×8, so each axis runs at a stride and lane count of its own), on a
// 6×5×3 grid (Bluestein, which runs radix-2 inside) and along one axis of
// length 1000 (Bluestein over a 2048-point radix-2 transform), so a change
// to the twiddle factors or butterfly order fails here. The pins hold on amd64, where the compiler never fuses a
// multiply and an add.
func TestFFTBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("FFT bits are pinned for amd64 only")
	}
	for _, tc := range []struct {
		name             string
		d                Dim3
		forward, inverse string
	}{
		{"8x8x8", Dim3{8, 8, 8},
			"b9d12abf79a4b3e9cd484733c7f99a5c2790944e7c8d564a545851432ffcf5ae",
			"9bd5ed16063e01c966676337629c9ca0cd0b32a68c18577072907814f13a07be"},
		{"4x8x2", Dim3{4, 8, 2},
			"d1438d9597cb4691ea57c98a248fba6c42a854a732cd7ce4b450daeba09f7888",
			"3ae34495654ca1d43ca535eb87021e97be1f64bdb9e865d1bfb767bfcd11851c"},
		{"16x2x8", Dim3{16, 2, 8},
			"586f271882d375c11961d35d5aac5e71ecb57dfc3ccf0747c536b1b74b35c737",
			"011282807b446963b5b6882b41712b7eff9f74d774d843ed842dc1a308999848"},
		{"6x5x3", Dim3{6, 5, 3},
			"680aec5b8c8eb850aa84e154d129e4832d85eb135c4c22a4d2b3f655a0bf6542",
			"df02dc9dd687a656a9b49c79d38ce8fd3349802da2cf7a4db0d67d1b8d11871d"},
		{"1x1x1000", Dim3{1, 1, 1000},
			"a8a70b78633d383a7a1b68cb87514f0b1c9bb006be85840488903ba5b9b65e8b",
			"afa67a8eef94ca560dd131c600e314d618aaee203d58c6ce8ab8e748cdd050dd"},
	} {
		x := randComplex(rand.New(rand.NewSource(8)), tc.d.Len())
		Forward3(x, tc.d)
		if got := complexDigest(x); got != tc.forward {
			t.Errorf("%s: Forward3 digest %s, want %s", tc.name, got, tc.forward)
		}
		Inverse3(x, tc.d)
		if got := complexDigest(x); got != tc.inverse {
			t.Errorf("%s: Inverse3 digest %s, want %s", tc.name, got, tc.inverse)
		}
	}
}

func TestFlopEstimate(t *testing.T) {
	if FlopEstimate(1) != 0 {
		t.Error("FlopEstimate(1) should be 0")
	}
	if got := FlopEstimate(8); got != 5*8*3 {
		t.Errorf("FlopEstimate(8) = %v, want 120", got)
	}
}

func BenchmarkForward1024(b *testing.B) {
	x := randComplex(rand.New(rand.NewSource(1)), 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkForwardBluestein1000(b *testing.B) {
	x := randComplex(rand.New(rand.NewSource(1)), 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

// BenchmarkForward3 times the forward transform of the FMM's FFT-M2L grid
// at surface order 4: (2p)³ = 8³ points.
func BenchmarkForward3(b *testing.B) {
	d := Dim3{8, 8, 8}
	src := randComplex(rand.New(rand.NewSource(1)), d.Len())
	x := make([]complex128, len(src))
	b.ReportAllocs()
	for range b.N {
		copy(x, src)
		Forward3(x, d)
	}
}
