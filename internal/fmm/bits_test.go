package fmm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// float64Digest is the hex SHA-256 of the little-endian bits of xs.
func float64Digest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEvaluatePotentialBits pins every bit of the potentials on each
// evaluation path: dense and FFT M2L with the Laplace fast path, the
// generic evalSum loop through a Yukawa kernel, and a dual tree. A change
// to operator setup, a translation or a P2P loop that reorders one
// floating-point operation fails here. The pins hold on amd64, where the
// compiler never fuses a multiply and an add; elsewhere it may, which
// moves low bits, so the test skips.
func TestEvaluatePotentialBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("potential bits are pinned for amd64 only")
	}
	pts := GeneratePoints(Plummer, 1500, 10)
	dens := GenerateDensities(1500, 11)
	targets := GeneratePoints(SphereSurface, 900, 22)
	sources := GeneratePoints(Plummer, 1200, 21)
	srcDens := GenerateDensities(1200, 23)
	lop := lopsidedPoints(1000, 10, 12)
	lopDens := GenerateDensities(len(lop), 13)
	for _, tc := range []struct {
		name string
		eval func() (*Result, error)
		want string
	}{
		{"dense", func() (*Result, error) {
			return Evaluate(pts, dens, Options{Q: 25})
		}, "04e745155f6523386dbf1480258249571ecc2014aa3d685951faf97d109f1151"},
		{"fft", func() (*Result, error) {
			return Evaluate(pts, dens, Options{Q: 25, UseFFTM2L: true})
		}, "1406342c5c21bd40d56bc83d72ab9a97ca38ce34dd030ff38689e076e7e55040"},
		{"yukawa", func() (*Result, error) {
			return Evaluate(pts, dens, Options{Q: 25, Kernel: Yukawa{Lambda: 1.5}})
		}, "98b7499b4b9cf4d81035d793447c2bd5549484527eaebe738e5fc9c4f644deda"},
		{"lopsided", func() (*Result, error) {
			return Evaluate(lop, lopDens, Options{Q: 25})
		}, "fdec3737bde8719fe8062a69678605158469032e2afd19d93ee6209e15fa8a38"},
		{"dual", func() (*Result, error) {
			return EvaluateAt(targets, sources, srcDens, Options{Q: 25})
		}, "8561c45ba4dc87c20f8934ee9c0cad13b52001a6f59685a40deef8e4d30ba3be"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.eval()
			if err != nil {
				t.Fatal(err)
			}
			if d := res.Tree.Depth(); d < 3 {
				t.Fatalf("tree depth %d, want at least 3 so far-field levels run", d)
			}
			if tc.name == "lopsided" && !hasLeafAt(res.Tree, 1) {
				t.Fatal("lopsided tree has no leaf at level 1")
			}
			if got := float64Digest(res.Potentials); got != tc.want {
				t.Errorf("potential digest %s, want %s", got, tc.want)
			}
		})
	}
}

// lopsidedPoints puts dense uniform points in the octant [0, 0.5)³ and
// sparse ones in the opposite octant [0.5, 1)³, so the tree is deep on
// one side and, for sparse ≤ Q, has a leaf at level 1 on the other.
func lopsidedPoints(dense, sparse int, seed int64) []Point {
	pts := GeneratePoints(Uniform, dense, seed)
	for i := range pts {
		pts[i] = pts[i].Scale(0.5)
	}
	for _, p := range GeneratePoints(Uniform, sparse, seed+1) {
		pts = append(pts, p.Scale(0.5).Add(Point{0.5, 0.5, 0.5}))
	}
	return pts
}

// hasLeafAt reports whether the tree has a leaf at the given level.
func hasLeafAt(t *Tree, level int) bool {
	for i := range t.Nodes {
		if t.Nodes[i].Leaf && t.Nodes[i].Level == level {
			return true
		}
	}
	return false
}
