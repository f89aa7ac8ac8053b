package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// uc2ueMatrix is the FMM's upward check-to-equivalent kernel matrix at
// surface order 4 for a box of half-width 1/8: the Laplace kernel
// 1/(4π r) from the 56 points of the cube-surface grid scaled to the
// equivalent radius 1.0 (columns) to the same grid scaled to the check
// radius 2.95 (rows). The FMM pseudo-inverts it, and dc2de, once per
// tree level.
func uc2ueMatrix() *Matrix {
	const p, h = 4, 0.125
	var unit [][3]float64
	step := 2.0 / float64(p-1)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			for k := 0; k < p; k++ {
				if i == 0 || i == p-1 || j == 0 || j == p-1 || k == 0 || k == p-1 {
					unit = append(unit, [3]float64{-1 + float64(i)*step, -1 + float64(j)*step, -1 + float64(k)*step})
				}
			}
		}
	}
	m := NewMatrix(len(unit), len(unit))
	for i, c := range unit {
		row := m.Row(i)
		for j, e := range unit {
			var r2 float64
			for d := range c {
				x := h*2.95*c[d] - h*1.0*e[d]
				r2 += x * x
			}
			row[j] = 1 / (4 * math.Pi * math.Sqrt(r2))
		}
	}
	return m
}

// svdDigest is the hex SHA-256 of the little-endian bits of U, S and V.
func svdDigest(d *SVD) string {
	h := sha256.New()
	var b [8]byte
	for _, xs := range [][]float64{d.U.Data, d.S, d.V.Data} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFactorSVDBits pins every bit of U, S and V for the FMM's p = 4
// operator matrix, a random tall matrix and a random wide one (the
// transpose path), so a rewrite of the Jacobi sweeps must reproduce the
// same rotations in the same order. The pins hold on amd64, where the
// compiler never fuses a multiply and an add.
func TestFactorSVDBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("SVD bits are pinned for amd64 only")
	}
	rng := rand.New(rand.NewSource(98))
	for _, tc := range []struct {
		name string
		a    *Matrix
		want string
	}{
		{"uc2ue_56x56", uc2ueMatrix(), "bce9f2aa40cc8b46cee9dcaf96292c87a9d6c96f0f7ebcde4f3c0789c317270e"},
		{"random_98x56", randomMatrix(rng, 98, 56), "2ec6d4177df63fc487aa0a2371f80a5e46e00807e9b01f7ca630e003cd0a7846"},
		{"random_3x10", randomMatrix(rng, 3, 10), "f5c263ff2bf279cc7991fbcd7c5e5dc8e13678cf33075a7ae8740ed280cf97cb"},
	} {
		if got := svdDigest(FactorSVD(tc.a)); got != tc.want {
			t.Errorf("%s: SVD digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BenchmarkFactorSVD times the Jacobi SVD of the FMM's p = 4 uc2ue
// operator matrix, which operator setup factors twice per tree level.
func BenchmarkFactorSVD(b *testing.B) {
	a := uc2ueMatrix()
	b.ReportAllocs()
	for range b.N {
		FactorSVD(a)
	}
}
