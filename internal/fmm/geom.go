// Package fmm implements the kernel-independent fast multipole method
// (KIFMM) of Ying, Zorin & Biros in three dimensions — the paper's proxy
// application (§III) — together with the substrates it needs: adaptive
// octrees with U/V/W/X interaction lists, equivalent-surface translation
// operators (dense and FFT-accelerated M2L), a direct O(N²) summation
// baseline, and per-phase operation counting that feeds the DVFS-aware
// energy model.
package fmm

import (
	"fmt"
	"math"

	"dvfsroofline/internal/stats"
)

// Point is a location in R³.
type Point struct {
	X, Y, Z float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns s·p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y, s * p.Z} }

// MaxAbs returns the Chebyshev (infinity) norm of p.
func (p Point) MaxAbs() float64 {
	return math.Max(math.Abs(p.X), math.Max(math.Abs(p.Y), math.Abs(p.Z)))
}

// Distribution selects a synthetic point distribution for experiments.
type Distribution int

const (
	// Uniform fills the unit cube uniformly at random — the regular
	// workload whose octree is (nearly) complete.
	Uniform Distribution = iota
	// Plummer draws from the Plummer model of a globular star cluster —
	// the highly non-uniform astrophysics workload that exercises the
	// adaptive tree's W and X lists.
	Plummer
	// SphereSurface places points on the surface of a sphere — the
	// boundary-integral workload typical of KIFMM applications.
	SphereSurface
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Plummer:
		return "plummer"
	case SphereSurface:
		return "sphere"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// GeneratePoints returns n points of the given distribution, scaled into
// the unit cube [0,1)³, using a deterministic seed.
func GeneratePoints(d Distribution, n int, seed int64) []Point {
	if n <= 0 {
		panic(fmt.Sprintf("fmm: invalid point count %d", n))
	}
	rng := stats.NewRNG(seed)
	pts := make([]Point, n)
	switch d {
	case Uniform:
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64(), rng.Float64()}
		}
	case Plummer:
		for i := range pts {
			pts[i] = plummerPoint(rng)
		}
		normalizeToUnitCube(pts)
	case SphereSurface:
		for i := range pts {
			// Marsaglia's method for a uniform point on S².
			var x, y, s float64
			for {
				x = 2*rng.Float64() - 1
				y = 2*rng.Float64() - 1
				s = x*x + y*y
				if s < 1 && s > 0 {
					break
				}
			}
			f := 2 * math.Sqrt(1-s)
			pts[i] = Point{
				X: 0.5 + 0.45*x*f,
				Y: 0.5 + 0.45*y*f,
				Z: 0.5 + 0.45*(1-2*s),
			}
		}
	default:
		panic(fmt.Sprintf("fmm: unknown distribution %d", int(d)))
	}
	return pts
}

// plummerPoint samples the Plummer density with unit scale radius,
// truncated at radius 10.
func plummerPoint(rng *stats.RNG) Point {
	for {
		m := rng.Float64()
		r := 1 / math.Sqrt(math.Pow(m, -2.0/3.0)-1)
		if r > 10 {
			continue
		}
		// Uniform direction.
		z := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		s := math.Sqrt(1 - z*z)
		return Point{r * s * math.Cos(phi), r * s * math.Sin(phi), r * z}
	}
}

// normalizeToUnitCube rescales points into [0.001, 0.999]³ preserving
// aspect ratio.
func normalizeToUnitCube(pts []Point) {
	lo := pts[0]
	hi := pts[0]
	for _, p := range pts {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	span := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z))
	if span == 0 {
		span = 1
	}
	scale := 0.998 / span
	for i := range pts {
		pts[i] = Point{
			X: 0.001 + (pts[i].X-lo.X)*scale,
			Y: 0.001 + (pts[i].Y-lo.Y)*scale,
			Z: 0.001 + (pts[i].Z-lo.Z)*scale,
		}
	}
}

// GenerateDensities returns n source densities in [-1, 1), seeded.
func GenerateDensities(n int, seed int64) []float64 {
	rng := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 2*rng.Float64() - 1
	}
	return out
}
