package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Stddev != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 || s.Stddev != 0 {
		t.Fatalf("single-element summary wrong: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// Sample variance of {2,4,4,4,5,5,7,9} about mean 5 is 32/7.
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Stddev-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.Stddev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeBounds(t *testing.T) {
	// Property: min <= mean <= max, stddev >= 0, for any input.
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Mean+1e-9*math.Abs(s.Mean)+1e-300 &&
			s.Mean <= s.Max+1e-9*math.Abs(s.Max)+1e-300 &&
			s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelErr(t *testing.T) {
	cases := []struct {
		pred, act, want float64
	}{
		{110, 100, 0.10},
		{90, 100, 0.10},
		{100, 100, 0},
		{0, 0, 0},
		{-50, -100, 0.5},
	}
	for _, c := range cases {
		if got := RelErr(c.pred, c.act); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelErr(%v,%v) = %v, want %v", c.pred, c.act, got, c.want)
		}
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be +Inf")
	}
}

func TestHoldout(t *testing.T) {
	f := Holdout([]bool{true, false, true, true, false})
	if len(f.Train) != 3 || len(f.Test) != 2 {
		t.Fatalf("holdout sizes wrong: %+v", f)
	}
	if f.Train[0] != 0 || f.Train[1] != 2 || f.Train[2] != 3 {
		t.Errorf("train indices wrong: %v", f.Train)
	}
	if f.Test[0] != 1 || f.Test[1] != 4 {
		t.Errorf("test indices wrong: %v", f.Test)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("RNG not deterministic")
		}
	}
}

// TestRNGSeedMatchesNewRNG holds RNG.Seed to NewRNG: however many draws
// of whatever kind came before, Seed(s) must restart exactly the stream a
// fresh NewRNG(s) draws, so a reseeded meter reproduces a fresh one.
func TestRNGSeedMatchesNewRNG(t *testing.T) {
	g := NewRNG(3)
	for i, seed := range streamSeeds() {
		for j := 0; j < i%7*150; j++ { // 0 to 900 draws, past the 607-entry table
			switch j % 3 {
			case 0:
				g.Float64()
			case 1:
				g.Normal(0, 1)
			case 2:
				g.Intn(1 + j)
			}
		}
		g.Seed(seed)
		want := NewRNG(seed)
		for j := 0; j < 1300; j++ {
			got, exp := g.Normal(1, 0.03), want.Normal(1, 0.03)
			if math.Float64bits(got) != math.Float64bits(exp) {
				t.Fatalf("seed %d draw %d after reseed: got %v, NewRNG %v", seed, j, got, exp)
			}
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := g.Normal(10, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("normal variance = %v, want ~4", variance)
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("empty median should be 0")
	}
	if Median([]float64{3}) != 3 {
		t.Error("single-element median wrong")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even median should interpolate")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.75: 40, 1: 50, 0.1: 14}
	for p, want := range cases {
		if got := Percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("P%.0f = %v, want %v", p*100, got, want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 10 || xs[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p > 1")
		}
	}()
	Percentile([]float64{1}, 1.5)
}

func TestMedianAbsDiff(t *testing.T) {
	// Flat signal with one step: the step barely moves the median.
	xs := []float64{5, 5.01, 4.99, 5, 9, 9.01, 8.99, 9}
	mad := MedianAbsDiff(xs)
	if mad > 0.05 {
		t.Errorf("MAD = %v; a single step should not dominate", mad)
	}
	if MedianAbsDiff([]float64{1}) != 0 {
		t.Error("MAD of one sample should be 0")
	}
}

func TestMedianMAD(t *testing.T) {
	m, mad := MedianMAD([]float64{1, 2, 3, 4, 100})
	if m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	// Deviations about 3: |1-3|,|2-3|,|3-3|,|4-3|,|100-3| = 2,1,0,1,97 -> median 1.
	if mad != 1 {
		t.Errorf("mad = %v, want 1", mad)
	}
	if m, mad := MedianMAD(nil); m != 0 || mad != 0 {
		t.Errorf("empty input: (%v, %v), want (0, 0)", m, mad)
	}
}

func TestOutlierMask(t *testing.T) {
	xs := []float64{1.0, 1.1, 0.9, 1.05, 0.95, 8.0}
	mask := OutlierMask(xs, 6, 0)
	want := []bool{false, false, false, false, false, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("mask[%d] = %v, want %v (xs=%v)", i, mask[i], want[i], xs)
		}
	}
	// A near-constant dataset has MAD ~ 0; without the floor the tiny
	// perturbation would be flagged, with it nothing is.
	tight := []float64{1, 1, 1, 1.001, 1}
	for i, f := range OutlierMask(tight, 6, 0.1) {
		if f {
			t.Errorf("floor failed to protect near-noiseless point %d", i)
		}
	}
	if n := len(OutlierMask(nil, 6, 0.1)); n != 0 {
		t.Errorf("empty input produced mask of length %d", n)
	}
}

func TestMixSeedIdentity(t *testing.T) {
	a := MixSeed(1, 2, 3)
	if a != MixSeed(1, 2, 3) {
		t.Error("MixSeed not deterministic")
	}
	if a == MixSeed(1, 3, 2) {
		t.Error("MixSeed ignored argument order")
	}
	if a == MixSeed(2, 2, 3) {
		t.Error("MixSeed ignored the base seed")
	}
	if MixSeed(0) == MixSeed(0, 0) {
		t.Error("MixSeed ignored extra zero values")
	}
}

// MixSeed is FNV-1a over the little-endian bytes of its arguments; every
// recorded digest and golden depends on these exact values.
func TestMixSeedIsFNV1a(t *testing.T) {
	f := func(base int64, vals []int64) bool {
		h := fnv.New64a()
		for _, v := range append([]int64{base}, vals...) {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
		}
		return MixSeed(base, vals...) == int64(h.Sum64())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkMixSeed covers the seed-mixing hot path: every unit of work
// in the pipeline calls it at least once, and the fault layer calls it
// per attempt. The bench gate holds allocs/op at zero — the variadic
// slice is the only candidate allocation and the compiler keeps it on
// the stack.
func BenchmarkMixSeed(b *testing.B) {
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = MixSeed(42, int64(i), 7, 12345)
	}
	_ = sink
}

// BenchmarkNewRNG covers one autotune sweep candidate's noise stream:
// a fresh identity-seeded generator and the 19 normal draws an 18-sample
// measurement takes (one gain draw plus one noise draw per sample). The
// constructor dominates. The bench gate holds allocs/op at one: the
// inlined constructor keeps the RNG and its rand.Rand on the stack, and
// only the 5 KB lag table escapes.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewRNG(MixSeed(7, int64(i)))
		for j := 0; j < 19; j++ {
			normalSink += g.Normal(0, 1)
		}
	}
}

// normalSink keeps BenchmarkNewRNG's draws observable to the compiler.
var normalSink float64
