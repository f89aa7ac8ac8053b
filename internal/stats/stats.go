// Package stats provides small statistical utilities shared across the
// energy-modeling pipeline: summary statistics, relative-error metrics,
// k-fold partitioning for cross-validation, and a deterministic random
// number generator so every experiment in the repository is reproducible.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Summary holds the descriptive statistics the paper reports for its
// validation experiments: mean, standard deviation, minimum and maximum.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. The standard deviation is the
// sample standard deviation (divisor n-1), matching R's sd(), which the
// paper's analysis scripts used. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String formats the summary the way the paper quotes error statistics,
// e.g. "mean 6.17%, stddev 4.65%, min 0.09%, max 14.89%" (values are
// printed as given; the caller decides whether they are percentages).
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f stddev=%.2f min=%.2f max=%.2f",
		s.N, s.Mean, s.Stddev, s.Min, s.Max)
}

// RelErr returns |predicted-actual| / |actual|. It is the error metric used
// throughout the paper's validation sections. A zero actual with a nonzero
// prediction returns +Inf; zero/zero returns 0.
func RelErr(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// Fold describes one cross-validation fold as index sets into the original
// sample slice.
type Fold struct {
	Train []int
	Test  []int
}

// Holdout builds the paper's 2-fold "holdout method" split from an explicit
// boolean mask: entries with mask[i] true go to the training set, the rest
// to the test set. This mirrors the paper's use of the "T"-type settings
// for training and "V"-type settings for validation.
func Holdout(mask []bool) Fold {
	var f Fold
	for i, m := range mask {
		if m {
			f.Train = append(f.Train, i)
		} else {
			f.Test = append(f.Test, i)
		}
	}
	return f
}

// RNG is a deterministic random source for experiments, kept behind our
// own type so the substitution for hardware noise is easy to audit and to
// seed per-experiment. Its streams are math/rand's: NewRNG(seed) draws
// exactly what rand.New(rand.NewSource(seed)) would. That is a
// compatibility contract — every golden file and every EXPERIMENTS.md
// number depends on it — but the source seeds its lag table lazily, so a
// short-lived generator pays only for the entries it reads.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded deterministically.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(newLazySource(seed))}
}

// Seed resets g in place to the stream NewRNG(seed) draws. Only the
// source's seeded-entry bitmap is cleared, so a generator that is reused
// across measurements costs no allocation.
func (g *RNG) Seed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of 0..n-1.
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Median returns the median of xs (the mean of the middle pair for even
// lengths). It copies its input. An empty input returns 0.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Percentile(xs, 0.5)
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics. It copies its input and panics
// for p outside [0, 1]. An empty input returns 0.
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %g outside [0,1]", p))
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// MedianAbsDiff returns the median of |x[i+1]-x[i]| — a robust noise
// estimate for sampled traces (step changes are rare among the
// differences, so they barely move the median).
func MedianAbsDiff(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	diffs := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		diffs[i-1] = math.Abs(xs[i] - xs[i-1])
	}
	return Median(diffs)
}

// MedianMAD returns the median of xs and the median absolute deviation
// about it. The MAD is the robust scale estimate behind the calibration
// pipeline's outlier screen: unlike the standard deviation it is immune
// to the very outliers the screen hunts. An empty input returns (0, 0).
func MedianMAD(xs []float64) (median, mad float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	median = Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - median)
	}
	return median, Median(devs)
}

// madToSigma converts a MAD into a standard-deviation estimate for
// normally distributed data (1 / Φ⁻¹(3/4)).
const madToSigma = 1.4826

// OutlierMask flags the entries of xs lying more than
// max(k·1.4826·MAD, floor) from the median. k is the cut in robust
// standard deviations; floor is an absolute deviation below which
// nothing is flagged regardless of how tight the MAD is — without it, a
// near-noiseless dataset (MAD ≈ 0) would flag every point. The returned
// mask is parallel to xs (true = outlier).
func OutlierMask(xs []float64, k, floor float64) []bool {
	mask := make([]bool, len(xs))
	if len(xs) == 0 {
		return mask
	}
	median, mad := MedianMAD(xs)
	cut := k * madToSigma * mad
	if cut < floor {
		cut = floor
	}
	for i, x := range xs {
		mask[i] = math.Abs(x-median) > cut
	}
	return mask
}

// MixSeed derives a new deterministic seed from a base seed and a list
// of identity values, via FNV-1a over the 64-bit patterns. Every unit of
// work in the experiment pipeline seeds its random streams this way —
// from its *identity*, never from its position in a run — which is what
// makes parallel, reordered and partial campaigns byte-identical to
// serial ones. microbench.SampleSeed and the fault-injection layer build
// on it.
//
//energylint:hotpath
func MixSeed(base int64, vals ...int64) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	// Unrolled: a byte loop here ran up to 40% slower when unrelated
	// code moved it across a cache-line boundary.
	mix := func(v uint64) {
		h = (h ^ v&0xff) * prime64
		h = (h ^ v>>8&0xff) * prime64
		h = (h ^ v>>16&0xff) * prime64
		h = (h ^ v>>24&0xff) * prime64
		h = (h ^ v>>32&0xff) * prime64
		h = (h ^ v>>40&0xff) * prime64
		h = (h ^ v>>48&0xff) * prime64
		h = (h ^ v>>56) * prime64
	}
	mix(uint64(base))
	for _, v := range vals {
		mix(uint64(v))
	}
	return int64(h)
}
