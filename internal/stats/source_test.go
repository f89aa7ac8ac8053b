package stats

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seeds the stream-equality test covers: math/rand's
// normalisation edge cases (0 and its 89482311 stand-in, ±1, the modulus
// and its multiples, the int64 extremes) plus 300 identity-derived seeds
// of the kind every experiment uses.
func streamSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 89482311, m, -m, 2 * m, math.MinInt64, math.MaxInt64}
	for i := int64(0); i < 300; i++ {
		seeds = append(seeds, MixSeed(7, i))
	}
	return seeds
}

// TestRNGMatchesMathRand holds lazySource to its contract: for every seed,
// NewRNG draws exactly what rand.New(rand.NewSource(seed)) draws. 3,000
// mixed draws turn the 607-entry lag table over more than twice, so both
// first reads (lazily seeded entries) and reads of fed-back entries are
// compared.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range streamSeeds() {
		got, want := NewRNG(seed).r, rand.New(rand.NewSource(seed))
		for j := 0; j < 3000; j++ {
			var g, w uint64 // each draw's bits
			switch j % 5 {
			case 0:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 3:
				g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
			case 4:
				n := 1 + j*j%1000003
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			}
			if g != w {
				t.Fatalf("seed %d draw %d (kind %d): got %#x, math/rand %#x", seed, j, j%5, g, w)
			}
		}
		// Reseeding mid-stream must forget every seeded entry.
		got.Seed(seed ^ 0x5eed)
		want.Seed(seed ^ 0x5eed)
		for j := 0; j < 700; j++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d reseeded draw %d: got %d, math/rand %d", seed, j, g, w)
			}
		}
	}
	// The 16-fold cross-validation shuffle over the 1856-sample campaign.
	for _, seed := range []int64{0, 1, 42, MixSeed(7, 16)} {
		got, want := NewRNG(seed).Perm(1856), rand.New(rand.NewSource(seed)).Perm(1856)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Perm(1856)[%d] = %d, math/rand %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestCookedTable checks the copied rngCooked table directly: seeding a
// lag table eagerly, with math/rand's own serial Schrage iteration, must
// reproduce math/rand's first output, and lazySource must seed every
// entry to the same value.
func TestCookedTable(t *testing.T) {
	seedrand := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		x = a*(x%q) - r*(x/q)
		if x < 0 {
			x += 1<<31 - 1
		}
		return x
	}
	for _, seed := range []int64{1, 2, 42, 89482311, 1<<31 - 2} {
		var vec [rngLen]int64
		x := int32(seed)
		for i := -20; i < rngLen; i++ {
			x = seedrand(x)
			if i >= 0 {
				u := int64(x) << 40
				x = seedrand(x)
				u ^= int64(x) << 20
				x = seedrand(x)
				u ^= int64(x)
				vec[i] = u ^ rngCooked[i]
			}
		}
		// The first step reads feed 333 and tap 606.
		got := uint64(vec[rngLen-rngTap-1] + vec[rngLen-1])
		if want := rand.NewSource(seed).(rand.Source64).Uint64(); got != want {
			t.Errorf("seed %d: first output %d, math/rand %d", seed, got, want)
		}
		// lazySource's closed form must agree with the serial iteration on
		// every entry, not only the two the first step reads.
		src := newLazySource(seed)
		for i := range vec {
			if e := src.entry(i); e != vec[i] {
				t.Fatalf("seed %d: lazily seeded entry %d = %d, serial seeding %d", seed, i, e, vec[i])
			}
		}
	}
}
