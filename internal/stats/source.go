package stats

// lazySource is math/rand's additive lagged Fibonacci generator
// (rngSource: x[n] = x[n-607] + x[n-273] mod 2⁶⁴) with its seeding
// deferred entry by entry. math/rand seeds all 607 lag-table entries up
// front, a chain of 1,841 serial Lehmer steps that costs far more than
// the few dozen draws a sweep candidate's meter takes. Entry i only
// depends on the Lehmer iterates x[21+3i], x[22+3i] and x[23+3i] of the
// seed, and x[n] = 48271ⁿ·seed mod (2³¹−1), so with the powers tabled
// any entry can be seeded on its own, on first read. Every seed yields
// exactly math/rand's Int63/Uint64 stream (TestRNGMatchesMathRand).
type lazySource struct {
	tap, feed int
	seed      uint64                     // normalised seed in [1, 2³¹−2]
	seeded    [(rngLen + 63) / 64]uint64 // bit i: vec[i] holds its seeded or fed-back value
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

// lehmerPow[n] is 48271ⁿ mod (2³¹−1) for every iterate seeding reads.
var lehmerPow = func() (p [21 + 3*rngLen]uint32) {
	x := uint64(1)
	for n := range p {
		p[n] = uint32(x)
		x = x * lehmerA % lehmerM
	}
	return p
}()

// newLazySource returns a source seeded like rand.NewSource(seed).
func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed resets the generator to seed with math/rand's normalisation:
// the seed is reduced mod 2³¹−1, made non-negative, and 0 becomes
// 89482311. No table entry is computed until it is read.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed, s.seed = 0, rngLen-rngTap, uint64(seed)
	s.seeded = [len(s.seeded)]uint64{}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 advances the generator one step, exactly as rngSource does.
//
//energylint:hotpath
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.entry(s.feed) + s.entry(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// entry returns vec[i], seeding it first if this is its first read:
// rngSource.Seed's value x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^
// rngCooked[i], with each iterate one multiply by a tabled power.
//
//energylint:hotpath
func (s *lazySource) entry(i int) int64 {
	w, bit := i>>6, uint64(1)<<(i&63)
	if s.seeded[w]&bit == 0 {
		s.seeded[w] |= bit
		n := 21 + 3*i
		x0 := s.seed * uint64(lehmerPow[n]) % lehmerM
		x1 := s.seed * uint64(lehmerPow[n+1]) % lehmerM
		x2 := s.seed * uint64(lehmerPow[n+2]) % lehmerM
		s.vec[i] = int64(x0<<40^x1<<20^x2) ^ rngCooked[i]
	}
	return s.vec[i]
}
