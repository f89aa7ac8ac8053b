// Package determ exercises the determinism analyzer's wall-clock and
// global-rand rules, which apply in every package, and shows that the
// map-range rule stays silent outside its gated packages.
package determ

import (
	"math/rand"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want `time\.Until reads the wall clock`
}

func globalRand() float64 {
	return rand.Float64() // want `rand\.Float64 draws from the process-global source`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle draws from the process-global source`
}

func seededRand(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64() // explicitly seeded generator: fine
}

type clock struct{}

func (clock) Now() time.Time { return time.Time{} }

func injectedClock(c clock) time.Time {
	return c.Now() // a Now *method* is the sanctioned injected-clock shape
}

func allowedDefault() func() time.Time {
	//energylint:allow determinism(test fixture exercising the directive on the line above)
	return time.Now
}

var trailingAllow = time.Now //energylint:allow determinism(test fixture exercising the trailing directive form)

// ungatedMapRange appends under a map range, but package determ is not
// order-sensitive, so the map-order rule does not apply here.
func ungatedMapRange(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
