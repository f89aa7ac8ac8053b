package units

import (
	"math"
	"testing"
	"testing/quick"
)

// The quick-check properties complement the grid sweep in units_test.go:
// instead of hand-chosen magnitudes they draw arbitrary float64 pairs,
// discard the physically meaningless ones, and assert the defining
// identities of the quantity helpers hold everywhere else.

// plausible maps an arbitrary float64 onto a positive, finite magnitude
// spanning roughly µ-scale to giga-scale, the range the simulator and
// wire formats actually carry.
func plausible(x float64) (float64, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
		return 0, false
	}
	x = math.Abs(x)
	for x < 1e-6 {
		x *= 1e6
	}
	for x > 1e9 {
		x /= 1e9
	}
	return x, true
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestQuickEnergyBilinear: energy is linear in each factor — scaling the
// power trace scales the joules, as does stretching the run.
func TestQuickEnergyBilinear(t *testing.T) {
	prop := func(pw, tw, kw float64) bool {
		p, ok := plausible(pw)
		if !ok {
			return true
		}
		d, ok := plausible(tw)
		if !ok {
			return true
		}
		k, ok := plausible(kw)
		if !ok {
			return true
		}
		e := float64(Energy(Watt(p), Second(d)))
		return close(float64(Energy(Watt(k*p), Second(d))), k*e) &&
			close(float64(Energy(Watt(p), Second(k*d))), k*e)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoefficientChain: the pJ/op coefficient helpers compose to
// the literal Eq. 9 arithmetic c0·V² for arbitrary inputs.
func TestQuickCoefficientChain(t *testing.T) {
	prop := func(cw, vw float64) bool {
		c, ok := plausible(cw)
		if !ok {
			return true
		}
		v, ok := plausible(vw)
		if !ok {
			return true
		}
		got := PicoJoulePerOpPerVoltSq(c).At(Volt(v).Squared())
		return close(float64(got), c*v*v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
