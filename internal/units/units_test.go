package units

import (
	"math"
	"testing"
)

func TestConversionScales(t *testing.T) {
	if got := MegaHertz(852).Hertz(); got != 852e6 {
		t.Errorf("852 MHz = %v Hz, want 852e6", got)
	}
	if got := MilliVolt(1100).Volts(); got != 1.1 {
		t.Errorf("1100 mV = %v V, want 1.1", got)
	}
	if got := Volt(1.1).Squared(); math.Abs(float64(got)-1.21) > 1e-15 {
		t.Errorf("1.1 V squared = %v, want 1.21", got)
	}
}

// TestCoefficientHelpersMatchEq9 checks the helper chain reproduces the
// literal Eq. 9 arithmetic: c0·V² per-op dynamic cost and c1·V leakage.
func TestCoefficientHelpersMatchEq9(t *testing.T) {
	c0 := PicoJoulePerOpPerVoltSq(56.56)
	v := MilliVolt(1015).Volts()
	want := 56.56 * 1.015 * 1.015
	if got := c0.At(v.Squared()); math.Abs(float64(got)-want) > 1e-12*want {
		t.Errorf("c0.At(V²) = %v, want %v", got, want)
	}
	c1 := WattPerVolt(2.70)
	if got := c1.At(v); math.Abs(float64(got)-2.70*1.015) > 1e-12 {
		t.Errorf("c1.At(V) = %v, want %v", got, 2.70*1.015)
	}
}
