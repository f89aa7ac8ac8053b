package tegra

import (
	"math"

	"dvfsroofline/internal/units"
)

// ThrottleWindow is an interval of a run during which thermal
// throttling depresses the device's dynamic power. The fault-injection
// layer (internal/faults) schedules windows; the simulator only applies
// them to the trace, since throttling is a property of the silicon, not
// of the meter.
type ThrottleWindow struct {
	Start    units.Second // offset into the run
	Duration units.Second
	Factor   units.Ratio // dynamic power multiplier inside the window, in [0, 1]
}

// Trace is a run's power trace as the PowerMon samples it: one
// execution, optionally repeated back to back, with the throttle
// windows of the attempt applied. Inside a window the dynamic power is
// scaled by the window's factor, while constant power (leakage does not
// gate) and the supply ripple are unchanged. The meter samples At, one
// concrete method, in place of a chain of closures per sample.
//
// A Trace refers to its execution and windows without copying them; it
// must not outlive them.
type Trace struct {
	exec    *Execution
	period  float64 // repeat period in seconds; 0 samples the run once
	windows []ThrottleWindow
}

// Trace returns the run's power trace with the given throttle windows
// applied (none for an honest run).
func (e *Execution) Trace(windows []ThrottleWindow) Trace {
	return Trace{exec: e, windows: windows}
}

// Repeat returns tr with its run repeated back to back: a sample at t
// reads the run at t mod Time. Throttle windows land inside one
// execution period and repeat with it, so their relative energy effect
// is the same whether the run needed repetition or not.
func (tr Trace) Repeat() Trace {
	tr.period = float64(tr.exec.Time)
	return tr
}

// At returns the trace's power at time t: the one power formula,
// behind PowerAt too. Inside the run the dynamic power is scaled by
// dynScale, which is exactly 1 outside every window, so an honest
// trace keeps its bits.
func (tr *Trace) At(t units.Second) units.Watt {
	e := tr.exec
	if tr.period > 0 {
		t = units.Second(fold(float64(t), tr.period))
	}
	base := e.constPower
	if t >= 0 && t < e.Time {
		base += e.dynPower * tr.dynScale(t)
	}
	return units.Watt(base * (1 + e.ripple*math.Sin(2*math.Pi*e.rippleFreq*float64(t))))
}

// dynScale is the dynamic power multiplier at run time t: the factor of
// the first window holding t, or 1 outside every window.
func (tr *Trace) dynScale(t units.Second) float64 {
	for _, w := range tr.windows {
		if t >= w.Start && t < w.Start+w.Duration {
			return float64(w.Factor)
		}
	}
	return 1
}

// fold returns math.Mod(t, p), bit for bit, at a fraction of its cost.
// It is the repeat fold of every sample of a repeated run.
//
// For t > 0 and finite p > 0 with t/p < 2^52, let k be the true
// quotient floor(t/p). Rounding is monotone and k and k+1 are exact
// floats, so q = floor(fl(t/p)) is k or k+1. math.FMA(-q, p, t) forms
// t - q·p exactly and rounds once. With q = k that difference is the
// true remainder, which lies in [0, p) and is exactly representable, so
// the rounding keeps it: the result is math.Mod's. With q = k+1 the
// difference is negative, and the fold recomputes with k. Every other
// input, t = ±0 included, falls back to math.Mod itself.
func fold(t, p float64) float64 {
	if !(t > 0 && p > 0 && p <= math.MaxFloat64) {
		return math.Mod(t, p)
	}
	x := t / p
	if !(x < 1<<52) {
		return math.Mod(t, p)
	}
	q := math.Floor(x)
	r := math.FMA(-q, p, t)
	if r < 0 {
		r = math.FMA(-(q - 1), p, t)
	}
	return r
}
