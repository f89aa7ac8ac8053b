package tegra

import (
	"fmt"
	"math"

	"dvfsroofline/internal/units"
)

// DeviceParams describes a SoC for the simulator, so analysts can apply
// the paper's methodology to platforms other than the Tegra K1 ("users
// can easily replicate our experiments on their own systems", §VI). The
// zero value is invalid; start from TK1Params and adjust.
type DeviceParams struct {
	// Per-op dynamic energy coefficients ĉ0.
	SPpJ, DPpJ, IntpJ, SharedpJ, L2pJ, DRAMpJ units.PicoJoulePerOpPerVoltSq
	// Leakage coefficients and the operation-independent power.
	LeakProcWpV, LeakMemWpV units.WattPerVolt
	MiscW                   units.Watt
	// Non-ideality knobs; zero values yield an ideal (exactly-linear)
	// device.
	ActivitySlope units.Ratio
	ThermalSlope  units.Ratio
	FreqSlope     units.Ratio
	MixJitterAmp  units.Ratio
	StallWatts    units.Watt
}

// TK1Params returns the Tegra K1 ground truth used throughout the
// reproduction (DESIGN.md §5), including its default non-idealities.
func TK1Params() DeviceParams {
	t := defaultTruth
	return DeviceParams{
		SPpJ:          units.PicoJoulePerOpPerVoltSq(t.sp),
		DPpJ:          units.PicoJoulePerOpPerVoltSq(t.dp),
		IntpJ:         units.PicoJoulePerOpPerVoltSq(t.intg),
		SharedpJ:      units.PicoJoulePerOpPerVoltSq(t.shared),
		L2pJ:          units.PicoJoulePerOpPerVoltSq(t.l2),
		DRAMpJ:        units.PicoJoulePerOpPerVoltSq(t.dram),
		LeakProcWpV:   units.WattPerVolt(t.leakProc),
		LeakMemWpV:    units.WattPerVolt(t.leakMem),
		MiscW:         units.Watt(t.misc),
		ActivitySlope: units.Ratio(t.activitySlope),
		ThermalSlope:  units.Ratio(t.thermalSlope),
		FreqSlope:     units.Ratio(t.freqSlope),
		MixJitterAmp:  units.Ratio(t.mixJitterAmp),
		StallWatts:    units.Watt(t.stallWatts),
	}
}

// Validate reports an error for physically meaningless parameters.
// Fields are checked in declaration order, so the first bad one names
// the error.
func (p DeviceParams) Validate() error {
	type param struct {
		name string
		v    float64
	}
	positive := []param{
		{"SPpJ", float64(p.SPpJ)}, {"DPpJ", float64(p.DPpJ)}, {"IntpJ", float64(p.IntpJ)},
		{"SharedpJ", float64(p.SharedpJ)}, {"L2pJ", float64(p.L2pJ)}, {"DRAMpJ", float64(p.DRAMpJ)},
	}
	for _, f := range positive {
		// Negated so that NaN, which fails every comparison, is rejected.
		if !(f.v > 0) {
			return fmt.Errorf("tegra: %s must be positive, got %g", f.name, f.v)
		}
	}
	nonNegative := []param{
		{"LeakProcWpV", float64(p.LeakProcWpV)}, {"LeakMemWpV", float64(p.LeakMemWpV)},
		{"MiscW", float64(p.MiscW)},
		{"ActivitySlope", float64(p.ActivitySlope)}, {"ThermalSlope", float64(p.ThermalSlope)},
		{"MixJitterAmp", float64(p.MixJitterAmp)}, {"StallWatts", float64(p.StallWatts)},
	}
	for _, f := range nonNegative {
		if !(f.v >= 0) {
			return fmt.Errorf("tegra: %s must be non-negative, got %g", f.name, f.v)
		}
	}
	// FreqSlope may take either sign; every field must be finite.
	for _, f := range append(append(positive, nonNegative...), param{"FreqSlope", float64(p.FreqSlope)}) {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("tegra: %s must be finite, got %g", f.name, f.v)
		}
	}
	return nil
}

// NewCustomDevice builds a simulated device from explicit parameters.
func NewCustomDevice(p DeviceParams) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Device{truth: groundTruth{
		sp: float64(p.SPpJ), dp: float64(p.DPpJ), intg: float64(p.IntpJ),
		shared: float64(p.SharedpJ), l2: float64(p.L2pJ), dram: float64(p.DRAMpJ),
		leakProc: float64(p.LeakProcWpV), leakMem: float64(p.LeakMemWpV), misc: float64(p.MiscW),
		activitySlope: float64(p.ActivitySlope), thermalSlope: float64(p.ThermalSlope),
		freqSlope: float64(p.FreqSlope), mixJitterAmp: float64(p.MixJitterAmp),
		stallWatts: float64(p.StallWatts),
	}}, nil
}
