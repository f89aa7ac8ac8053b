package tegra

import (
	"fmt"
	"math"

	"dvfsroofline/internal/units"
)

// DeviceParams holds the physical constants of a simulated SoC, so
// analysts can apply the paper's methodology to platforms other than the
// Tegra K1 ("users can easily replicate our experiments on their own
// systems", §VI). It is also the params object of a fleet device spec,
// under the JSON keys below. The zero value is invalid; start from
// TK1Params and adjust.
type DeviceParams struct {
	// Per-op dynamic energy coefficients ĉ0, in pJ per operation per V².
	SPpJ     units.PicoJoulePerOpPerVoltSq `json:"sp_pj_v2,omitempty"`
	DPpJ     units.PicoJoulePerOpPerVoltSq `json:"dp_pj_v2,omitempty"`
	IntpJ    units.PicoJoulePerOpPerVoltSq `json:"int_pj_v2,omitempty"`
	SharedpJ units.PicoJoulePerOpPerVoltSq `json:"shared_pj_v2,omitempty"`
	L2pJ     units.PicoJoulePerOpPerVoltSq `json:"l2_pj_v2,omitempty"`
	DRAMpJ   units.PicoJoulePerOpPerVoltSq `json:"dram_pj_v2,omitempty"`
	// Leakage coefficients c1 and the operation-independent power.
	LeakProcWpV units.WattPerVolt `json:"leak_proc_w_v,omitempty"`
	LeakMemWpV  units.WattPerVolt `json:"leak_mem_w_v,omitempty"`
	MiscW       units.Watt        `json:"misc_w,omitempty"`

	// Non-ideality knobs. All are zero on the ideal device (see Ideal);
	// each models a physical effect the paper's linear Eq. 9 cannot
	// capture, so the fitted model carries honest residuals like it does
	// on real silicon.

	// ActivitySlope: switching-activity dependence on occupancy.
	ActivitySlope units.Ratio `json:"activity_slope,omitempty"`
	// ThermalSlope: leakage dependence on dynamic power (heating).
	ThermalSlope units.Ratio `json:"thermal_slope,omitempty"`
	// FreqSlope: per-op energy drift with clock frequency.
	FreqSlope units.Ratio `json:"freq_slope,omitempty"`
	// MixJitterAmp: per-kernel switching-activity idiosyncrasy. Two
	// kernels with identical counted op mixes still toggle different
	// datapaths (unrolling, operand values, register pressure), so their
	// true energy differs by a few percent in a way no count-based model
	// can express. Modeled as a deterministic pseudo-random factor keyed
	// on the workload's op-mix ratios.
	MixJitterAmp units.Ratio `json:"mix_jitter_amp,omitempty"`
	// StallWatts: clock-gating imperfection — stalled pipelines keep
	// toggling, drawing power proportional to (1 - occupancy), scaled by
	// V²·f. Negligible for the saturating microbenchmarks, significant
	// for a low-IPC application like the FMM (§IV-C underutilization).
	StallWatts units.Watt `json:"stall_watts,omitempty"`
}

// TK1Params returns the Tegra K1 ground truth the simulator runs
// throughout the reproduction, including its default non-idealities.
// Its ĉ0 values lie within 0.06 pJ/V² of the Table I reconstruction that
// the serve fixture uses (DESIGN.md §5).
func TK1Params() DeviceParams {
	return DeviceParams{
		SPpJ: 27.35, DPpJ: 131.08, IntpJ: 56.55, SharedpJ: 33.36, L2pJ: 85.00, DRAMpJ: 369.57,
		LeakProcWpV: 2.70, LeakMemWpV: 3.80, MiscW: 0.15,
		ActivitySlope: 0.060, ThermalSlope: 0.040, FreqSlope: 0.10,
		MixJitterAmp: 0.06, StallWatts: 0.65,
	}
}

// Ideal returns p with the five non-ideality knobs zeroed: a device
// built from it follows the paper's Eq. 9 exactly.
func (p DeviceParams) Ideal() DeviceParams {
	p.ActivitySlope, p.ThermalSlope, p.FreqSlope = 0, 0, 0
	p.MixJitterAmp, p.StallWatts = 0, 0
	return p
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
	return &Device{params: p}, nil
}
