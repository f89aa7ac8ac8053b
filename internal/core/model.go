// Package core implements the paper's primary contribution: the
// DVFS-aware energy roofline model (Eq. 9),
//
//	E = Σ_k W_k·ĉ0k·V² + (c1,proc·Vproc + c1,mem·Vmem + Pmisc)·T ,
//
// where each operation class k (single- and double-precision flops,
// integer ops, shared/L1 words, L2 words, DRAM words) is charged a
// dynamic energy proportional to the square of its domain's supply
// voltage, and constant power scales linearly with the two domain
// voltages.
//
// The package provides model instantiation by non-negative least squares
// over measured samples (§II-C), energy prediction and per-component
// breakdowns (§IV), cross-validation (§II-D), and the energy autotuner
// with its race-to-halt "time oracle" baseline (§II-E).
//
// Every physical quantity is carried in the defined types of
// internal/units, so a Watt handed where a Joule belongs is a compile
// error (enforced repo-wide by the energylint unittypes rule).
package core

import (
	"errors"
	"fmt"
	"math"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/linalg"
	"dvfsroofline/internal/nnls"
	"dvfsroofline/internal/units"
)

// Sample is one training/validation observation: an operation profile
// executed at a DVFS setting, with its measured execution time and
// measured energy. Samples typically come from the microbenchmark runner
// or from profiled application phases.
type Sample struct {
	Profile counters.Profile
	Setting dvfs.Setting
	Time    units.Second // measured
	Energy  units.Joule  // measured
}

// Validate reports an error for samples the fit cannot consume.
func (s Sample) Validate() error {
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(s.Time > 0) {
		return fmt.Errorf("core: sample has non-positive time %g", float64(s.Time))
	}
	if !(s.Energy > 0) {
		return fmt.Errorf("core: sample has non-positive energy %g", float64(s.Energy))
	}
	if math.IsInf(float64(s.Time), 1) || math.IsInf(float64(s.Energy), 1) {
		return fmt.Errorf("core: sample has infinite time %g or energy %g", float64(s.Time), float64(s.Energy))
	}
	p, set := s.Profile, s.Setting
	if !finite(p.DPFMA, p.DPAdd, p.DPMul, p.SP, p.Int, p.SharedWords, p.L1Words, p.L2Words, p.DRAMWords,
		float64(set.Core.FreqMHz), float64(set.Core.VoltageMV), float64(set.Mem.FreqMHz), float64(set.Mem.VoltageMV)) {
		return fmt.Errorf("core: sample has a non-finite profile count or setting in %+v", s)
	}
	for _, v := range [...]float64{p.DPFMA, p.DPAdd, p.DPMul, p.SP, p.Int, p.SharedWords, p.L1Words, p.L2Words, p.DRAMWords} {
		if v < 0 {
			return fmt.Errorf("core: sample has negative profile count %g in %+v", v, s)
		}
	}
	return nil
}

// allValid reports whether every sample passes Validate.
func allValid(samples []Sample) bool {
	for _, s := range samples {
		if s.Validate() != nil {
			return false
		}
	}
	return true
}

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Model holds the fitted constants of Eq. 9.
type Model struct {
	SPpJ   units.PicoJoulePerOpPerVoltSq // ĉ0 for single-precision flops
	DPpJ   units.PicoJoulePerOpPerVoltSq // ĉ0 for double-precision flops (FMA, add and mul alike)
	IntpJ  units.PicoJoulePerOpPerVoltSq // ĉ0 for integer instructions
	SMpJ   units.PicoJoulePerOpPerVoltSq // ĉ0 for shared-memory/L1 words (one SRAM on Kepler)
	L2pJ   units.PicoJoulePerOpPerVoltSq // ĉ0 for L2 words
	DRAMpJ units.PicoJoulePerOpPerVoltSq // ĉ0 for DRAM words (scales with the memory voltage)

	C1Proc units.WattPerVolt // processor leakage coefficient
	C1Mem  units.WattPerVolt // memory leakage coefficient
	PMisc  units.Watt        // operation-independent miscellaneous power
}

// ErrTooFewSamples is returned when the training set cannot identify the
// model's nine constants.
var ErrTooFewSamples = errors.New("core: need at least 9 samples to fit the model")

const numCoeffs = 9

// designRow fills one row of the Eq. 9 design matrix. Count columns carry
// a 1e-12 scale so the fitted dynamic coefficients come out in pJ/V².
// The row is dimensionally heterogeneous by construction (counts·V²
// against V·s and s columns), so it stays raw float64 like the NNLS
// solution vector it pairs with.
func designRow(row []float64, p counters.Profile, s dvfs.Setting, time float64) {
	vp := float64(s.Core.Volts())
	vm := float64(s.Mem.Volts())
	vp2, vm2 := vp*vp, vm*vm
	const scale = 1e-12
	row[0] = p.SP * vp2 * scale
	row[1] = (p.DPFMA + p.DPAdd + p.DPMul) * vp2 * scale
	row[2] = p.Int * vp2 * scale
	row[3] = (p.SharedWords + p.L1Words) * vp2 * scale
	row[4] = p.L2Words * vp2 * scale
	row[5] = p.DRAMWords * vm2 * scale
	row[6] = vp * time
	row[7] = vm * time
	row[8] = time
}

// Fit instantiates the model from measured samples by non-negative least
// squares, exactly as §II-C prescribes. Every coefficient is a physical
// capacitance or leakage term, so negativity is excluded by construction.
func Fit(samples []Sample) (*Model, error) {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	return fitIndexed(samples, idx, false)
}

// fitIndexed fits the model to samples[idx[0]], samples[idx[1]], ... in
// that order, without copying the samples out. Unless validated says
// every sample already passed Validate, it validates each row, and
// errors name a bad sample by its index in samples.
func fitIndexed(samples []Sample, idx []int, validated bool) (*Model, error) {
	if len(idx) < numCoeffs {
		return nil, ErrTooFewSamples
	}
	a := linalg.NewMatrix(len(idx), numCoeffs)
	b := make([]units.Joule, len(idx))
	for r, i := range idx {
		s := samples[i]
		if !validated {
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("sample %d: %w", i, err)
			}
		}
		designRow(a.Row(r), s.Profile, s.Setting, float64(s.Time))
		b[r] = s.Energy
	}
	res, err := nnls.Solve(a, b, 0)
	if err != nil {
		return nil, fmt.Errorf("core: NNLS fit failed: %w", err)
	}
	x := res.X
	return &Model{
		SPpJ:   units.PicoJoulePerOpPerVoltSq(x[0]),
		DPpJ:   units.PicoJoulePerOpPerVoltSq(x[1]),
		IntpJ:  units.PicoJoulePerOpPerVoltSq(x[2]),
		SMpJ:   units.PicoJoulePerOpPerVoltSq(x[3]),
		L2pJ:   units.PicoJoulePerOpPerVoltSq(x[4]),
		DRAMpJ: units.PicoJoulePerOpPerVoltSq(x[5]),
		C1Proc: units.WattPerVolt(x[6]),
		C1Mem:  units.WattPerVolt(x[7]),
		PMisc:  units.Watt(x[8]),
	}, nil
}

// Eps returns the model's per-operation energies at a setting — one
// derived row of the paper's Table I.
type Eps struct {
	SP, DP, Int, SM, L2, DRAM units.PicoJoulePerOp
	ConstPower                units.Watt
}

// EpsAt evaluates the per-operation energy costs at setting s
// (Eqs. 6–8): ε = ĉ0·V² with the processor voltage for on-chip classes
// and the memory voltage for DRAM.
func (m *Model) EpsAt(s dvfs.Setting) Eps {
	vp2 := s.Core.Volts().Squared()
	vm2 := s.Mem.Volts().Squared()
	return Eps{
		SP:         m.SPpJ.At(vp2),
		DP:         m.DPpJ.At(vp2),
		Int:        m.IntpJ.At(vp2),
		SM:         m.SMpJ.At(vp2),
		L2:         m.L2pJ.At(vp2),
		DRAM:       m.DRAMpJ.At(vm2),
		ConstPower: m.ConstPower(s),
	}
}

// ConstPower returns the model's constant power π0 at setting s (Eq. 8).
func (m *Model) ConstPower(s dvfs.Setting) units.Watt {
	return m.C1Proc.At(s.Core.Volts()) + m.C1Mem.At(s.Mem.Volts()) + m.PMisc
}

// Parts is an energy prediction decomposed by component. It is the data
// behind the paper's Figures 6 and 7.
type Parts struct {
	SP, DP, Int  units.Joule // computation instructions
	SM, L2, DRAM units.Joule // data movement (SM includes L1)
	Constant     units.Joule // π0 · T
}

// Total returns the summed predicted energy.
func (p Parts) Total() units.Joule {
	return p.SP + p.DP + p.Int + p.SM + p.L2 + p.DRAM + p.Constant
}

// Compute returns the computation-instruction energy (Figure 7's
// "Computation" bar).
func (p Parts) Compute() units.Joule { return p.SP + p.DP + p.Int }

// Data returns the data-movement energy (Figure 7's "Data" bar).
func (p Parts) Data() units.Joule { return p.SM + p.L2 + p.DRAM }

// PredictParts predicts the energy of executing profile p at setting s
// with measured execution time t, decomposed by component.
func (m *Model) PredictParts(p counters.Profile, s dvfs.Setting, t units.Second) Parts {
	e := m.EpsAt(s)
	const pJ = 1e-12
	return Parts{
		SP:       units.Joule(p.SP * float64(e.SP) * pJ),
		DP:       units.Joule((p.DPFMA + p.DPAdd + p.DPMul) * float64(e.DP) * pJ),
		Int:      units.Joule(p.Int * float64(e.Int) * pJ),
		SM:       units.Joule((p.SharedWords + p.L1Words) * float64(e.SM) * pJ),
		L2:       units.Joule(p.L2Words * float64(e.L2) * pJ),
		DRAM:     units.Joule(p.DRAMWords * float64(e.DRAM) * pJ),
		Constant: units.Energy(e.ConstPower, t),
	}
}

// Predict returns the total predicted energy for profile p at setting s
// with measured time t (Eq. 9 with the fitted constants).
func (m *Model) Predict(p counters.Profile, s dvfs.Setting, t units.Second) units.Joule {
	return m.PredictParts(p, s, t).Total()
}
