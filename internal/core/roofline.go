package core

import (
	"fmt"
	"math"

	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/units"
)

// This file implements the energy-roofline analysis the DVFS-aware model
// extends (the authors' prior IPDPS'13/'14 work, paper refs [2,3]): for
// a kernel characterized only by its arithmetic intensity I — operations
// per word of DRAM traffic — the model yields closed-form performance,
// power and energy-efficiency curves and the machine's *balance points*,
// the intensities at which a kernel transitions from memory-bound to
// compute-bound in time and in energy.

// OpClass selects the operation class of a roofline analysis.
type OpClass int

const (
	// ClassSP analyzes single-precision flops.
	ClassSP OpClass = iota
	// ClassDP analyzes double-precision flops.
	ClassDP
	// ClassInt analyzes integer operations.
	ClassInt
)

func (c OpClass) String() string {
	switch c {
	case ClassSP:
		return "SP"
	case ClassDP:
		return "DP"
	case ClassInt:
		return "Int"
	default:
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
}

// Machine carries the time-side peaks of the platform at one DVFS
// setting: the peak operation throughput of the analyzed class and the
// peak DRAM word bandwidth. (The energy-side costs come from the fitted
// Model.)
type Machine struct {
	OpsPerSec   units.OpsPerSecond   // peak throughput of the op class
	WordsPerSec units.WordsPerSecond // peak DRAM bandwidth, 32-bit words
}

// Validate reports an error for non-physical machines.
func (m Machine) Validate() error {
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(m.OpsPerSec > 0) || !(m.WordsPerSec > 0) {
		return fmt.Errorf("core: machine peaks must be positive, got %+v", m)
	}
	if math.IsInf(float64(m.OpsPerSec), 1) || math.IsInf(float64(m.WordsPerSec), 1) {
		return fmt.Errorf("core: machine peaks must be finite, got %+v", m)
	}
	return nil
}

// TimeBalance returns B_τ, the arithmetic intensity (ops per word) at
// which execution time transitions from memory- to compute-bound:
// below it the kernel is bandwidth-limited.
func (m Machine) TimeBalance() units.OpsPerWord {
	return units.OpsPerWord(float64(m.OpsPerSec) / float64(m.WordsPerSec))
}

// epsOf returns the model's per-op energy for the class at s.
func (m *Model) epsOf(c OpClass, s dvfs.Setting) units.PicoJoulePerOp {
	e := m.EpsAt(s)
	switch c {
	case ClassSP:
		return e.SP
	case ClassDP:
		return e.DP
	case ClassInt:
		return e.Int
	default:
		panic(fmt.Sprintf("core: unknown op class %d", int(c)))
	}
}

// EnergyBalance returns B_ε, the intensity at which a kernel spends as
// much energy on DRAM traffic as on operations: ε_mem / ε_op. Below it,
// data movement dominates the kernel's dynamic energy.
func (m *Model) EnergyBalance(c OpClass, s dvfs.Setting) units.OpsPerWord {
	e := m.EpsAt(s)
	return units.OpsPerWord(e.DRAM / m.epsOf(c, s))
}

// RooflinePoint is one sample of the energy roofline curves at a given
// arithmetic intensity, all per-op quantities normalized per operation.
type RooflinePoint struct {
	Intensity units.OpsPerWord

	TimePerOp   units.Second       // max(1/peak, 1/(I*BW))
	OpsPerSec   units.OpsPerSecond // attained performance (the classic roofline)
	EnergyPerOp units.JoulePerOp   // ε_op + ε_mem/I + π0·TimePerOp
	OpsPerJoule units.OpsPerJoule  // attained energy efficiency (the energy roofline)
	Power       units.Watt         // EnergyPerOp / TimePerOp
}

// RooflineAt evaluates the roofline curves for intensity I at setting s.
func (m *Model) RooflineAt(c OpClass, mach Machine, s dvfs.Setting, intensity units.OpsPerWord) RooflinePoint {
	if err := mach.Validate(); err != nil {
		panic(err)
	}
	if intensity <= 0 {
		panic(fmt.Sprintf("core: non-positive intensity %g", float64(intensity)))
	}
	const pJ = 1e-12
	e := m.EpsAt(s)
	inten := float64(intensity)
	tOp := math.Max(1/float64(mach.OpsPerSec), 1/(inten*float64(mach.WordsPerSec)))
	eOp := float64(m.epsOf(c, s))*pJ + float64(e.DRAM)*pJ/inten + float64(e.ConstPower)*tOp
	return RooflinePoint{
		Intensity:   intensity,
		TimePerOp:   units.Second(tOp),
		OpsPerSec:   units.OpsPerSecond(1 / tOp),
		EnergyPerOp: units.JoulePerOp(eOp),
		OpsPerJoule: units.OpsPerJoule(1 / eOp),
		Power:       units.Watt(eOp / tOp),
	}
}

// Roofline samples the curves at the given intensities.
func (m *Model) Roofline(c OpClass, mach Machine, s dvfs.Setting, intensities []units.OpsPerWord) []RooflinePoint {
	out := make([]RooflinePoint, len(intensities))
	for i, x := range intensities {
		out[i] = m.RooflineAt(c, mach, s, x)
	}
	return out
}

// EffectiveEnergyBalance returns the intensity at which *total* energy
// per op (including constant energy, which depends on the time roofline)
// is split evenly between operation energy and everything else. Unlike
// EnergyBalance it accounts for constant power, which shifts the balance
// right on platforms with high idle power — the effect that makes
// race-to-halt nearly optimal for the paper's FMM.
func (m *Model) EffectiveEnergyBalance(c OpClass, mach Machine, s dvfs.Setting) units.OpsPerWord {
	const pJ = 1e-12
	e := m.EpsAt(s)
	opE := float64(m.epsOf(c, s)) * pJ
	// Solve ε_mem/I + π0·t(I) = ε_op by bisection on I; the left side is
	// strictly decreasing in I.
	nonOp := func(i float64) float64 {
		tOp := math.Max(1/float64(mach.OpsPerSec), 1/(i*float64(mach.WordsPerSec)))
		return float64(e.DRAM)*pJ/i + float64(e.ConstPower)*tOp
	}
	lo, hi := 1e-6, 1e9
	if nonOp(hi) > opE {
		return units.OpsPerWord(math.Inf(1)) // constant power alone exceeds op energy
	}
	if nonOp(lo) < opE {
		return units.OpsPerWord(lo)
	}
	for iter := 0; iter < 200; iter++ {
		mid := math.Sqrt(lo * hi)
		if nonOp(mid) > opE {
			lo = mid
		} else {
			hi = mid
		}
	}
	return units.OpsPerWord(math.Sqrt(lo * hi))
}

// MachineFor derives the time-side peaks for a class at a setting from
// per-cycle throughputs — a convenience for platforms described the way
// internal/tegra describes the Tegra K1.
func MachineFor(opsPerCycle, wordsPerCycle units.PerCycle, s dvfs.Setting) Machine {
	return Machine{
		OpsPerSec:   units.OpsPerSecond(float64(opsPerCycle) * float64(s.Core.FreqHz())),
		WordsPerSec: units.WordsPerSecond(float64(wordsPerCycle) * float64(s.Mem.FreqHz())),
	}
}
