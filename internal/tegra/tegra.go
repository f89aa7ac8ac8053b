// Package tegra simulates the NVIDIA Jetson TK1's Tegra K1 SoC — the
// hardware platform of the paper — at the fidelity the energy-modeling
// methodology needs. The paper's experiments require a device that (a)
// executes a workload characterized by instruction and memory-traffic
// counts under any DVFS setting, (b) takes time governed by
// roofline-style throughput limits, and (c) dissipates power following
// the classic CMOS dynamic + leakage equations (paper Eqs. 1–4).
//
// The simulator's ground-truth constants are *hidden* from the modeling
// pipeline: they were reverse-engineered from the paper's Table I (see
// DESIGN.md §5) so that a correct NNLS instantiation of Eq. 9 recovers
// the paper's published per-operation energies. On top of the ideal
// linear model the device adds deterministic non-idealities — an
// occupancy-dependent activity factor and a temperature-dependent
// leakage drift — so that, as on real silicon, the fitted linear model
// carries honest residual error.
//
// Substitution note (DESIGN.md §2): this package replaces the physical
// Jetson TK1 board. Nothing in the calibration, validation or autotuning
// pipeline reads the ground truth directly; they observe the device only
// through simulated PowerMon measurements, exactly as the paper's
// analysts observed theirs.
package tegra

import (
	"fmt"
	"math"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/units"
)

// Architectural throughput constants of the Tegra K1's single Kepler SMX,
// in operations (or 32-bit words) per clock cycle.
const (
	SPPerCycle  = 192.0 // 192 CUDA cores, 1 SP FMA each per cycle
	DPPerCycle  = 8.0   // DP throughput is 1/24 of SP (paper §II-B)
	IntPerCycle = 160.0 // integer ALUs share issue slots with FP
	// On-chip word throughput per cycle (32-bit words). L1 and shared
	// memory share one 64 KB SRAM on Kepler, but shared memory's banked
	// access sustains higher throughput.
	SharedWordsPerCycle = 64.0
	L1WordsPerCycle     = 32.0
	L2WordsPerCycle     = 16.0
	// DRAM: 64-bit LPDDR3, double data rate -> 16 B/cycle of EMC clock.
	DRAMWordsPerCycle = 4.0
)

// Reference frequencies (the top of each DVFS ladder) used to normalize
// the frequency-dependent non-idealities.
const (
	refCoreHz = 852e6
	refMemHz  = 924e6
)

// Device is a simulated Tegra K1. The zero value is not usable; create
// devices with NewDevice.
type Device struct {
	params DeviceParams
}

// NewDevice returns a simulated Tegra K1 with the default ground truth.
func NewDevice() *Device {
	return &Device{params: TK1Params()}
}

// NewIdealDevice returns a device without the non-idealities: its
// behaviour follows the paper's Eq. 9 exactly. Tests use it to verify
// that the modeling pipeline is unbiased.
func NewIdealDevice() *Device {
	return &Device{params: TK1Params().Ideal()}
}

// Workload describes one kernel execution: its operation profile plus an
// occupancy factor in (0, 1] giving the fraction of peak issue throughput
// the kernel's instruction-level parallelism can sustain. The paper's
// microbenchmarks run near 1.0; its FMM phases run near 0.25 (§IV-C:
// "our code delivers less than a quarter of [peak] IPC").
type Workload struct {
	Profile   counters.Profile
	Occupancy units.Ratio
}

// Validate reports an error for physically meaningless workloads.
func (w Workload) Validate() error {
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(w.Occupancy > 0 && w.Occupancy <= 1) {
		return fmt.Errorf("tegra: occupancy %g outside (0, 1]", float64(w.Occupancy))
	}
	p := w.Profile
	for _, v := range []float64{p.SP, p.DPFMA, p.DPAdd, p.DPMul, p.Int,
		p.SharedWords, p.L1Words, p.L2Words, p.DRAMWords} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tegra: invalid profile count %g", v)
		}
	}
	if p.Instructions() == 0 && p.Accesses() == 0 {
		return fmt.Errorf("tegra: empty workload")
	}
	return nil
}

// Execution is the result of running a workload on the device at one DVFS
// setting. Time is exact; power is exposed as an instantaneous trace for
// the PowerMon simulator to sample. TrueEnergy integrates the trace in
// closed form and exists for tests and oracle baselines — the modeling
// pipeline must not use it.
type Execution struct {
	Setting  dvfs.Setting
	Workload Workload
	Time     units.Second

	dynPower   float64 // W, constant over the run
	constPower float64 // W, constant power during the run (incl. thermal drift)
	ripple     float64 // relative amplitude of the supply ripple
	rippleFreq float64 // Hz; an integer number of periods fits in Time
}

// Execute runs w at setting s and returns the resulting execution record.
// It panics on invalid workloads, which indicate programming errors in
// the experiment harness.
func (d *Device) Execute(w Workload, s dvfs.Setting) Execution {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	t := &d.params
	p := w.Profile

	// --- Time: roofline over compute and each memory level. ---
	fc := float64(s.Core.FreqHz())
	fm := float64(s.Mem.FreqHz())
	occ := float64(w.Occupancy)
	// The Kepler SMX dual-issues across its SP, DP and integer pipes, so
	// compute time is a roofline over the per-pipe cycle counts rather
	// than their sum.
	computeCycles := math.Max(p.SP/SPPerCycle,
		math.Max((p.DPFMA+p.DPAdd+p.DPMul)/DPPerCycle, p.Int/IntPerCycle))
	tCompute := computeCycles / (fc * occ)
	tShared := p.SharedWords / (SharedWordsPerCycle * fc * occ)
	tL1 := p.L1Words / (L1WordsPerCycle * fc * occ)
	tL2 := p.L2Words / (L2WordsPerCycle * fc * occ)
	// DRAM streams are prefetched deeply enough that occupancy matters
	// less; apply half the penalty.
	dramOcc := math.Min(1, occ*1.5)
	tDRAM := p.DRAMWords / (DRAMWordsPerCycle * fm * dramOcc)
	time := math.Max(tCompute, math.Max(math.Max(tShared, tL1), math.Max(tL2, tDRAM)))

	// --- Dynamic energy (shared with TrueBreakdown). ---
	compute, data := d.dynamicEnergy(w, s)
	eDyn := compute + data

	// Non-ideality 3: imperfectly gated stalled pipelines draw power for
	// the whole run, proportional to the unused issue bandwidth.
	vc := float64(s.Core.Volts())
	stall := float64(t.StallWatts) * (1 - occ) * vc * vc * (fc / refCoreHz)

	dynPower := eDyn/time + stall

	// Constant power per Eq. 8.
	constPower := float64(t.LeakProcWpV)*vc + float64(t.LeakMemWpV)*float64(s.Mem.Volts()) + float64(t.MiscW)
	// Non-ideality 2: leakage grows with die temperature, which tracks
	// dynamic power; normalized against a ~10 W envelope.
	constPower *= 1 + float64(t.ThermalSlope)*dynPower/10.0

	// Supply ripple near 50 Hz, adjusted so that an integer number of
	// periods fits in the run: the ripple then contributes exactly zero
	// net energy and TrueEnergy stays in closed form.
	periods := math.Max(1, math.Round(50*time))
	return Execution{
		Setting:    s,
		Workload:   w,
		Time:       units.Second(time),
		dynPower:   dynPower,
		constPower: constPower,
		ripple:     0.01,
		rippleFreq: periods / time,
	}
}

// PowerAt returns the instantaneous power draw at time t into the run.
// Outside [0, Time] the device idles at constant power. A small 50 Hz
// supply ripple keeps the trace from being trivially flat, as on the
// real board's unregulated rail.
func (e *Execution) PowerAt(t units.Second) units.Watt { return e.power(t, 1) }

// power is the run's trace at t with its dynamic power scaled by dyn:
// the one power formula behind PowerAt and ThrottledTrace.
func (e *Execution) power(t units.Second, dyn float64) units.Watt {
	base := e.constPower
	if t >= 0 && t < e.Time {
		base += e.dynPower * dyn
	}
	return units.Watt(base * (1 + e.ripple*math.Sin(2*math.Pi*e.rippleFreq*float64(t))))
}

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

// ThrottledTrace returns the run's power trace with the given throttle
// windows applied: inside a window the dynamic power is scaled by the
// window's factor, while constant power (leakage does not gate) and the
// supply ripple are unchanged. With no windows it returns PowerAt
// itself.
func (e *Execution) ThrottledTrace(windows []ThrottleWindow) func(t units.Second) units.Watt {
	if len(windows) == 0 {
		return e.PowerAt
	}
	ws := append([]ThrottleWindow(nil), windows...)
	return func(t units.Second) units.Watt {
		for _, w := range ws {
			if t >= w.Start && t < w.Start+w.Duration {
				return e.power(t, float64(w.Factor))
			}
		}
		return e.power(t, 1)
	}
}

// TrueEnergy returns the exact energy of the run (the integral of the
// trace over [0, Time], with the zero-mean ripple integrating away). It
// exists for tests and for the experiment harness's "measured minimum"
// oracle; the modeling pipeline sees only PowerMon samples.
func (e Execution) TrueEnergy() units.Joule {
	return units.Joule((e.dynPower + e.constPower) * float64(e.Time))
}

// TruePower returns the exact mean power of the run.
func (e Execution) TruePower() units.Watt { return units.Watt(e.dynPower + e.constPower) }

// ConstPower returns the run's operation-independent power (leakage
// plus miscellaneous, including the thermal drift).
func (e Execution) ConstPower() units.Watt { return units.Watt(e.constPower) }

// Breakdown decomposes the run's true energy the way the paper's Figure 7
// does: computation instructions, data movement, and constant power.
type Breakdown struct {
	Compute  units.Joule // SP + DP + integer instructions
	Data     units.Joule // shared + L1 + L2 + DRAM traffic
	Constant units.Joule // constant power x time
}

// Total returns the summed energy of the breakdown.
func (b Breakdown) Total() units.Joule { return b.Compute + b.Data + b.Constant }

// dynamicEnergy returns the exact compute- and data-movement energy (J)
// of a workload at a setting, including the activity and frequency
// non-idealities (zero on the ideal device).
func (d *Device) dynamicEnergy(w Workload, s dvfs.Setting) (compute, data float64) {
	t := &d.params
	p := w.Profile
	vp := float64(s.Core.Volts())
	vm := float64(s.Mem.Volts())
	vp2 := vp * vp
	vm2 := vm * vm
	const pJ = 1e-12

	compute = (p.SP*float64(t.SPpJ) + (p.DPFMA+p.DPAdd+p.DPMul)*float64(t.DPpJ) + p.Int*float64(t.IntpJ)) * vp2 * pJ
	// L1 hits are charged at the shared-memory cost: on Kepler both live
	// in the same 64 KB SRAM (the paper's Table I has no separate L1
	// column for the same reason).
	dataProc := ((p.SharedWords+p.L1Words)*float64(t.SharedpJ) + p.L2Words*float64(t.L2pJ)) * vp2 * pJ
	dataMem := p.DRAMWords * float64(t.DRAMpJ) * vm2 * pJ

	// Non-ideality 1: the switching activity factor rises slightly for
	// poorly pipelined (low-occupancy) kernels — replayed issues and
	// register re-fetches burn energy the linear model cannot see.
	activity := 1 + float64(t.ActivitySlope)*(0.95-float64(w.Occupancy)) + float64(t.MixJitterAmp)*mixJitter(p)
	// Non-ideality 2: per-op energy drifts mildly with clock frequency
	// (short-circuit currents), so ε is not exactly ĉ·V² — the linear
	// model's extrapolation to unseen frequencies carries error.
	procDrift := 1 + float64(t.FreqSlope)*(float64(s.Core.FreqHz())/refCoreHz-0.5)
	memDrift := 1 + float64(t.FreqSlope)*(float64(s.Mem.FreqHz())/refMemHz-0.5)

	compute *= activity * procDrift
	data = dataProc*activity*procDrift + dataMem*activity*memDrift
	return compute, data
}

// TrueBreakdown returns the device's exact energy decomposition for e.
// Like TrueEnergy it is an oracle for tests and figures, not an input to
// the model fit. The stall-power non-ideality is accounted under
// Constant, where a power meter would see it.
func (d *Device) TrueBreakdown(e Execution) Breakdown {
	compute, data := d.dynamicEnergy(e.Workload, e.Setting)
	return Breakdown{
		Compute:  units.Joule(compute),
		Data:     units.Joule(data),
		Constant: e.TrueEnergy() - units.Joule(compute) - units.Joule(data),
	}
}

// mixJitter maps a workload's op-mix ratios to a deterministic
// pseudo-random value in [-1, 1]. Workloads with the same mix always get
// the same value (it is a property of the kernel, not of the run), and
// scaling every count equally leaves it unchanged.
func mixJitter(p counters.Profile) float64 {
	tot := p.Instructions() + p.Accesses()
	if tot == 0 {
		return 0
	}
	x := 13.37*(p.SP/tot) + 7.91*((p.DPFMA+p.DPAdd+p.DPMul)/tot) + 5.53*(p.Int/tot) +
		3.17*(p.SharedWords/tot) + 2.71*(p.L1Words/tot) + 1.93*(p.L2Words/tot) +
		1.41*(p.DRAMWords/tot)
	return math.Sin(97.0 * x)
}
