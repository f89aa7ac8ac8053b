package core

import (
	"fmt"
	"math"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/units"
)

// What-if analyses (paper §VI): "One scenario in which our model could
// be useful is in deciding whether to use prefetching. If we could
// estimate the ratio between used and unused prefetched data, we could
// estimate how much energy could be saved by turning prefetching off
// (from not loading unused data) and how that might impact performance —
// a performance loss could increase total energy (from constant power)."
// This file implements exactly that estimator.

// PrefetchScenario describes a kernel whose prefetching can be toggled.
type PrefetchScenario struct {
	// Profile is the kernel's counted profile *with prefetching on*
	// (DRAMWords includes the unused prefetched data).
	Profile counters.Profile
	// UsedFraction is the fraction of prefetched DRAM data actually
	// consumed, in (0, 1].
	UsedFraction units.Ratio
	// Slowdown is the runtime multiplier of disabling prefetch (>= 1):
	// demand misses stall the pipeline.
	Slowdown units.Ratio
	// TimeWithPrefetch is the measured execution time with prefetching
	// on.
	TimeWithPrefetch units.Second
}

// Validate reports an error for meaningless scenarios.
func (s PrefetchScenario) Validate() error {
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(s.UsedFraction > 0 && s.UsedFraction <= 1) {
		return fmt.Errorf("core: used fraction %g outside (0, 1]", float64(s.UsedFraction))
	}
	if !(s.Slowdown >= 1) {
		return fmt.Errorf("core: slowdown %g below 1", float64(s.Slowdown))
	}
	if !(s.TimeWithPrefetch > 0) {
		return fmt.Errorf("core: non-positive time %g", float64(s.TimeWithPrefetch))
	}
	if math.IsInf(float64(s.Slowdown), 1) || math.IsInf(float64(s.TimeWithPrefetch), 1) {
		return fmt.Errorf("core: infinite slowdown %g or time %g", float64(s.Slowdown), float64(s.TimeWithPrefetch))
	}
	if p := s.Profile; !finite(p.DPFMA, p.DPAdd, p.DPMul, p.SP, p.Int, p.SharedWords, p.L1Words, p.L2Words, p.DRAMWords) {
		return fmt.Errorf("core: non-finite profile count in %+v", p)
	}
	return nil
}

// PrefetchVerdict is the estimator's output.
type PrefetchVerdict struct {
	WithPrefetchJ    units.Joule // predicted energy with prefetching on
	WithoutPrefetchJ units.Joule // predicted energy with prefetching off
	DRAMSavedJ       units.Joule // energy saved by not loading unused data
	ConstantPaidJ    units.Joule // extra constant energy from running longer
	KeepPrefetch     bool        // true if prefetching is the lower-energy choice
}

// PrefetchAdvice evaluates the scenario at a DVFS setting with the
// fitted model.
func (m *Model) PrefetchAdvice(s PrefetchScenario, setting dvfs.Setting) (PrefetchVerdict, error) {
	if err := s.Validate(); err != nil {
		return PrefetchVerdict{}, err
	}
	withOff := s.Profile
	withOff.DRAMWords = s.Profile.DRAMWords * float64(s.UsedFraction)
	tOff := units.Second(float64(s.TimeWithPrefetch) * float64(s.Slowdown))

	on := m.PredictParts(s.Profile, setting, s.TimeWithPrefetch)
	off := m.PredictParts(withOff, setting, tOff)

	return PrefetchVerdict{
		WithPrefetchJ:    on.Total(),
		WithoutPrefetchJ: off.Total(),
		DRAMSavedJ:       on.DRAM - off.DRAM,
		ConstantPaidJ:    off.Constant - on.Constant,
		KeepPrefetch:     on.Total() <= off.Total(),
	}, nil
}

// PrefetchBreakEven returns the used-data fraction below which disabling
// prefetch becomes the lower-energy choice for the given slowdown, found
// by bisection. It returns 0 if prefetching wins even at arbitrarily low
// utilization, and 1 if disabling wins even at full utilization.
func (m *Model) PrefetchBreakEven(s PrefetchScenario, setting dvfs.Setting) (units.Ratio, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	keepAt := func(frac float64) bool {
		sc := s
		sc.UsedFraction = units.Ratio(frac)
		// The with-prefetch profile loads usedWords/frac DRAM words for
		// the same used data; rescale so the used volume is constant.
		used := s.Profile.DRAMWords * float64(s.UsedFraction)
		sc.Profile.DRAMWords = used / frac
		v, err := m.PrefetchAdvice(sc, setting)
		if err != nil {
			return true
		}
		return v.KeepPrefetch
	}
	const eps = 1e-6
	if keepAt(eps) {
		return 0, nil
	}
	if !keepAt(1) {
		return 1, nil
	}
	lo, hi := eps, 1.0 // keepAt(lo)=false, keepAt(hi)=true
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if keepAt(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return units.Ratio((lo + hi) / 2), nil
}
