package experiments_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dvfsroofline/internal/cli"
	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
	"dvfsroofline/internal/workload"
)

var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// floatSetters returns one setter per exported float reachable from v:
// struct fields, slice elements and map values, recursively, each with
// its path for messages.
func floatSetters(v reflect.Value, path string) (paths []string, sets []func(float64)) {
	switch v.Kind() {
	case reflect.Pointer:
		return floatSetters(v.Elem(), path)
	case reflect.Float32, reflect.Float64:
		return []string{path}, []func(float64){v.SetFloat}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				p, s := floatSetters(v.Field(i), path+"."+f.Name)
				paths, sets = append(paths, p...), append(sets, s...)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			p, s := floatSetters(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			paths, sets = append(paths, p...), append(sets, s...)
		}
	case reflect.Map:
		if v.Type().Elem().Kind() == reflect.Float64 {
			for _, k := range v.MapKeys() {
				paths = append(paths, fmt.Sprintf("%s[%v]", path, k))
				sets = append(sets, func(x float64) { v.SetMapIndex(k, reflect.ValueOf(x).Convert(v.Type().Elem())) })
			}
		}
	}
	return paths, sets
}

// TestValidateRejectsNonFinite feeds NaN, +Inf and -Inf into every
// float field of every exported Validate whose receiver has float
// inputs, one field at a time, starting from a valid value each time.
// Each must return an error. fmm.Tree.Validate is left out: it checks
// the structure of a built tree, and its floats are the builder's
// geometry, not caller input.
func TestValidateRejectsNonFinite(t *testing.T) {
	profile := counters.Profile{DPFMA: 2e8, Int: 1e8, DRAMWords: 5e7}
	cases := []struct {
		name string
		// valid returns a fresh pointer to a value Validate accepts.
		valid    func() any
		validate func(any) error
		// skip names fields that accept non-finite values on purpose.
		skip map[string]bool
	}{
		{"faults.Plan", func() any { return &faults.Plan{Seed: 1, Throttle: 0.5} },
			func(v any) error { return v.(*faults.Plan).Validate() }, nil},
		{"powermon.Config", func() any { c := powermon.DefaultConfig(); return &c },
			func(v any) error { return v.(*powermon.Config).Validate() },
			// NewMeter reads a NaN or out-of-range rate as MaxSampleRate;
			// TestNewMeterClampsNonFiniteRate covers it.
			map[string]bool{".SampleRate": true}},
		{"tegra.Workload", func() any { return &tegra.Workload{Profile: profile, Occupancy: 0.5} },
			func(v any) error { return v.(*tegra.Workload).Validate() }, nil},
		{"tegra.DeviceParams", func() any { p := tegra.TK1Params(); return &p },
			func(v any) error { return v.(*tegra.DeviceParams).Validate() }, nil},
		{"counters.Set", func() any { s := counters.Emit(profile); return &s },
			func(v any) error { return v.(*counters.Set).Validate() }, nil},
		{"core.Sample", func() any {
			return &core.Sample{Profile: profile, Setting: dvfs.CalibrationSettings()[0].Setting, Time: 1, Energy: 2}
		}, func(v any) error { return v.(*core.Sample).Validate() }, nil},
		{"core.PrefetchScenario", func() any {
			return &core.PrefetchScenario{Profile: profile, UsedFraction: 0.5, Slowdown: 1.2, TimeWithPrefetch: 1}
		}, func(v any) error { return v.(*core.PrefetchScenario).Validate() }, nil},
		{"core.Machine", func() any { return &core.Machine{OpsPerSec: 1e9, WordsPerSec: 1e8} },
			func(v any) error { return v.(*core.Machine).Validate() }, nil},
		{"cli.App", func() any { return &cli.App{Name: "t", Seed: 1, MinCoverage: 1} },
			func(v any) error { return v.(*cli.App).Validate() }, nil},
		{"workload.Spec", func() any { s := workload.DefaultSpec(1, 10); return &s },
			func(v any) error { return v.(*workload.Spec).Validate() }, nil},
		{"fleet.FleetConfig", func() any {
			return &fleet.FleetConfig{Devices: []fleet.Spec{{ID: "d", Params: fleet.ParamsJSON{SPpJ: 1}, MinCoreMHz: 1, MaxCoreMHz: 1e4, MinMemMHz: 1, MaxMemMHz: 1e4}}}
		}, func(v any) error { return v.(*fleet.FleetConfig).Validate() }, nil},
		{"fleet.DriftConfig", func() any { return &fleet.DriftConfig{Window: 32, Slack: 0.05, Threshold: 0.75} },
			func(v any) error { return v.(*fleet.DriftConfig).Validate() }, nil},
	}
	for _, tc := range cases {
		if err := tc.validate(tc.valid()); err != nil {
			t.Fatalf("%s: base value rejected: %v", tc.name, err)
		}
		paths, _ := floatSetters(reflect.ValueOf(tc.valid()), "")
		if len(paths) == 0 {
			t.Fatalf("%s: no float fields found", tc.name)
		}
		for i, path := range paths {
			if tc.skip[path] {
				continue
			}
			for _, bad := range nonFinite {
				v := tc.valid()
				_, sets := floatSetters(reflect.ValueOf(v), "")
				sets[i](bad)
				if err := tc.validate(v); err == nil {
					t.Errorf("%s%s = %g: Validate returned nil", tc.name, path, bad)
				}
			}
		}
	}
}

func TestNewMeterClampsNonFiniteRate(t *testing.T) {
	for _, rate := range nonFinite {
		cfg := powermon.DefaultConfig()
		cfg.SampleRate = units.Hertz(rate)
		m, err := powermon.NewMeter(cfg, 1)
		if err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		if got := m.SampleRate(); got != powermon.MaxSampleRate {
			t.Errorf("rate %g: meter samples at %v Hz, want %v", rate, got, powermon.MaxSampleRate)
		}
	}
}

// TestSweepWorkloadEnergiesFiniteOrError is the property the entry
// checks exist for: whatever fault plan and meter config a caller
// builds, SweepWorkload either returns an error or candidates whose
// time and energy are all finite.
func TestSweepWorkloadEnergiesFiniteOrError(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	// pick draws one of good most of the time and an adversarial value
	// (non-finite, negative or above 1) otherwise.
	adversarial := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 2.5}
	pick := func(good ...float64) float64 {
		if rng.Float64() < 0.1 {
			return adversarial[rng.Intn(len(adversarial))]
		}
		return good[rng.Intn(len(good))]
	}
	dev := tegra.NewDevice()
	w := tegra.Workload{Profile: counters.Profile{DPFMA: 2e8, Int: 1e8, DRAMWords: 5e7}, Occupancy: 0.9}
	grid := make([]dvfs.Setting, 0, 16)
	for _, cs := range dvfs.CalibrationSettings() {
		grid = append(grid, cs.Setting)
	}
	iters := 200
	if testing.Short() {
		iters = 50
	}
	errs := 0
	for i := 0; i < iters; i++ {
		cfg := experiments.Config{
			Seed: 7,
			Faults: faults.Plan{
				Seed: 1, MeterDropout: pick(0, 0.02), MeterSpike: pick(0, 0.3), SpikeFactor: pick(0, 3),
				MeterDisconnect: pick(0, 0.02), DVFSFailure: pick(0, 0.02), Throttle: pick(0, 0.3),
				ThrottleFactor: pick(0, 0.5, 1), ThrottleFraction: pick(0, 0.5, 1),
			},
			Meter: powermon.Config{
				SampleRate: units.Hertz(pick(0, 512, 1024)), GainSigma: units.Ratio(pick(0, 0.03)),
				NoiseSigma: units.Watt(pick(0, 0.01)), QuantumW: units.Watt(pick(0, 0.005)),
			},
		}
		cands, err := experiments.SweepWorkload(context.Background(), dev, cfg, w, grid)
		if err != nil {
			errs++
			continue
		}
		for _, c := range cands {
			if !finite(float64(c.MeasuredEnergy)) || !finite(float64(c.Time)) {
				t.Fatalf("plan %+v, meter %+v: candidate at %v has energy %v, time %v and no error",
					cfg.Faults, cfg.Meter, c.Setting, c.MeasuredEnergy, c.Time)
			}
		}
	}
	if errs == 0 || errs == iters {
		t.Errorf("%d of %d sweeps failed; the draw should exercise both outcomes", errs, iters)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
