package powermon_test

import (
	"fmt"
	"math"
	"testing"

	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/units"
)

// TestMeasurementBits is the unit-level oracle for the measurement path:
// it pins the exact bits of the energy and of the first and last sample
// for windows of the sizes the pipeline actually takes, so any change to
// the noise stream (stats.NewRNG), the fault stream or the sampling and
// integration arithmetic fails here rather than only in the soak goldens
// and the benchmark digests. The expected values were recorded with
// math/rand's own generator behind stats.NewRNG, so they also hold the
// math/rand stream contract (DESIGN.md §2): never regenerate them to
// absorb a change in the random streams.
func TestMeasurementBits(t *testing.T) {
	trace := func(t units.Second) units.Watt { return units.Watt(3.5 + 2*float64(t)) }
	cases := []struct {
		name     string
		seed     int64
		duration units.Second
		plan     faults.Plan // zero = no injector
		samples  int
		energy   uint64
		first    uint64
		last     uint64
	}{
		{
			// One autotune sweep candidate: 18 samples.
			name: "sweep", seed: stats.MixSeed(7, 852, 924), duration: 0.0165,
			samples: 18, energy: 0x3facc4bf0995aaf7, first: 0x400b147ae147ae15, last: 0x400b5c28f5c28f5c,
		},
		{
			// One calibration microbenchmark window: 309 samples.
			name: "calibration", seed: stats.MixSeed(7, 1, 2, 3), duration: 0.3,
			samples: 309, energy: 0x3ff2ec9a1cac082d, first: 0x400d000000000000, last: 0x4011147ae147ae15,
		},
		{
			// A sweep-sized window with a guaranteed spike window and a
			// 20% per-sample dropout rate drawn from the fault stream.
			name: "faulted", seed: stats.MixSeed(7, 400, 600), duration: 0.0165,
			plan:    faults.Plan{Seed: 17, MeterSpike: 1, MeterDropout: 0.2},
			samples: 18, energy: 0x3fb8086cca2db61b, first: 0x400c7ae147ae147b, last: 0x400ccccccccccccd,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := powermon.DefaultConfig()
			if in := c.plan.ForSample(c.seed, 0); in != nil {
				cfg.Faults = in
			}
			meas, err := powermon.MustMeter(cfg, c.seed).Measure(trace, c.duration)
			if err != nil {
				t.Fatal(err)
			}
			if len(meas.Samples) != c.samples {
				t.Fatalf("%d samples, want %d", len(meas.Samples), c.samples)
			}
			got := [3]uint64{
				math.Float64bits(float64(meas.Energy)),
				math.Float64bits(float64(meas.Samples[0])),
				math.Float64bits(float64(meas.Samples[len(meas.Samples)-1])),
			}
			want := [3]uint64{c.energy, c.first, c.last}
			for i, what := range []string{"energy", "first sample", "last sample"} {
				if got[i] != want[i] {
					t.Errorf("%s bits %#016x (%v), want %#016x (%v)", what,
						got[i], math.Float64frombits(got[i]), want[i], math.Float64frombits(want[i]))
				}
			}
		})
	}
}

// TestMeterResetBits pins the reuse contract that pooled meters rest
// on: a meter that has already measured, or whose last session a fault
// injector aborted in BeginMeasure, must measure exactly the bits of a
// fresh NewMeter once Reset to the same config and seed, and Energy must
// equal Measure's Energy bit for bit. It covers the default config, one
// without quantization and faulted ones (a spike plus dropouts, which
// read the previous stored sample), at sweep- and calibration-sized
// windows, on and off the sample grid.
func TestMeterResetBits(t *testing.T) {
	trace := func(t units.Second) units.Watt { return units.Watt(3.5 + 2*float64(t)) }
	unquantized := powermon.DefaultConfig()
	unquantized.QuantumW = 0
	configs := []struct {
		name string
		cfg  powermon.Config
		plan faults.Plan // zero = no injector
	}{
		{"default", powermon.DefaultConfig(), faults.Plan{}},
		{"quantum-0", unquantized, faults.Plan{}},
		{"faulted", powermon.DefaultConfig(), faults.Plan{Seed: 17, MeterSpike: 1, MeterDropout: 0.2}},
		{"faulted-quantum-0", unquantized, faults.Plan{Seed: 5, MeterSpike: 0.5, MeterDropout: 0.5}},
	}
	// withFaults returns cfg carrying plan's injector for (seed, attempt);
	// each session needs its own injector, as each attempt gets one.
	withFaults := func(cfg powermon.Config, plan faults.Plan, seed int64, attempt int) powermon.Config {
		if in := plan.ForSample(seed, attempt); in != nil {
			cfg.Faults = in
		}
		return cfg
	}
	disconnect := faults.Plan{Seed: 3, MeterDisconnect: 1}
	for _, c := range configs {
		for _, seed := range []int64{1, 42, stats.MixSeed(7, 852, 924), stats.MixSeed(7, 1, 2, 3)} {
			for _, duration := range []units.Second{0.0165, 0.3, 0.3 + 0.5/1024} {
				name := fmt.Sprintf("%s/seed=%d/duration=%g", c.name, seed, duration)
				want, err := powermon.MustMeter(withFaults(c.cfg, c.plan, seed, 0), seed).Measure(trace, duration)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				// A meter that measured under another config and seed.
				used := powermon.MustMeter(withFaults(unquantized, c.plan, seed+1, 1), seed+1)
				if _, err := used.Measure(trace, 0.1); err != nil {
					t.Fatalf("%s: warm-up: %v", name, err)
				}
				// A meter whose last session a disconnect aborted.
				aborted := powermon.MustMeter(withFaults(c.cfg, disconnect, seed, 0), seed)
				if _, err := aborted.Measure(trace, duration); err == nil {
					t.Fatalf("%s: the disconnect plan did not abort the session", name)
				}
				for _, m := range []struct {
					what  string
					meter *powermon.Meter
				}{{"used", used}, {"aborted", aborted}} {
					if err := m.meter.Reset(withFaults(c.cfg, c.plan, seed, 0), seed); err != nil {
						t.Fatalf("%s: %s: Reset: %v", name, m.what, err)
					}
					got, err := m.meter.Measure(trace, duration)
					if err != nil {
						t.Fatalf("%s: %s: %v", name, m.what, err)
					}
					if diff := measurementDiff(got, want); diff != "" {
						t.Errorf("%s: %s meter after Reset: %s", name, m.what, diff)
					}
					if err := m.meter.Reset(withFaults(c.cfg, c.plan, seed, 0), seed); err != nil {
						t.Fatalf("%s: %s: Reset: %v", name, m.what, err)
					}
					energy, err := m.meter.Energy(trace, duration)
					if err != nil {
						t.Fatalf("%s: %s: Energy: %v", name, m.what, err)
					}
					if math.Float64bits(float64(energy)) != math.Float64bits(float64(want.Energy)) {
						t.Errorf("%s: %s meter: Energy %v, Measure %v", name, m.what, energy, want.Energy)
					}
				}
			}
		}
	}
}

// measurementDiff describes the first bit that differs between two
// measurements, or returns "" when they are identical.
func measurementDiff(got, want powermon.Measurement) string {
	if got.Duration != want.Duration || len(got.Samples) != len(want.Samples) {
		return fmt.Sprintf("%d samples over %v s, want %d over %v s", len(got.Samples), got.Duration, len(want.Samples), want.Duration)
	}
	for i := range want.Samples {
		if math.Float64bits(float64(got.Samples[i])) != math.Float64bits(float64(want.Samples[i])) {
			return fmt.Sprintf("sample %d is %v, want %v", i, got.Samples[i], want.Samples[i])
		}
	}
	if math.Float64bits(float64(got.Energy)) != math.Float64bits(float64(want.Energy)) ||
		math.Float64bits(float64(got.MeanPower)) != math.Float64bits(float64(want.MeanPower)) {
		return fmt.Sprintf("energy %v, mean power %v, want %v, %v", got.Energy, got.MeanPower, want.Energy, want.MeanPower)
	}
	return ""
}
