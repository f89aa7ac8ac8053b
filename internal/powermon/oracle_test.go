package powermon_test

import (
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
