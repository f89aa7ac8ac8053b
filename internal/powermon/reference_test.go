package powermon_test

import (
	"fmt"
	"math"
	"testing"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// referenceMeasure is the meter's session written out sample by sample
// in its plainest form: the grid and closing sample, gain, noise,
// quantisation, clamping, the fault hook and the trapezoids, in that
// order, on a generator seeded as a fresh meter's. It keeps the
// measurement path's bits pinned against any restructuring of
// Meter.Measure's loop.
func referenceMeasure(cfg powermon.Config, seed int64, trace func(units.Second) units.Watt, duration units.Second) (float64, []units.Watt, error) {
	rng := stats.NewRNG(seed)
	dur := float64(duration)
	dt := 1 / float64(cfg.SampleRate)
	n := int(dur/dt) + 1
	tail := dur - float64(n-1)*dt
	total := n
	if tail > dt*1e-9 {
		total = n + 1
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.BeginMeasure(duration, total); err != nil {
			return 0, nil, err
		}
	}
	samples := make([]units.Watt, total)
	gain := rng.Normal(1, float64(cfg.GainSigma))
	var energy, prev float64
	for i := range samples {
		t := float64(i) * dt
		if t > dur {
			t = dur
		}
		v := float64(trace(units.Second(t)))*gain + rng.Normal(0, float64(cfg.NoiseSigma))
		if q := float64(cfg.QuantumW); q > 0 {
			v = math.Round(v/q) * q
		}
		if v < 0 {
			v = 0
		}
		if cfg.Faults != nil {
			v = float64(cfg.Faults.ObserveSample(i, units.Watt(v), units.Watt(prev)))
		}
		samples[i] = units.Watt(v)
		if i > 0 {
			step := dt
			if i == n {
				step = tail
			}
			energy += 0.5 * (prev + v) * step
		}
		prev = v
	}
	return energy, samples, nil
}

// TestRepeatedTraceMatchesReference samples a short run repeated back
// to back, the shape of every serve-cold sweep candidate, through the
// path microbench.Measure takes: tegra.Trace's At, with its FMA repeat
// fold and throttle windows, on a meter whose fault injector spikes and
// drops samples (a dropout reads the previous sample). Sessions of 17,
// 63, 64, 65 and 129 samples, on the sample grid and off it with a
// closing sample, must give the bits of referenceMeasure over the
// unrepeated trace folded by math.Mod, both through Measure and Energy.
func TestRepeatedTraceMatchesReference(t *testing.T) {
	w := tegra.Workload{Profile: counters.Profile{DPFMA: 2e7, Int: 1e7, DRAMWords: 5e6}, Occupancy: 0.9}
	exec := tegra.NewDevice().Execute(w, dvfs.MustSetting(852, 924))
	windows := []tegra.ThrottleWindow{{Start: exec.Time / 5, Duration: exec.Time / 3, Factor: 0.4}}
	plans := []struct {
		name string
		plan faults.Plan // zero = no injector
	}{
		{"clean", faults.Plan{}},
		{"spike+dropout", faults.Plan{Seed: 17, MeterSpike: 1, MeterDropout: 0.2}},
	}
	const seed = 42
	for _, total := range []int{17, 63, 64, 65, 129} {
		for _, closing := range []bool{false, true} {
			// On the grid, total samples span total-1 periods; off it,
			// total-1 grid samples and the closing one span half a period
			// more than total-2.
			duration := units.Second(float64(total-1) / powermon.MaxSampleRate)
			if closing {
				duration = units.Second((float64(total-2) + 0.5) / powermon.MaxSampleRate)
			}
			for _, p := range plans {
				for _, ws := range [][]tegra.ThrottleWindow{nil, windows} {
					name := fmt.Sprintf("samples=%d/closing=%v/%s/throttled=%v", total, closing, p.name, ws != nil)
					cfg := func() powermon.Config {
						cfg := powermon.DefaultConfig()
						if in := p.plan.ForSample(seed, 0); in != nil {
							cfg.Faults = in
						}
						return cfg
					}
					once := exec.Trace(ws)
					ref := func(t units.Second) units.Watt {
						return once.At(units.Second(math.Mod(float64(t), float64(exec.Time))))
					}
					wantE, wantS, err := referenceMeasure(cfg(), seed, ref, duration)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if len(wantS) != total {
						t.Fatalf("%s: reference took %d samples", name, len(wantS))
					}
					trace := exec.Trace(ws).Repeat()
					meas, err := powermon.MustMeter(cfg(), seed).Measure(trace.At, duration)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i := range wantS {
						if math.Float64bits(float64(meas.Samples[i])) != math.Float64bits(float64(wantS[i])) {
							t.Fatalf("%s: sample %d is %v, reference %v", name, i, meas.Samples[i], wantS[i])
						}
					}
					energy, err := powermon.MustMeter(cfg(), seed).Energy(trace.At, duration)
					if err != nil {
						t.Fatalf("%s: Energy: %v", name, err)
					}
					for _, got := range []units.Joule{meas.Energy, energy} {
						if math.Float64bits(float64(got)) != math.Float64bits(wantE) {
							t.Errorf("%s: energy %v, reference %v", name, got, wantE)
						}
					}
				}
			}
		}
	}
}
