package powermon

import (
	"fmt"
	"math"
	"testing"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// noiseless returns a config with every error source disabled.
func noiseless(rate units.Hertz) Config {
	return Config{SampleRate: rate}
}

func TestConstantTraceExactWithoutNoise(t *testing.T) {
	m := MustMeter(noiseless(1024), 1)
	meas, err := m.Measure(func(units.Second) units.Watt { return 5.0 }, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(meas.Energy)-5.0) > 1e-9 {
		t.Errorf("energy = %v, want 5.0 J", meas.Energy)
	}
	if math.Abs(float64(meas.MeanPower)-5.0) > 1e-9 {
		t.Errorf("mean power = %v, want 5.0 W", meas.MeanPower)
	}
}

func TestLinearTraceTrapezoidExact(t *testing.T) {
	// The trapezoid rule is exact for linear integrands.
	m := MustMeter(noiseless(512), 1)
	meas, err := m.Measure(func(t units.Second) units.Watt { return units.Watt(2 + 3*float64(t)) }, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 + 1.5 // integral of 2+3t over [0,1]
	if math.Abs(float64(meas.Energy)-want) > 1e-9 {
		t.Errorf("energy = %v, want %v", meas.Energy, want)
	}
}

// TestTailIntervalIntegrated is the regression test for the tail
// truncation bug: the run below spans 512 full sample periods plus a
// 0.4999 ms tail, and the old integrator dropped the tail entirely
// (reading 5.000 J instead of 5.004999 J).
func TestTailIntervalIntegrated(t *testing.T) {
	m := MustMeter(noiseless(1024), 1)
	const duration = 0.5004999
	meas, err := m.Measure(func(units.Second) units.Watt { return 10.0 }, duration)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 * duration // 5.004999 J
	if rel := math.Abs(float64(meas.Energy)-want) / want; rel > 1e-6 {
		t.Errorf("energy = %.9f J, want %.9f J (rel err %g)", meas.Energy, want, rel)
	}
}

// TestMeasureClosedFormOffGrid is the property test behind the fix: with
// noise disabled, trapezoidal integration is exact for constant and
// linear traces, so Measure must match the closed-form energy at any
// duration — including ones that are not integer multiples of the sample
// period, where the old code silently dropped the closing interval.
func TestMeasureClosedFormOffGrid(t *testing.T) {
	rates := []units.Hertz{256, 512, 1000, 1024}
	// A spread of durations: grid-aligned, barely off-grid, half-period
	// off, and nearly one full period off.
	durations := []float64{
		0.25, 0.25 + 1.0/2048, 0.3, 0.333333, 0.5004999,
		1.0, 1.0 + 0.9/1024, 0.0999999,
	}
	traces := []struct {
		name   string
		f      func(t units.Second) units.Watt
		energy func(d float64) float64 // closed-form integral over [0, d]
	}{
		{"constant", func(units.Second) units.Watt { return 7.25 }, func(d float64) float64 { return 7.25 * d }},
		{"linear", func(t units.Second) units.Watt { return units.Watt(2 + 3*float64(t)) }, func(d float64) float64 { return 2*d + 1.5*d*d }},
	}
	for _, rate := range rates {
		for _, d := range durations {
			for _, tr := range traces {
				m := MustMeter(noiseless(rate), 1)
				meas, err := m.Measure(tr.f, units.Second(d))
				if err != nil {
					t.Fatalf("rate %g duration %g: %v", rate, d, err)
				}
				want := tr.energy(d)
				if rel := math.Abs(float64(meas.Energy)-want) / want; rel > 1e-9 {
					t.Errorf("%s trace, rate %g Hz, duration %g s: energy %.12g J, want %.12g J (rel %g)",
						tr.name, rate, d, meas.Energy, want, rel)
				}
			}
		}
	}
}

func TestTooShortRunRejected(t *testing.T) {
	m := MustMeter(DefaultConfig(), 1)
	if _, err := m.Measure(func(units.Second) units.Watt { return 1 }, 0.001); err == nil {
		t.Error("expected error for sub-sample-period run")
	}
	if _, err := m.Measure(func(units.Second) units.Watt { return 1 }, -1); err == nil {
		t.Error("expected error for negative duration")
	}
	if _, err := m.Measure(func(units.Second) units.Watt { return 1 }, units.Second(math.NaN())); err == nil {
		t.Error("expected error for NaN duration")
	}
}

func TestGainErrorBoundsAccuracy(t *testing.T) {
	// With the default 2% gain sigma, measured energy of a constant
	// trace should stay within ~3 sigma of truth, and across many
	// measurements the mean should converge to truth.
	m := MustMeter(DefaultConfig(), 42)
	const truth = 6.0
	var sum float64
	const reps = 300
	for i := 0; i < reps; i++ {
		meas, err := m.Measure(func(units.Second) units.Watt { return truth }, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(meas.Energy)-truth*0.5) / (truth * 0.5)
		if rel > 0.11 { // ~4 sigma of the default 3% gain error
			t.Errorf("measurement %d: relative error %v too large", i, rel)
		}
		sum += float64(meas.Energy)
	}
	meanRel := math.Abs(sum/reps-truth*0.5) / (truth * 0.5)
	if meanRel > 0.005 {
		t.Errorf("mean of %d measurements off by %v; gain error should be unbiased", reps, meanRel)
	}
}

func TestQuantization(t *testing.T) {
	cfg := Config{SampleRate: 1024, QuantumW: 0.5}
	m := MustMeter(cfg, 1)
	meas, err := m.Measure(func(units.Second) units.Watt { return 5.2 }, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range meas.Samples {
		if math.Abs(float64(s)-math.Round(float64(s)/0.5)*0.5) > 1e-12 {
			t.Fatalf("sample %v not quantized to 0.5 W", s)
		}
	}
}

func TestNegativeClamped(t *testing.T) {
	cfg := Config{SampleRate: 1024, NoiseSigma: 2.0}
	m := MustMeter(cfg, 7)
	meas, err := m.Measure(func(units.Second) units.Watt { return 0.1 }, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range meas.Samples {
		if s < 0 {
			t.Fatal("negative power sample survived clamping")
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a, _ := MustMeter(DefaultConfig(), 9).Measure(func(t units.Second) units.Watt { return units.Watt(3 + float64(t)) }, 0.5)
	b, _ := MustMeter(DefaultConfig(), 9).Measure(func(t units.Second) units.Watt { return units.Watt(3 + float64(t)) }, 0.5)
	if a.Energy != b.Energy {
		t.Error("same seed should reproduce the measurement")
	}
	c, _ := MustMeter(DefaultConfig(), 10).Measure(func(t units.Second) units.Watt { return units.Watt(3 + float64(t)) }, 0.5)
	if a.Energy == c.Energy {
		t.Error("different seeds should perturb the measurement")
	}
}

func TestMinDuration(t *testing.T) {
	m := MustMeter(DefaultConfig(), 1)
	if d := m.MinDuration(256); d != 0.25 {
		t.Errorf("MinDuration(256) = %v, want 0.25", d)
	}
	if d := m.MinDuration(0); d != 3.0/1024 {
		t.Errorf("MinDuration(0) = %v, want %v", d, 3.0/1024)
	}
}

func TestRateClamped(t *testing.T) {
	m := MustMeter(Config{SampleRate: 1e6}, 1)
	if m.SampleRate() != MaxSampleRate {
		t.Errorf("rate %v not clamped to %v", m.SampleRate(), MaxSampleRate)
	}
}

func TestNegativeConfigRejected(t *testing.T) {
	m := MustMeter(DefaultConfig(), 1)
	for _, cfg := range []Config{
		{SampleRate: 100, GainSigma: -1},
		{SampleRate: 100, NoiseSigma: -0.01},
		{SampleRate: 100, QuantumW: -0.005},
	} {
		_, err := NewMeter(cfg, 1)
		if err == nil {
			t.Errorf("NewMeter(%+v) accepted a negative noise parameter", cfg)
		}
		// Reset validates the same way and leaves the meter as it was.
		if resetErr := m.Reset(cfg, 2); resetErr == nil || err == nil || resetErr.Error() != err.Error() {
			t.Errorf("Reset(%+v) = %v, NewMeter's error %v", cfg, resetErr, err)
		}
		if m.cfg != DefaultConfig() {
			t.Errorf("rejected Reset(%+v) changed the config to %+v", cfg, m.cfg)
		}
	}
}

func TestMustMeterPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustMeter(Config{SampleRate: 100, GainSigma: -1}, 1)
}

// stubInjector exercises the Config.Faults hook without pulling in the
// faults package (powermon must not depend on it).
type stubInjector struct {
	beginErr   error
	scale      float64 // multiplies every sample when non-zero
	dropFrom   int     // hold the previous sample from this index on (0 disables)
	sawSamples int
}

func (f *stubInjector) BeginMeasure(duration units.Second, samples int) error {
	f.sawSamples = samples
	return f.beginErr
}

func (f *stubInjector) ObserveSample(i int, clean, prev units.Watt) units.Watt {
	if f.dropFrom > 0 && i >= f.dropFrom {
		return prev
	}
	if f.scale != 0 {
		return clean * units.Watt(f.scale)
	}
	return clean
}

func TestFaultInjectorAbortsSession(t *testing.T) {
	inj := &stubInjector{beginErr: errTest}
	cfg := noiseless(1024)
	cfg.Faults = inj
	m := MustMeter(cfg, 1)
	if _, err := m.Measure(func(units.Second) units.Watt { return 5 }, 1.0); err == nil {
		t.Fatal("expected the injected BeginMeasure error to abort Measure")
	}
	if inj.sawSamples < 1024 {
		t.Errorf("injector saw %d samples, want >= 1024", inj.sawSamples)
	}
}

var errTest = fmt.Errorf("injected test failure")

func TestFaultInjectorRewritesSamples(t *testing.T) {
	cfg := noiseless(1024)
	cfg.Faults = &stubInjector{scale: 2}
	m := MustMeter(cfg, 1)
	meas, err := m.Measure(func(units.Second) units.Watt { return 5 }, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(meas.Energy)-10.0) > 1e-9 {
		t.Errorf("scaled energy = %v, want 10 J", meas.Energy)
	}

	cfg.Faults = &stubInjector{dropFrom: 1}
	m = MustMeter(cfg, 1)
	meas, err = m.Measure(func(t units.Second) units.Watt { return units.Watt(1 + 8*float64(t)) }, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Every sample after the first repeats it, so the integral collapses
	// to the held first reading.
	if math.Abs(float64(meas.Energy)-1.0) > 1e-9 {
		t.Errorf("sample-and-hold energy = %v, want 1 J", meas.Energy)
	}
}

func TestMeasureTegraRunMatchesTrueEnergy(t *testing.T) {
	// End-to-end: sampling a simulated device run must land within a few
	// percent of the device's closed-form energy.
	dev := tegra.NewDevice()
	w := tegra.Workload{
		Profile:   counters.Profile{SP: 5e9, DRAMWords: 5e7},
		Occupancy: 0.9,
	}
	e := dev.Execute(w, dvfs.MustSetting(852, 924))
	if e.Time < 0.02 {
		t.Fatalf("test workload too short to sample: %v s", e.Time)
	}
	m := MustMeter(DefaultConfig(), 3)
	meas, err := m.Measure(e.PowerAt, e.Time)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(float64(meas.Energy-e.TrueEnergy())) / float64(e.TrueEnergy())
	if rel > 0.08 {
		t.Errorf("measured %v J vs true %v J (rel %v)", meas.Energy, e.TrueEnergy(), rel)
	}
}

// BenchmarkMeterCandidate is one autotune sweep candidate's measurement:
// a fresh identity-seeded meter and an 18-sample window at full rate.
func BenchmarkMeterCandidate(b *testing.B) {
	b.ReportAllocs()
	trace := func(t units.Second) units.Watt { return units.Watt(3.5 + 2*float64(t)) }
	for i := 0; i < b.N; i++ {
		meas, err := MustMeter(DefaultConfig(), int64(i)).Measure(trace, 0.0165)
		if err != nil {
			b.Fatal(err)
		}
		energySink += meas.Energy
	}
}

// BenchmarkMeterReuse is the same candidate as BenchmarkMeterCandidate
// on the path microbench.Measure takes: one meter Reset in place to each
// candidate's seed and integrated by Energy, which keeps no samples. The
// bench gate holds it at zero allocs/op.
func BenchmarkMeterReuse(b *testing.B) {
	b.ReportAllocs()
	trace := func(t units.Second) units.Watt { return units.Watt(3.5 + 2*float64(t)) }
	m := new(Meter)
	for i := 0; i < b.N; i++ {
		if err := m.Reset(DefaultConfig(), int64(i)); err != nil {
			b.Fatal(err)
		}
		energy, err := m.Energy(trace, 0.0165)
		if err != nil {
			b.Fatal(err)
		}
		energySink += energy
	}
}

// energySink keeps the meter benchmarks' measurements observable to the
// compiler.
var energySink units.Joule
