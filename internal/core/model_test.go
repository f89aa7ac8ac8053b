package core

import (
	"math"
	"strings"
	"testing"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// knownModel returns a model with the paper's Table I ground-truth
// constants (DESIGN.md §5).
func knownModel() *Model {
	return &Model{
		SPpJ: 27.35, DPpJ: 131.08, IntpJ: 56.55, SMpJ: 33.36, L2pJ: 85.00, DRAMpJ: 369.57,
		C1Proc: 2.70, C1Mem: 3.80, PMisc: 0.15,
	}
}

// calibrationSamples runs the microbenchmark suite (or a subset) over the
// paper's 16 calibration settings on the given device, metering each
// sample with the given meter config and campaign seed.
func calibrationSamples(t testing.TB, dev *tegra.Device, meterCfg powermon.Config, seed int64, benches []microbench.Benchmark) []Sample {
	t.Helper()
	r := &microbench.Runner{Device: dev, MeterConfig: meterCfg, Seed: seed, TargetTime: 0.1}
	var settings []dvfs.Setting
	for _, cs := range dvfs.CalibrationSettings() {
		settings = append(settings, cs.Setting)
	}
	raw, err := r.RunSuite(benches, settings)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Sample, len(raw))
	for i, s := range raw {
		out[i] = Sample{Profile: s.Workload.Profile, Setting: s.Setting, Time: s.Time, Energy: s.Energy}
	}
	return out
}

// smallSuite returns a reduced benchmark set that still spans all six
// operation classes, for fast tests.
func smallSuite() []microbench.Benchmark {
	var out []microbench.Benchmark
	for _, k := range microbench.Kinds() {
		is := k.Intensities()
		out = append(out,
			microbench.Benchmark{Kind: k, Intensity: is[0]},
			microbench.Benchmark{Kind: k, Intensity: is[len(is)/2]},
			microbench.Benchmark{Kind: k, Intensity: is[len(is)-1]},
		)
	}
	return out
}

func noiselessCfg() powermon.Config {
	return powermon.Config{SampleRate: powermon.MaxSampleRate}
}

func TestFitRecoversGroundTruthOnIdealDevice(t *testing.T) {
	// With the ideal device and a noiseless meter the NNLS fit must
	// recover the hidden Table I constants almost exactly.
	samples := calibrationSamples(t, tegra.NewIdealDevice(), noiselessCfg(), 1, smallSuite())
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	want := knownModel()
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"SPpJ", float64(m.SPpJ), float64(want.SPpJ), 0.02},
		{"DPpJ", float64(m.DPpJ), float64(want.DPpJ), 0.02},
		{"IntpJ", float64(m.IntpJ), float64(want.IntpJ), 0.02},
		{"SMpJ", float64(m.SMpJ), float64(want.SMpJ), 0.02},
		{"L2pJ", float64(m.L2pJ), float64(want.L2pJ), 0.02},
		{"DRAMpJ", float64(m.DRAMpJ), float64(want.DRAMpJ), 0.02},
		{"C1Proc", float64(m.C1Proc), float64(want.C1Proc), 0.10},
		{"C1Mem", float64(m.C1Mem), float64(want.C1Mem), 0.10},
	}
	for _, c := range checks {
		if rel := math.Abs(c.got-c.want) / c.want; rel > c.tol {
			t.Errorf("%s = %v, want %v (rel err %.4f > %.2f)", c.name, c.got, c.want, rel, c.tol)
		}
	}
}

func TestFitOnNoisyDeviceStaysCalibrated(t *testing.T) {
	// With realistic noise and the device's non-idealities, the full-
	// suite fit must recover dynamic coefficients within ~18% of truth —
	// the regime in which a printed Table I remains meaningful.
	samples := calibrationSamples(t, tegra.NewDevice(),
		powermon.DefaultConfig(), 7, microbench.Suite())
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	want := knownModel()
	pairs := [][2]units.PicoJoulePerOpPerVoltSq{
		{m.SPpJ, want.SPpJ}, {m.DPpJ, want.DPpJ}, {m.IntpJ, want.IntpJ},
		{m.SMpJ, want.SMpJ}, {m.L2pJ, want.L2pJ}, {m.DRAMpJ, want.DRAMpJ},
	}
	for i, p := range pairs {
		if rel := math.Abs(float64(p[0]-p[1])) / float64(p[1]); rel > 0.18 {
			t.Errorf("coefficient %d: got %v, want %v (rel %.3f)", i, p[0], p[1], rel)
		}
	}
}

func TestEpsAtReproducesTableIRows(t *testing.T) {
	// The known model evaluated at Table I settings must reproduce the
	// printed per-op energies (to printed precision).
	m := knownModel()
	e := m.EpsAt(dvfs.MustSetting(852, 924))
	rows := []struct {
		name      string
		got, want float64
	}{
		{"SP", float64(e.SP), 29.0}, {"DP", float64(e.DP), 139.1}, {"Int", float64(e.Int), 60.0},
		{"SM", float64(e.SM), 35.4}, {"L2", float64(e.L2), 90.2}, {"DRAM", float64(e.DRAM), 377.0},
		{"pi0", float64(e.ConstPower), 6.8},
	}
	for _, r := range rows {
		if math.Abs(r.got-r.want) > 0.1 {
			t.Errorf("%s = %.2f, Table I says %.1f", r.name, r.got, r.want)
		}
	}
	e = m.EpsAt(dvfs.MustSetting(396, 204))
	if math.Abs(float64(e.SP)-16.2) > 0.1 || math.Abs(float64(e.DRAM)-236.5) > 0.1 || math.Abs(float64(e.ConstPower)-5.2) > 0.1 {
		t.Errorf("396/204 row wrong: %+v", e)
	}
}

func TestPredictMatchesHandComputation(t *testing.T) {
	m := knownModel()
	s := dvfs.MustSetting(852, 924)
	p := counters.Profile{DPFMA: 1e9, Int: 2e9, DRAMWords: 1e8}
	tm := units.Second(0.5)
	e := m.EpsAt(s)
	want := (1e9*float64(e.DP) + 2e9*float64(e.Int) + 1e8*float64(e.DRAM)) * 1e-12 // dynamic
	want += float64(e.ConstPower) * float64(tm)
	got := m.Predict(p, s, tm)
	if math.Abs(float64(got)-want)/want > 1e-12 {
		t.Errorf("Predict = %v, want %v", got, want)
	}
}

func TestPartsSumToTotal(t *testing.T) {
	m := knownModel()
	p := counters.Profile{SP: 1e8, DPFMA: 2e8, DPAdd: 1e7, DPMul: 1e7, Int: 5e8,
		SharedWords: 3e8, L1Words: 1e8, L2Words: 5e7, DRAMWords: 2e7}
	parts := m.PredictParts(p, dvfs.MustSetting(540, 528), 0.7)
	sum := parts.Compute() + parts.Data() + parts.Constant
	if math.Abs(float64(sum-parts.Total()))/float64(parts.Total()) > 1e-12 {
		t.Errorf("Compute+Data+Constant = %v != Total %v", sum, parts.Total())
	}
	if parts.Constant <= 0 || parts.DP <= 0 || parts.SM <= 0 {
		t.Errorf("expected positive parts: %+v", parts)
	}
}

func TestL1ChargedAtSharedCost(t *testing.T) {
	m := knownModel()
	s := dvfs.MustSetting(852, 924)
	a := m.Predict(counters.Profile{SharedWords: 1e9, SP: 1}, s, 0.1)
	b := m.Predict(counters.Profile{L1Words: 1e9, SP: 1}, s, 0.1)
	if math.Abs(float64(a-b))/float64(a) > 1e-12 {
		t.Errorf("L1 words charged differently from shared words: %v vs %v", a, b)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("expected error for empty sample set")
	}
	bad := make([]Sample, numCoeffs)
	for i := range bad {
		bad[i] = Sample{Profile: counters.Profile{SP: 1}, Setting: dvfs.MaxSetting(), Time: 0, Energy: 1}
	}
	if _, err := Fit(bad); err == nil {
		t.Error("expected error for zero-time samples")
	}
}

// TestSampleValidate pins Sample.Validate's verdict and message per
// defect: a -cache samples.csv reaches the fit through it, so a row the
// device could not have produced must fail here, not inside NNLS.
func TestSampleValidate(t *testing.T) {
	valid := func() Sample {
		return Sample{Profile: counters.Profile{SP: 4e9, Int: 1e8, DRAMWords: 5e7}, Setting: dvfs.MustSetting(852, 924), Time: 0.2, Energy: 1.5}
	}
	cases := []struct {
		name   string
		mutate func(*Sample)
		want   string // error prefix; "" = valid
	}{
		{"valid", func(*Sample) {}, ""},
		{"zero time", func(s *Sample) { s.Time = 0 }, "core: sample has non-positive time 0"},
		{"NaN energy", func(s *Sample) { s.Energy = units.Joule(math.NaN()) }, "core: sample has non-positive energy NaN"},
		{"infinite time", func(s *Sample) { s.Time = units.Second(math.Inf(1)) }, "core: sample has infinite time +Inf or energy 1.5"},
		{"-Inf count", func(s *Sample) { s.Profile.SP = math.Inf(-1) }, "core: sample has a non-finite profile count or setting in "},
		{"negative count", func(s *Sample) { s.Profile.DRAMWords = -5e5 }, "core: sample has negative profile count -500000 in "},
	}
	for _, c := range cases {
		s := valid()
		c.mutate(&s)
		err := s.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want prefix %q", c.name, err, c.want)
		}
	}
}

func TestPredictionEquationMatchesEq9Form(t *testing.T) {
	// Doubling every operation count doubles the dynamic part but leaves
	// the constant part unchanged; doubling time does the reverse.
	m := knownModel()
	s := dvfs.MustSetting(756, 924)
	p := counters.Profile{DPFMA: 1e9, Int: 1e9, L2Words: 1e8, DRAMWords: 1e7}
	base := m.PredictParts(p, s, 1.0)
	doubleOps := m.PredictParts(p.Scale(2), s, 1.0)
	if math.Abs(float64(doubleOps.Compute()+doubleOps.Data()-2*(base.Compute()+base.Data()))) > 1e-9 {
		t.Error("dynamic energy not linear in operation counts")
	}
	if doubleOps.Constant != base.Constant {
		t.Error("constant energy should not depend on counts")
	}
	doubleTime := m.PredictParts(p, s, 2.0)
	if math.Abs(float64(doubleTime.Constant-2*base.Constant)) > 1e-12 {
		t.Error("constant energy not linear in time")
	}
	if doubleTime.Compute() != base.Compute() {
		t.Error("dynamic energy should not depend on time")
	}
}

func TestFitDegenerateSingleSetting(t *testing.T) {
	// All samples at one setting: the voltage columns are collinear with
	// the time column, so some coefficients are unidentifiable. NNLS must
	// still return a usable (non-negative) model that reproduces the
	// training energies, rather than failing.
	dev := tegra.NewIdealDevice()
	r := &microbench.Runner{Device: dev, MeterConfig: noiselessCfg(), Seed: 1, TargetTime: 0.05}
	s := dvfs.MaxSetting()
	var samples []Sample
	for _, k := range microbench.Kinds() {
		for _, ai := range k.Intensities() {
			smp, err := r.Run(microbench.Benchmark{Kind: k, Intensity: ai}, s)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, Sample{Profile: smp.Workload.Profile, Setting: s, Time: smp.Time, Energy: smp.Energy})
		}
	}
	m, err := Fit(samples)
	if err != nil {
		t.Fatalf("degenerate fit failed: %v", err)
	}
	for _, c := range []float64{
		float64(m.SPpJ), float64(m.DPpJ), float64(m.IntpJ), float64(m.SMpJ), float64(m.L2pJ), float64(m.DRAMpJ),
		float64(m.C1Proc), float64(m.C1Mem), float64(m.PMisc),
	} {
		if c < 0 {
			t.Fatalf("negative coefficient in degenerate fit: %+v", *m)
		}
	}
	// In-sample predictions must still be accurate.
	var worst float64
	for _, smp := range samples {
		rel := math.Abs(float64(m.Predict(smp.Profile, smp.Setting, smp.Time)-smp.Energy)) / float64(smp.Energy)
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.02 {
		t.Errorf("degenerate fit in-sample error %.3f too large", worst)
	}
}
