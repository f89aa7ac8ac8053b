package microbench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

func TestSuiteSizeMatchesPaper(t *testing.T) {
	// 116 kernels x 16 settings = 1856 samples (§II-C).
	s := Suite()
	if len(s) != 116 {
		t.Fatalf("suite has %d kernels, want 116 (for 1856 samples over 16 settings)", len(s))
	}
	if len(s)*len(dvfs.CalibrationSettings()) != 1856 {
		t.Errorf("suite x calibration settings = %d, want 1856", len(s)*16)
	}
}

func TestTableIIIntensityCounts(t *testing.T) {
	// Table II "out of N" column: Single 25, Double 36, Integer 23,
	// Shared 10, L2 9.
	want := map[Kind]int{Single: 25, Double: 36, Integer: 23, Shared: 10, L2: 9, DRAM: 13}
	for k, n := range want {
		if got := len(k.Intensities()); got != n {
			t.Errorf("%v has %d intensities, want %d", k, got, n)
		}
	}
}

func TestIntensitiesMonotoneAndPositive(t *testing.T) {
	for _, k := range Kinds() {
		is := k.Intensities()
		for i, v := range is {
			if v <= 0 {
				t.Errorf("%v intensity %d is non-positive: %v", k, i, v)
			}
			if i > 0 && is[i] <= is[i-1] {
				t.Errorf("%v intensities not strictly increasing at %d", k, i)
			}
		}
	}
}

func TestWorkloadTargetsRightClass(t *testing.T) {
	const n = 1000.0
	cases := []struct {
		kind Kind
		get  func(w tegra.Workload) float64
	}{
		{Single, func(w tegra.Workload) float64 { return w.Profile.SP }},
		{Double, func(w tegra.Workload) float64 { return w.Profile.DPFMA }},
		{Integer, func(w tegra.Workload) float64 { return w.Profile.Int }},
		{Shared, func(w tegra.Workload) float64 { return w.Profile.SharedWords }},
		{L2, func(w tegra.Workload) float64 { return w.Profile.L2Words }},
	}
	for _, c := range cases {
		b := Benchmark{Kind: c.kind, Intensity: 8}
		w := b.Workload(n)
		if got := c.get(w); math.Abs(got-8*n) > 1e-9 {
			t.Errorf("%v: target-class ops = %v, want %v", c.kind, got, 8*n)
		}
		if w.Profile.DRAMWords != n {
			t.Errorf("%v: DRAM words = %v, want %v", c.kind, w.Profile.DRAMWords, n)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%v: invalid workload: %v", c.kind, err)
		}
	}
}

func TestWorkloadPanicsOnBadElements(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Benchmark{Kind: Single, Intensity: 1}.Workload(0)
}

func TestRunProducesMeasurableSample(t *testing.T) {
	r := &Runner{Device: tegra.NewDevice(), Seed: 1}
	smp, err := r.Run(Benchmark{Kind: Double, Intensity: 16}, dvfs.MustSetting(852, 924))
	if err != nil {
		t.Fatal(err)
	}
	if smp.Time < 0.25 || smp.Time > 0.40 {
		t.Errorf("run time %v outside the sizing window [0.25, 0.40]", smp.Time)
	}
	if smp.Energy <= 0 || smp.Power <= 0 {
		t.Errorf("non-positive measurement: E=%v P=%v", smp.Energy, smp.Power)
	}
	// Sanity: power must be at least constant power (~6.8 W at max
	// setting) and below a plausible board limit.
	if smp.Power < 5 || smp.Power > 25 {
		t.Errorf("implausible power %v W", smp.Power)
	}
}

func TestRunMeasurementTracksTruth(t *testing.T) {
	dev := tegra.NewDevice()
	r := &Runner{Device: dev, Seed: 2}
	s := dvfs.MustSetting(540, 528)
	smp, err := r.Run(Benchmark{Kind: L2, Intensity: 32}, s)
	if err != nil {
		t.Fatal(err)
	}
	truth := dev.Execute(smp.Workload, s).TrueEnergy()
	rel := math.Abs(float64(smp.Energy-truth)) / float64(truth)
	if rel > 0.08 {
		t.Errorf("measured energy off truth by %v", rel)
	}
}

func TestRunSuiteCountAndOrder(t *testing.T) {
	r := &Runner{
		Device:     tegra.NewDevice(),
		Seed:       3,
		TargetTime: 0.05, // keep the test fast; still > 50 samples at 1024 Hz
	}
	benches := []Benchmark{
		{Kind: Single, Intensity: 1},
		{Kind: DRAM, Intensity: 0.25},
	}
	settings := []dvfs.Setting{dvfs.MustSetting(852, 924), dvfs.MustSetting(396, 204)}
	samples, err := r.RunSuite(benches, settings)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	// Setting-major order.
	if samples[0].Setting != settings[0] || samples[2].Setting != settings[1] {
		t.Error("samples not in setting-major order")
	}
	if samples[0].Bench.Kind != Single || samples[1].Bench.Kind != DRAM {
		t.Error("samples not in benchmark order within a setting")
	}
}

func TestRunSuiteSubsetReproducesFullSuite(t *testing.T) {
	// Sample measurements are seeded by the (seed, benchmark, setting)
	// identity, not by suite position: re-running any subset of the suite
	// must reproduce exactly the samples the full run produced for those
	// benchmarks. This is what makes cached and parallel calibrations
	// byte-identical to serial ones.
	r := &Runner{Device: tegra.NewDevice(), Seed: 42, TargetTime: 0.05}
	benches := []Benchmark{
		{Kind: Single, Intensity: 1},
		{Kind: Double, Intensity: 16},
		{Kind: DRAM, Intensity: 0.25},
	}
	settings := []dvfs.Setting{dvfs.MustSetting(852, 924), dvfs.MustSetting(396, 204)}
	full, err := r.RunSuite(benches, settings)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := r.RunSuite(benches[1:2], settings[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 {
		t.Fatalf("got %d subset samples, want 1", len(sub))
	}
	// full is setting-major: the (settings[1], benches[1]) sample is at
	// index 1*len(benches)+1.
	want := full[1*len(benches)+1]
	if sub[0] != want {
		t.Errorf("subset sample differs from full-suite sample:\n got %+v\nwant %+v", sub[0], want)
	}
	// Reversed benchmark order must also reproduce the same samples.
	rev, err := r.RunSuite([]Benchmark{benches[2], benches[1], benches[0]}, settings[:1])
	if err != nil {
		t.Fatal(err)
	}
	for i := range rev {
		if rev[i] != full[len(benches)-1-i] {
			t.Errorf("reordered sample %d differs from full-suite sample", i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Single.String() != "Single" || Shared.String() != "Shared memory" {
		t.Error("Kind strings wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown Kind string wrong")
	}
}

func TestComputeBoundRunsFasterAtHigherFrequency(t *testing.T) {
	// The suite must actually exhibit the intensity behaviour the model
	// exploits: compute-bound kernels speed up with core frequency,
	// memory-bound kernels with memory frequency.
	dev := tegra.NewDevice()
	cb := Benchmark{Kind: Single, Intensity: 512}.Workload(1e7)
	mb := Benchmark{Kind: DRAM, Intensity: 1.0 / 64}.Workload(1e7)

	cbFast := dev.Execute(cb, dvfs.MustSetting(852, 204)).Time
	cbSlow := dev.Execute(cb, dvfs.MustSetting(396, 204)).Time
	if cbFast >= cbSlow {
		t.Error("compute-bound kernel did not speed up with core frequency")
	}
	mbFast := dev.Execute(mb, dvfs.MustSetting(396, 924)).Time
	mbSlow := dev.Execute(mb, dvfs.MustSetting(396, 204)).Time
	if mbFast >= mbSlow {
		t.Error("memory-bound kernel did not speed up with memory frequency")
	}
}

func TestSizeForHitsTarget(t *testing.T) {
	r := &Runner{Device: tegra.NewDevice(), Seed: 9}
	b := Benchmark{Kind: Double, Intensity: 8}
	for _, s := range []dvfs.Setting{dvfs.MaxSetting(), dvfs.MustSetting(180, 204)} {
		elements := r.SizeFor(b, s, 0.2)
		exec := tegra.NewDevice().Execute(b.Workload(elements), s)
		if math.Abs(float64(exec.Time)-0.2) > 1e-9 {
			t.Errorf("%v: sized run takes %v s, want 0.2", s, exec.Time)
		}
	}
}

func TestExecuteKeepsWorkloadFixed(t *testing.T) {
	// The same element count at two settings must yield identical
	// operation profiles: Table II sizes each benchmark once and executes
	// that work at every setting, since energies are only comparable at
	// equal work.
	dev := tegra.NewDevice()
	w := Benchmark{Kind: L2, Intensity: 16}.Workload(5e7)
	a := dev.Execute(w, dvfs.MaxSetting())
	c := dev.Execute(w, dvfs.MustSetting(396, 204))
	if a.Workload.Profile != c.Workload.Profile {
		t.Error("Execute changed the workload across settings")
	}
	if c.Time <= a.Time {
		t.Error("slower setting did not take longer for the same work")
	}
}

func TestMeasureTooShortBenchmarkErrors(t *testing.T) {
	// A microscopic benchmark run finishes between meter samples and
	// cannot be measured; benchmark runs are never repeated.
	b := Benchmark{Kind: Single, Intensity: 1}
	s := dvfs.MaxSetting()
	exec := tegra.NewDevice().Execute(b.Workload(10), s)
	_, err := Measure(exec, powermon.Config{}, faults.Plan{}, 11, 0, &b)
	if err == nil {
		t.Fatal("unmeasurably short run accepted")
	}
	if want := fmt.Sprintf("microbench: measuring %v at %v: ", b, s); !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not start with %q", err, want)
	}
}

// BenchmarkMeasureRepeated is one serve-cold sweep candidate through
// Measure: a run of about 3 ms, shorter than the meter's 16-sample
// window, so Measure repeats it back to back and samples 17 points of
// the repeated trace on a pooled meter. The bench gate holds it at zero
// allocs/op.
func BenchmarkMeasureRepeated(b *testing.B) {
	w := tegra.Workload{Profile: counters.Profile{DPFMA: 2e7, Int: 1e7, DRAMWords: 5e6}, Occupancy: 0.9}
	exec := tegra.NewDevice().Execute(w, dvfs.MustSetting(852, 924))
	if min := powermon.MustMeter(powermon.DefaultConfig(), 1).MinDuration(16); exec.Time >= min {
		b.Fatalf("run of %v s is not shorter than the %v s window", exec.Time, min)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		energy, err := Measure(exec, powermon.Config{}, faults.Plan{}, int64(i), 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		energySink += energy
	}
}

// energySink keeps the benchmark's measurements observable to the
// compiler.
var energySink units.Joule
