package core

import (
	"math"
	"runtime"
	"testing"

	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
)

func TestHoldoutValidateIdealIsNearExact(t *testing.T) {
	samples := calibrationSamples(t, tegra.NewIdealDevice(), noiselessCfg(), 1, smallSuite())
	// Train on the T-type settings (first 8 of 16), validate on V-type,
	// mirroring §II-D. Samples are setting-major: first half T.
	mask := make([]bool, len(samples))
	for i := range mask {
		mask[i] = i < len(samples)/2
	}
	res, err := HoldoutValidate(samples, mask)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Mean > 0.01 {
		t.Errorf("ideal-device holdout mean error %.4f, want < 1%%", res.Summary.Mean)
	}
}

func TestHoldoutValidateRealisticErrorBand(t *testing.T) {
	// §II-D: holdout mean error 2.87%, max 11.94%. With our simulated
	// noise the pipeline must land in the same regime: mean within
	// [0.5%, 6%], max below 20%.
	samples := calibrationSamples(t, tegra.NewDevice(),
		powermon.DefaultConfig(), 11, smallSuite())
	mask := make([]bool, len(samples))
	for i := range mask {
		mask[i] = i < len(samples)/2
	}
	res, err := HoldoutValidate(samples, mask)
	if err != nil {
		t.Fatal(err)
	}
	pct := res.Percent()
	if pct.Mean < 0.5 || pct.Mean > 6 {
		t.Errorf("holdout mean error %.2f%%, paper regime is ~2.9%%", pct.Mean)
	}
	if pct.Max > 20 {
		t.Errorf("holdout max error %.2f%%, paper max was 11.94%%", pct.Max)
	}
}

func TestCrossValidate16Fold(t *testing.T) {
	// §II-D: 16-fold CV mean 6.56%, max 15.22%, one fold per calibration
	// setting. Accept a generous band around the paper's numbers.
	samples := calibrationSamples(t, tegra.NewDevice(),
		powermon.DefaultConfig(), 13, smallSuite())
	// Samples are setting-major with equal group sizes.
	per := len(samples) / 16
	groups := make([]int, len(samples))
	for i := range groups {
		groups[i] = i / per
	}
	res, err := CrossValidateGrouped(samples, groups)
	if err != nil {
		t.Fatal(err)
	}
	pct := res.Percent()
	if pct.Mean < 0.5 || pct.Mean > 10 {
		t.Errorf("16-fold mean error %.2f%%, paper regime is ~6.6%%", pct.Mean)
	}
	if pct.N != len(samples) {
		t.Errorf("CV evaluated %d errors, want one per sample (%d)", pct.N, len(samples))
	}
}

func TestHoldoutMaskLengthMismatch(t *testing.T) {
	samples := make([]Sample, 4)
	if _, err := HoldoutValidate(samples, []bool{true}); err == nil {
		t.Error("expected error for mask length mismatch")
	}
}

func TestCrossValidateGrouped(t *testing.T) {
	samples := calibrationSamples(t, tegra.NewIdealDevice(), noiselessCfg(), 1, smallSuite())
	// Group by setting: samples are setting-major with equal group sizes.
	per := len(samples) / 16
	groups := make([]int, len(samples))
	for i := range groups {
		groups[i] = i / per
	}
	res, err := CrossValidateGrouped(samples, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N != len(samples) {
		t.Errorf("evaluated %d errors, want %d", res.Summary.N, len(samples))
	}
	if res.Summary.Mean > 0.01 {
		t.Errorf("ideal-device grouped CV mean %.4f, want ~0", res.Summary.Mean)
	}
	// Error paths.
	if _, err := CrossValidateGrouped(samples, groups[:3]); err == nil {
		t.Error("mismatched group labels accepted")
	}
	one := make([]int, len(samples))
	if _, err := CrossValidateGrouped(samples, one); err == nil {
		t.Error("single group accepted")
	}
}

// pinnedSamples returns the seed-13 smallSuite campaign the pinned-bits
// tests fit, with its setting-major group labels.
func pinnedSamples(t testing.TB) ([]Sample, []int) {
	samples := calibrationSamples(t, tegra.NewDevice(), powermon.DefaultConfig(), 13, smallSuite())
	per := len(samples) / 16
	groups := make([]int, len(samples))
	for i := range groups {
		groups[i] = i / per
	}
	return samples, groups
}

// pinnedSummary is the exact 16-fold CV summary of pinnedSamples: N,
// then the bits of Mean, Stddev, Min and Max.
var pinnedSummary = struct {
	n                      int
	mean, stddev, min, max uint64
}{288, 0x3f994fec7ac27fd6, 0x3f93df376957d885, 0x3f1a35ef0ba5ee33, 0x3fbb22445a18787f}

func checkPinnedSummary(t *testing.T, label string, s stats.Summary) {
	t.Helper()
	p := pinnedSummary
	if s.N != p.n {
		t.Errorf("%s: N = %d, want %d", label, s.N, p.n)
	}
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{{"Mean", s.Mean, p.mean}, {"Stddev", s.Stddev, p.stddev}, {"Min", s.Min, p.min}, {"Max", s.Max, p.max}} {
		if got := math.Float64bits(c.got); got != c.want {
			t.Errorf("%s: %s = %#016x (%v), want %#016x", label, c.name, got, c.got, c.want)
		}
	}
}

// TestFitPinnedBits pins the exact bits of the model fitted to
// pinnedSamples, so a change to the fit path (design matrix assembly,
// NNLS, QR) that reorders any floating-point operation fails here
// before it moves a reproduced table.
func TestFitPinnedBits(t *testing.T) {
	samples, _ := pinnedSamples(t)
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"SPpJ", float64(m.SPpJ), 0x403b9305e4eb188b},
		{"DPpJ", float64(m.DPpJ), 0x4063506e2430f3c2},
		{"IntpJ", float64(m.IntpJ), 0x404f5d4a76e13c6e},
		{"SMpJ", float64(m.SMpJ), 0x40432a360a9a4c49},
		{"L2pJ", float64(m.L2pJ), 0x405875067d8c680b},
		{"DRAMpJ", float64(m.DRAMpJ), 0x4078a61774e54b04},
		{"C1Proc", float64(m.C1Proc), 0x4006872f22bd7ced},
		{"C1Mem", float64(m.C1Mem), 0x400eec24adbb005d},
		{"PMisc", float64(m.PMisc), 0x0000000000000000},
	} {
		if got := math.Float64bits(c.got); got != c.want {
			t.Errorf("%s = %#016x (%v), want %#016x", c.name, got, c.got, c.want)
		}
	}
}

// TestCrossValidateMatchesSerialReference checks that grouped CV gives
// the same bits at any GOMAXPROCS: per-sample errors in fold order and
// their summary must equal a plain serial loop (copy the training
// samples, Fit, Predict) and the pinned summary. It changes GOMAXPROCS,
// so it must not run in parallel with other tests.
func TestCrossValidateMatchesSerialReference(t *testing.T) {
	samples, groups := pinnedSamples(t)
	var ref []float64
	for g := 0; g < 16; g++ {
		var train, test []Sample
		for i, s := range samples {
			if groups[i] == g {
				test = append(test, s)
			} else {
				train = append(train, s)
			}
		}
		m, err := Fit(train)
		if err != nil {
			t.Fatalf("reference fold %d: %v", g, err)
		}
		for _, s := range test {
			ref = append(ref, stats.RelErr(float64(m.Predict(s.Profile, s.Setting, s.Time)), float64(s.Energy)))
		}
	}
	checkPinnedSummary(t, "serial reference", stats.Summarize(ref))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := CrossValidateGrouped(samples, groups)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(res.Errors) != len(ref) {
			t.Fatalf("GOMAXPROCS=%d: %d errors, want %d", procs, len(res.Errors), len(ref))
		}
		for i, e := range res.Errors {
			if math.Float64bits(float64(e)) != math.Float64bits(ref[i]) {
				t.Fatalf("GOMAXPROCS=%d: error %d = %v, serial reference %v", procs, i, e, ref[i])
			}
		}
		if res.Summary != stats.Summarize(ref) {
			t.Errorf("GOMAXPROCS=%d: summary %+v, serial reference %+v", procs, res.Summary, stats.Summarize(ref))
		}
		checkPinnedSummary(t, "CrossValidateGrouped", res.Summary)
	}
}

// TestCrossValidateReportsCallerSampleIndex plants a zero-energy sample
// at index 100 of the 288-sample set. It sits in the training set of
// every fold but fold 5, at position 82 of fold 0's training list; the
// error must name the caller's index and the lowest failing fold at any
// GOMAXPROCS, whatever order the fold goroutines finish in.
func TestCrossValidateReportsCallerSampleIndex(t *testing.T) {
	samples := calibrationSamples(t, tegra.NewIdealDevice(), noiselessCfg(), 1, smallSuite())
	per := len(samples) / 16
	groups := make([]int, len(samples))
	for i := range groups {
		groups[i] = i / per
	}
	samples[100].Energy = 0
	const want = "core: fold 0: sample 100: core: sample has non-positive energy 0"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		_, err := CrossValidateGrouped(samples, groups)
		if err == nil || err.Error() != want {
			t.Errorf("GOMAXPROCS=%d: err = %v, want %q", procs, err, want)
		}
	}
}

// BenchmarkCrossValidateGrouped is the calibration ladder's 16-fold CV
// rung: leave-one-setting-out over the full 116-benchmark suite at the
// 16 calibration settings (1856 samples, seed 7). Samples are measured
// before the timer starts, so only the fold fits and predictions count.
func BenchmarkCrossValidateGrouped(b *testing.B) {
	samples := calibrationSamples(b, tegra.NewDevice(), powermon.DefaultConfig(), 7, microbench.Suite())
	per := len(samples) / 16
	groups := make([]int, len(samples))
	for i := range groups {
		groups[i] = i / per
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossValidateGrouped(samples, groups); err != nil {
			b.Fatal(err)
		}
	}
}
