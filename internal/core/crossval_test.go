package core

import (
	"testing"

	"dvfsroofline/internal/powermon"
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
