package core

import (
	"context"
	"fmt"

	"dvfsroofline/internal/par"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/units"
)

// CVResult reports a cross-validation run: the per-test-sample relative
// errors (as fractions, not percent) and their summary.
type CVResult struct {
	Errors  []units.Ratio
	Summary stats.Summary
}

// Percent returns the error summary scaled to percent, the unit the
// paper quotes (e.g. "mean error of 6.56% with a standard deviation of
// 3.80%").
func (r CVResult) Percent() stats.Summary {
	return stats.Summary{
		N:      r.Summary.N,
		Mean:   r.Summary.Mean * 100,
		Stddev: r.Summary.Stddev * 100,
		Min:    r.Summary.Min * 100,
		Max:    r.Summary.Max * 100,
	}
}

// validateFolds evaluates the model fit on each fold's training indices
// against its test indices. Folds run through par.For on up to
// GOMAXPROCS goroutines, each fold writing into its own slots, so the
// result is bit-identical at any GOMAXPROCS; when several folds fail,
// the lowest-indexed one is reported.
func validateFolds(samples []Sample, folds []stats.Fold) (CVResult, error) {
	// Fold fi's per-sample errors occupy errs[off[fi]:off[fi+1]], which
	// keeps them in fold order however the goroutines interleave.
	off := make([]int, len(folds)+1)
	for fi, fold := range folds {
		off[fi+1] = off[fi] + len(fold.Test)
	}
	errs := make([]float64, off[len(folds)])
	err := par.For(context.TODO(), 0, len(folds), func(fi int) error {
		if err := validateFold(samples, folds[fi], errs[off[fi]:off[fi+1]]); err != nil {
			return fmt.Errorf("core: fold %d: %w", fi, err)
		}
		return nil
	})
	if err != nil {
		return CVResult{}, err
	}
	typed := make([]units.Ratio, len(errs))
	for i, e := range errs {
		typed[i] = units.Ratio(e)
	}
	return CVResult{Errors: typed, Summary: stats.Summarize(errs)}, nil
}

// validateFold fits the model on fold.Train and writes the relative
// error of each fold.Test prediction into errs.
func validateFold(samples []Sample, fold stats.Fold, errs []float64) error {
	m, err := fitIndexed(samples, fold.Train)
	if err != nil {
		return err
	}
	for i, idx := range fold.Test {
		s := samples[idx]
		pred := m.Predict(s.Profile, s.Setting, s.Time)
		errs[i] = stats.RelErr(float64(pred), float64(s.Energy))
	}
	return nil
}

// HoldoutValidate performs the paper's 2-fold "holdout method" (§II-D):
// samples with trainMask[i] true train the model, the rest validate it.
func HoldoutValidate(samples []Sample, trainMask []bool) (CVResult, error) {
	if len(trainMask) != len(samples) {
		return CVResult{}, fmt.Errorf("core: mask length %d does not match %d samples", len(trainMask), len(samples))
	}
	return validateFolds(samples, []stats.Fold{stats.Holdout(trainMask)})
}

// CrossValidateGrouped performs leave-one-group-out cross-validation:
// groups[i] assigns sample i to a group (e.g. its DVFS setting), and each
// fold holds one whole group out. With one group per calibration setting
// this is the paper's 16-fold validation — it measures how the model
// extrapolates to voltage/frequency settings it has never seen, which is
// the generalization §II-D cares about.
func CrossValidateGrouped(samples []Sample, groups []int) (CVResult, error) {
	if len(groups) != len(samples) {
		return CVResult{}, fmt.Errorf("core: %d group labels for %d samples", len(groups), len(samples))
	}
	idx := map[int][]int{}
	var order []int
	for i, g := range groups {
		if _, ok := idx[g]; !ok {
			order = append(order, g)
		}
		idx[g] = append(idx[g], i)
	}
	if len(order) < 2 {
		return CVResult{}, fmt.Errorf("core: grouped CV needs at least 2 groups, got %d", len(order))
	}
	folds := make([]stats.Fold, 0, len(order))
	for _, g := range order {
		var f stats.Fold
		f.Test = idx[g]
		for _, h := range order {
			if h != g {
				f.Train = append(f.Train, idx[h]...)
			}
		}
		folds = append(folds, f)
	}
	return validateFolds(samples, folds)
}
