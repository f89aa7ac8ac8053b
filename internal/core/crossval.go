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
// against its test indices. Every sample is validated once up front;
// when one fails, each fold validates its own rows instead, so the error
// names the same sample and fold as it would without the shortcut.
func validateFolds(samples []Sample, folds []stats.Fold) (CVResult, error) {
	return runFolds(samples, folds, allValid(samples), nil)
}

// runFolds fits and scores the folds. Folds run through par.For on up to
// GOMAXPROCS goroutines, each fold writing into its own slots, so the
// result is bit-identical at any GOMAXPROCS; when several folds fail,
// the lowest-indexed one is reported. A non-nil extra runs as one more
// task of the same batch, ahead of the folds, and reports its outcome
// itself, so it always runs to completion and never stops the folds.
func runFolds(samples []Sample, folds []stats.Fold, validated bool, extra func()) (CVResult, error) {
	// Fold fi's per-sample errors occupy errs[off[fi]:off[fi+1]], which
	// keeps them in fold order however the goroutines interleave.
	off := make([]int, len(folds)+1)
	for fi, fold := range folds {
		off[fi+1] = off[fi] + len(fold.Test)
	}
	errs := make([]float64, off[len(folds)])
	first := 0
	if extra != nil {
		first = 1
	}
	err := par.For(context.TODO(), 0, first+len(folds), func(i int) error {
		if i < first {
			extra()
			return nil
		}
		fi := i - first
		m, err := fitIndexed(samples, folds[fi].Train, validated)
		if err != nil {
			return fmt.Errorf("core: fold %d: %w", fi, err)
		}
		score(samples, m, folds[fi].Test, errs[off[fi]:off[fi+1]])
		return nil
	})
	if err != nil {
		return CVResult{}, err
	}
	return cvResult(errs), nil
}

// score writes into errs the relative error of m's prediction of each
// sample that test indexes.
func score(samples []Sample, m *Model, test []int, errs []float64) {
	for i, idx := range test {
		s := samples[idx]
		pred := m.Predict(s.Profile, s.Setting, s.Time)
		errs[i] = stats.RelErr(float64(pred), float64(s.Energy))
	}
}

func cvResult(errs []float64) CVResult {
	typed := make([]units.Ratio, len(errs))
	for i, e := range errs {
		typed[i] = units.Ratio(e)
	}
	return CVResult{Errors: typed, Summary: stats.Summarize(errs)}
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
	folds, err := groupFolds(samples, groups)
	if err != nil {
		return CVResult{}, err
	}
	return validateFolds(samples, folds)
}

// groupFolds builds the leave-one-group-out folds, groups in order of
// first appearance.
func groupFolds(samples []Sample, groups []int) ([]stats.Fold, error) {
	if len(groups) != len(samples) {
		return nil, fmt.Errorf("core: %d group labels for %d samples", len(groups), len(samples))
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
		return nil, fmt.Errorf("core: grouped CV needs at least 2 groups, got %d", len(order))
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
	return folds, nil
}

// Validation is a model fitted on a calibration's training samples with
// the paper's two validations (§II-D).
type Validation struct {
	Model    *Model   // fitted on the samples the train mask selects
	Holdout  CVResult // Model's errors on the other samples
	kfold    CVResult
	kfoldErr error
}

// KFold returns the grouped cross-validation, with the error
// CrossValidateGrouped would return.
func (v *Validation) KFold() (CVResult, error) { return v.kfold, v.kfoldErr }

// FitValidate returns, with their bits, what Fit of the samples
// trainMask selects (in order), HoldoutValidate(samples, trainMask) and
// CrossValidateGrouped(samples, groups) would return. The error is
// Fit's, or HoldoutValidate's for a mask of the wrong length; KFold
// carries the cross-validation's. The holdout's training fit is the same
// NNLS problem as that Fit, so it is solved once, in the same batch of
// goroutines as the grouped folds, and the holdout scores it.
func FitValidate(samples []Sample, trainMask []bool, groups []int) (*Validation, error) {
	if len(trainMask) != len(samples) {
		return nil, fmt.Errorf("core: mask length %d does not match %d samples", len(trainMask), len(samples))
	}
	holdout := stats.Holdout(trainMask)
	folds, foldsErr := groupFolds(samples, groups)
	validated := allValid(samples)
	var (
		m      *Model
		fitErr error
	)
	fit := func() {
		if validated {
			m, fitErr = fitIndexed(samples, holdout.Train, true)
			return
		}
		// Fit names a failing sample by its position among the
		// training samples, not by its index in samples.
		train := make([]Sample, len(holdout.Train))
		for r, i := range holdout.Train {
			train[r] = samples[i]
		}
		m, fitErr = Fit(train)
	}
	v := &Validation{kfoldErr: foldsErr}
	if foldsErr != nil {
		fit()
	} else {
		v.kfold, v.kfoldErr = runFolds(samples, folds, validated, fit)
	}
	if fitErr != nil {
		return nil, fitErr
	}
	errs := make([]float64, len(holdout.Test))
	score(samples, m, holdout.Test, errs)
	v.Model, v.Holdout = m, cvResult(errs)
	return v, nil
}
