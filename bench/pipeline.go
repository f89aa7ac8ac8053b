package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"dvfsroofline/internal/cli"
	"dvfsroofline/internal/core"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fmm"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
)

// bootCalibration is the pipelines' set-up: a device and the checked-in
// calibration energyd boots from (which a fresh Calibrate replaces).
func bootCalibration(cfg Config) (*tegra.Device, *experiments.Calibration, float64, error) {
	type boot struct {
		dev *tegra.Device
		cal *experiments.Calibration
	}
	b, setupS, err := timedSetup(cfg.Sizes.SetupRuns, func() (boot, error) {
		cal, err := cli.LoadCalibration(cfg.calibrationPath())
		return boot{dev: tegra.NewDevice(), cal: cal}, err
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("bench: loading calibration: %w", err)
	}
	return b.dev, b.cal, setupS, nil
}

// calibrateOutput is what one calibrate pass produces: Tables I and II
// and the §II-D validation summaries.
type calibrateOutput struct {
	Model   *core.Model
	Holdout stats.Summary
	KFold   stats.Summary
	TableII []core.TableIIRow
}

// calibratePass is energyd's boot-time calibration followed by Table II.
func calibratePass(ctx context.Context, dev *tegra.Device, ecfg experiments.Config) (*experiments.Calibration, []core.TableIIRow, error) {
	cal, err := experiments.Calibrate(ctx, dev, ecfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: calibrate: %w", err)
	}
	rows, err := experiments.Autotune(ctx, dev, cal.Model, ecfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: table II: %w", err)
	}
	return cal, rows, nil
}

// timedCalibrate times one calibrate pass and encodes its output.
func timedCalibrate(ctx context.Context, dev *tegra.Device, ecfg experiments.Config) (time.Duration, []byte, error) {
	start := now()
	cal, rows, err := calibratePass(ctx, dev, ecfg)
	d := now().Sub(start)
	if err != nil {
		return d, nil, err
	}
	return d, encodeCalibrate(cal, rows), nil
}

// sameOutput turns a timed pass into a closed-loop operation whose
// output must equal *ref; the first output fills an empty ref.
func sameOutput(ref *[]byte, pass func() (time.Duration, []byte, error)) func(int) (time.Duration, bool) {
	return func(int) (time.Duration, bool) {
		d, out, err := pass()
		if err != nil {
			return d, false
		}
		if *ref == nil {
			*ref = out
		}
		return d, bytes.Equal(out, *ref)
	}
}

func encodeCalibrate(cal *experiments.Calibration, rows []core.TableIIRow) []byte {
	b, err := json.Marshal(calibrateOutput{Model: cal.Model, Holdout: cal.Holdout.Summary, KFold: cal.KFold.Summary, TableII: rows})
	if err != nil {
		panic(fmt.Sprintf("bench: encoding calibrate output: %v", err)) // plain numbers and strings always encode
	}
	return b
}

// runCalibrate measures back-to-back calibrate passes; every pass must
// give the warm-up pass's bytes.
func runCalibrate(ctx context.Context, cfg Config) (*Report, error) {
	dev, _, setupS, err := bootCalibration(cfg)
	if err != nil {
		return nil, err
	}
	ecfg := experiments.Config{Seed: cfg.Seed}
	pass := func() (time.Duration, []byte, error) { return timedCalibrate(ctx, dev, ecfg) }
	_, ref, err := pass()
	if err != nil {
		return nil, err
	}
	ph := closedLoop(ctx, 1, cfg.duration(), sameOutput(&ref, pass))
	rep := newReport(cfg)
	rep.addOps(1, 0, "warm-up pass")
	rep.addOps(ph.ops, ph.failed, "measured passes")
	rep.checkDigest(hexSum(ref))
	rep.endToEnd(setupS, ph, "Calibrate + Table II per pass")
	return rep, nil
}

// fmmInputs are the Table IV inputs at the run's scale.
func fmmInputs(s Sizes) []experiments.FMMInput {
	in, _ := experiments.ScaleInputs(experiments.FMMInputs(), s.FMMScale)
	return in
}

// fmmPass runs the proxy application on every input, then the Figure 5
// validation against the checked-in calibration.
func fmmPass(ctx context.Context, dev *tegra.Device, model *core.Model, inputs []experiments.FMMInput, ecfg experiments.Config) ([]*experiments.FMMRun, *experiments.Figure5Result, error) {
	runs, err := experiments.RunFMMInputs(ctx, inputs, ecfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: fmm: %w", err)
	}
	fig, err := experiments.Figure5(ctx, dev, model, runs, ecfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: figure 5: %w", err)
	}
	return runs, fig, nil
}

// fmmOutput is what one fmm pass produces: each input's counted phase
// profiles and a digest of its potentials, and the Figure 5 cases.
type fmmOutput struct {
	Profiles   []fmm.PhaseProfiles
	Potentials []string
	Cases      []experiments.FMMCase
	Summary    stats.Summary
}

// timedFMM times one fmm pass and encodes its output.
func timedFMM(ctx context.Context, dev *tegra.Device, model *core.Model, inputs []experiments.FMMInput, ecfg experiments.Config) (time.Duration, []byte, error) {
	start := now()
	runs, fig, err := fmmPass(ctx, dev, model, inputs, ecfg)
	d := now().Sub(start)
	if err != nil {
		return d, nil, err
	}
	return d, encodeFMM(runs, fig), nil
}

func encodeFMM(runs []*experiments.FMMRun, fig *experiments.Figure5Result) []byte {
	out := fmmOutput{Cases: fig.Cases, Summary: fig.Summary}
	for _, r := range runs {
		out.Profiles = append(out.Profiles, r.Result.Profiles)
		h := sha256.New()
		for _, p := range r.Result.Potentials {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(p)) // hash writes never fail
		}
		out.Potentials = append(out.Potentials, hex.EncodeToString(h.Sum(nil)))
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding fmm output: %v", err)) // plain numbers and strings always encode
	}
	return b
}

// directTargets is how many targets per input the accuracy check sums
// directly.
const directTargets = 256

// maxRelErrL2 bounds the FMM's error against direct summation.
const maxRelErrL2 = 2e-3

// fmmAccuracy returns the worst relative L2 error over the inputs of a
// pass against direct summation at directTargets evenly strided points.
// The points and densities are regenerated the way RunFMMInput makes
// them (seed+100 and seed+101).
func fmmAccuracy(runs []*experiments.FMMRun, seed int64) float64 {
	worst := 0.0
	for _, r := range runs {
		in := r.Input
		pts := fmm.GeneratePoints(in.Dist, in.N, seed+100)
		dens := fmm.GenerateDensities(in.N, seed+101)
		k := min(directTargets, in.N)
		targets := make([]fmm.Point, k)
		approx := make([]float64, k)
		for j := range targets {
			idx := j * in.N / k
			targets[j] = pts[idx]
			approx[j] = r.Result.Potentials[idx]
		}
		exact := fmm.DirectSumAt(targets, pts, dens, fmm.Laplace{}, 0)
		worst = max(worst, fmm.RelErrL2(approx, exact))
	}
	return worst
}

// runFMM measures back-to-back fmm passes; every pass must give the
// warm-up pass's bytes, and the warm-up pass's potentials must match
// direct summation.
func runFMM(ctx context.Context, cfg Config) (*Report, error) {
	dev, cal, setupS, err := bootCalibration(cfg)
	if err != nil {
		return nil, err
	}
	ecfg := experiments.Config{Seed: cfg.Seed}
	inputs := fmmInputs(cfg.Sizes)
	runs, fig, err := fmmPass(ctx, dev, cal.Model, inputs, ecfg)
	if err != nil {
		return nil, err
	}
	ref := encodeFMM(runs, fig)
	rep := newReport(cfg)
	rep.addOps(1, 0, "warm-up pass")
	accFailed := 0
	if e := fmmAccuracy(runs, cfg.Seed); e > maxRelErrL2 {
		accFailed = 1
		rep.linef("fmm relative L2 error %.3g exceeds %.0e", e, maxRelErrL2)
	}
	rep.addOps(1, accFailed, "accuracy check against direct summation")
	ph := closedLoop(ctx, 1, cfg.duration(), sameOutput(&ref, func() (time.Duration, []byte, error) {
		return timedFMM(ctx, dev, cal.Model, inputs, ecfg)
	}))
	rep.addOps(ph.ops, ph.failed, "measured passes")
	rep.checkDigest(hexSum(ref))
	rep.endToEnd(setupS, ph, fmt.Sprintf("%d inputs at 1/%d scale + Figure 5 per pass", len(inputs), cfg.Sizes.FMMScale))
	return rep, nil
}

func hexSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
