// Package experiments composes the repository's substrates into the
// paper's experiments. Each exported entry point regenerates one table or
// figure of the evaluation:
//
//   - Calibrate — Table I (per-op energy costs under DVFS) and the §II-D
//     holdout / 16-fold cross-validation error statistics.
//   - Autotune — Table II (model vs time-oracle DVFS selection).
//   - FMMInputs / RunFMMInput — Table IV inputs F1–F8 and their counted
//     per-phase profiles (Figure 4).
//   - RunFMMCase / Figure5 — the 64-case predicted-vs-measured energy
//     validation (Figure 5) with per-component breakdowns (Figures 6, 7).
//
// Every experiment observes the simulated Jetson TK1 only through
// simulated PowerMon measurements, mirroring the paper's methodology.
//
// Experiments that sweep independent units of work — calibration
// samples, autotuning grid sweeps, FMM inputs, Figure 5 cases, Q-sweep
// candidates — run on a deterministic concurrent pipeline (pipeline.go):
// Config.Workers bounds the parallelism, contexts cancel in-flight
// campaigns, Config.OnProgress observes completion, and per-unit seed
// derivation guarantees results never depend on the worker count.
package experiments

import (
	"context"
	"fmt"
	"slices"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/fmm"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// Config carries the knobs shared by all experiments.
type Config struct {
	// Seed drives every random stream (measurement noise, point sets).
	Seed int64
	// Meter configures the PowerMon simulation; zero value selects
	// powermon.DefaultConfig().
	Meter powermon.Config
	// BenchTargetTime sizes microbenchmark runs (seconds); zero = 0.3.
	BenchTargetTime float64
	// Workers bounds the experiment pipeline's parallelism (calibration
	// samples, autotuning sweeps, FMM runs, Figure 5 cases) as well as
	// FMM evaluation parallelism; zero = GOMAXPROCS. Results are
	// identical for every worker count: each unit of work derives its
	// measurement-noise seed from its identity, not from a shared
	// stream.
	Workers int
	// OnProgress, if non-nil, receives progress updates from the
	// pipelined experiments. Invocations are serialized, but workers
	// wait on the callback, so it must return quickly.
	OnProgress func(Progress)
	// Faults is the deterministic fault-injection plan threaded through
	// every measurement; the zero Plan injects nothing.
	Faults faults.Plan
	// Retry bounds the per-sample retry loop around transient
	// measurement failures; the zero value selects faults.Retry
	// defaults.
	Retry faults.Retry
	// MinCoverage is the fraction of the calibration grid that must
	// survive retries for Calibrate to proceed, in (0, 1]. Zero selects
	// 1.0 — the historical fail-fast behavior, where the first permanent
	// failure aborts the campaign. Below 1.0, permanently failed samples
	// are quarantined instead and reported in Calibration.Coverage.
	MinCoverage float64
}

// minCoverage resolves the configured coverage floor (zero = 1.0).
func (c Config) minCoverage() float64 {
	if c.MinCoverage == 0 {
		return 1.0
	}
	return c.MinCoverage
}

// meterConfig resolves the PowerMon configuration (zero value selects
// the default).
func (c Config) meterConfig() powermon.Config {
	if c.Meter == (powermon.Config{}) {
		return powermon.DefaultConfig()
	}
	return c.Meter
}

// validate checks the measurement settings every measured entry point
// (Calibrate, SweepWorkload, each SweepTargets target) runs under: the
// meter config and the fault plan.
func (c Config) validate() error {
	if err := c.meterConfig().Validate(); err != nil {
		return err
	}
	return c.Faults.Validate()
}

// NewMeter returns a fresh meter with the config's noise model, for
// callers outside this package composing their own measurement sessions.
func (c Config) NewMeter(seed int64) (*powermon.Meter, error) {
	return powermon.NewMeter(c.meterConfig(), seed)
}

// Calibration is the outcome of the §II-C/D pipeline.
type Calibration struct {
	// Samples are all 1856 measurements (116 kernels x 16 settings),
	// setting-major in Table I order. Quarantined samples keep their
	// slot (so indices stay grid positions) but hold the zero Sample;
	// Valid marks the measured ones.
	Samples []core.Sample
	// TrainMask marks the samples from "T"-type settings.
	TrainMask []bool
	// Valid marks the samples that survived measurement (all of them in
	// a fault-free campaign).
	Valid []bool
	// Coverage reports how the campaign survived its faults.
	Coverage Coverage
	// Model is fitted on the valid training samples only (minus any
	// outliers the median/MAD screen removed).
	Model *core.Model
	// Holdout is the 2-fold validation on the "V"-type samples.
	Holdout core.CVResult
	// KFold is the 16-fold cross-validation over all samples.
	KFold core.CVResult
}

// Quarantined records one permanently failed calibration sample.
type Quarantined struct {
	Index    int // position in the setting-major sample grid
	Bench    microbench.Benchmark
	Setting  dvfs.Setting
	Attempts int   // measurement attempts made before giving up
	Err      error // the final error
}

// Coverage reports how a calibration campaign survived measurement
// faults: how much of the grid was measured, how hard the retry loop
// worked, and what the fit's outlier screen removed.
type Coverage struct {
	Total            int // grid size (1856 for the full campaign)
	Measured         int // samples that produced a measurement
	Retried          int // extra attempts spent on transient failures
	ScreenedOutliers int // training samples removed by the median/MAD screen
	// Quarantined lists the permanently failed samples, ordered by grid
	// index (so the report is identical for every worker count).
	Quarantined []Quarantined
}

// Fraction returns the measured fraction of the grid (1.0 when empty).
func (c Coverage) Fraction() float64 {
	if c.Total == 0 {
		return 1.0
	}
	return float64(c.Measured) / float64(c.Total)
}

// Complete reports whether every sample of the grid was measured.
func (c Coverage) Complete() bool { return c.Measured == c.Total }

// Calibrate runs the microbenchmark suite over the paper's 16 settings,
// fits the model by NNLS, and cross-validates it. The 1856 sample
// measurements fan out over cfg.Workers workers; per-sample seed
// derivation (microbench.SampleSeed) makes the result identical for
// every worker count.
//
// Under an active cfg.Faults plan, each sample retries transient
// failures per cfg.Retry; when cfg.MinCoverage < 1, samples that fail
// every attempt are quarantined rather than aborting the campaign, and
// the calibration proceeds as long as the surviving fraction of the
// grid stays at or above the floor. The quarantine report, retry
// counts and outlier-screen tally land in Calibration.Coverage — all
// worker-count-invariant, like the samples themselves.
func Calibrate(ctx context.Context, dev *tegra.Device, cfg Config) (*Calibration, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	minCov := cfg.minCoverage()
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(minCov > 0 && minCov <= 1) {
		return nil, fmt.Errorf("experiments: min coverage %g outside (0, 1]", cfg.MinCoverage)
	}
	runner := &microbench.Runner{Device: dev}
	calSettings := dvfs.CalibrationSettings()
	benches := microbench.Suite()
	samples := make([]core.Sample, len(calSettings)*len(benches))
	valid := make([]bool, len(samples))
	// Each sample's attempt count and permanent failure sit in its own
	// slot, so the coverage report is collected in grid order below.
	attempts := make([]int, len(samples))
	failures := make([]error, len(samples))
	err := forEach(ctx, cfg, "calibrate", len(samples), func(i int) error {
		s := calSettings[i/len(benches)].Setting
		b := benches[i%len(benches)]
		exec := dev.Execute(b.Workload(runner.SizeFor(b, s, cfg.BenchTargetTime)), s)
		energy, n, runErr := measure(ctx, cfg, exec, microbench.SampleSeed(cfg.Seed+1, b, s), &b)
		attempts[i] = n
		if runErr != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if minCov >= 1 {
				return runErr // fail-fast mode: first permanent failure aborts
			}
			failures[i] = runErr
			return nil
		}
		samples[i] = core.Sample{
			Profile: exec.Workload.Profile,
			Setting: s,
			Time:    exec.Time,
			Energy:  energy,
		}
		valid[i] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	var (
		retried     int
		quarantined []Quarantined
	)
	for i, n := range attempts {
		retried += n - 1
		if failures[i] != nil {
			quarantined = append(quarantined, Quarantined{
				Index: i, Bench: benches[i%len(benches)], Setting: calSettings[i/len(benches)].Setting,
				Attempts: n, Err: failures[i],
			})
		}
	}
	cov := Coverage{
		Total:       len(samples),
		Measured:    len(samples) - len(quarantined),
		Retried:     retried,
		Quarantined: quarantined,
	}
	if cov.Fraction() < minCov {
		return nil, fmt.Errorf("experiments: calibration coverage %.3f below the required %.2f (%d of %d samples quarantined, e.g. %v at %v: %w)",
			cov.Fraction(), minCov, len(quarantined), len(samples),
			quarantined[0].Bench, quarantined[0].Setting, quarantined[0].Err)
	}
	return fitAndValidate(samples, calSettings, valid, cov)
}

// Outlier-screen tuning. A spike-corrupted measurement reads tens of
// percent high and a throttled one tens of percent low, while honest
// noise plus the device's non-idealities keep |relative residual| under
// ~8%. The cut is the larger of screenK robust standard deviations
// (1.4826·MAD) and an absolute screenFloor, so a near-noiseless
// campaign (MAD ≈ 0, as with cached fixture samples) screens nothing.
const (
	screenK     = 6.0
	screenFloor = 0.12
)

// screenOutliers applies the median/MAD screen to the training set's
// relative fit residuals and returns the surviving samples. When
// nothing is flagged — every fault-free campaign — it returns train
// unchanged, so the screened fit is byte-identical to the historical
// one. It refuses to screen below the model's coefficient count.
func screenOutliers(m *core.Model, train []core.Sample) (kept []core.Sample, screened int) {
	res := make([]float64, len(train))
	for i, s := range train {
		res[i] = float64((m.Predict(s.Profile, s.Setting, s.Time) - s.Energy) / s.Energy)
	}
	mask := stats.OutlierMask(res, screenK, screenFloor)
	for _, bad := range mask {
		if bad {
			screened++
		}
	}
	if screened == 0 || len(train)-screened < 9 {
		return train, 0
	}
	kept = make([]core.Sample, 0, len(train)-screened)
	for i, s := range train {
		if !mask[i] {
			kept = append(kept, s)
		}
	}
	return kept, screened
}

// fitAndValidate is the deterministic tail of the calibration pipeline:
// given the setting-major sample slice, it rebuilds the train mask,
// fits the model by NNLS (with a median/MAD outlier screen protecting
// the fit from spike-corrupted measurements) and runs the §II-D
// validations on the valid samples. Calibrate and CalibrateFromSamples
// share it, which is what guarantees that a cached sample set yields
// the same model as a fresh campaign. A nil valid mask means every
// sample was measured.
func fitAndValidate(samples []core.Sample, calSettings []dvfs.CalibrationSetting, valid []bool, cov Coverage) (*Calibration, error) {
	if valid == nil {
		valid = make([]bool, len(samples))
		for i := range valid {
			valid[i] = true
		}
	}
	out := &Calibration{
		Samples:   samples,
		TrainMask: make([]bool, len(samples)),
		Valid:     valid,
		Coverage:  cov,
	}
	perSetting := len(samples) / len(calSettings)
	groups := make([]int, len(samples))
	for i := range samples {
		out.TrainMask[i] = calSettings[i/perSetting].Type == "T"
		groups[i] = i / perSetting
	}
	// The fit and the validations run over the valid samples only;
	// quarantined slots hold no measurement. With none quarantined they
	// run over samples itself, so no copy of it stays live through them.
	vSamples, vMask, vGroups := samples, out.TrainMask, groups
	if slices.Contains(valid, false) {
		vSamples, vMask, vGroups = nil, nil, nil
		for i, s := range samples {
			if valid[i] {
				vSamples = append(vSamples, s)
				vMask = append(vMask, out.TrainMask[i])
				vGroups = append(vGroups, groups[i])
			}
		}
	}
	// One batch fits the training samples and the 16 folds, which leave
	// one whole setting out each, assessing generalization to unseen
	// voltage/frequency points (§II-D). The holdout scores that first
	// fit, made before the outlier screen.
	v, err := core.FitValidate(vSamples, vMask, vGroups)
	if err != nil {
		return nil, fmt.Errorf("experiments: fit: %w", err)
	}
	out.Model = v.Model
	var train []core.Sample
	for i, s := range vSamples {
		if vMask[i] {
			train = append(train, s)
		}
	}
	if kept, screened := screenOutliers(out.Model, train); screened > 0 {
		if out.Model, err = core.Fit(kept); err != nil {
			return nil, fmt.Errorf("experiments: refit after outlier screen: %w", err)
		}
		out.Coverage.ScreenedOutliers = screened
	}
	out.Holdout = v.Holdout
	if out.KFold, err = v.KFold(); err != nil {
		return nil, fmt.Errorf("experiments: 16-fold: %w", err)
	}
	return out, nil
}

// CalibrateFromSamples rebuilds a full Calibration — train mask, NNLS
// fit, holdout and 16-fold validation — from previously measured
// calibration samples, e.g. a samples.csv written by export.WriteSamples.
// The slice must be the setting-major campaign Calibrate produces: its
// length a multiple of the 16 calibration settings, with each block's
// setting matching dvfs.CalibrationSettings order. This is the cache
// path the cmd/* binaries use to skip recalibration.
func CalibrateFromSamples(samples []core.Sample) (*Calibration, error) {
	calSettings := dvfs.CalibrationSettings()
	if len(samples) == 0 || len(samples)%len(calSettings) != 0 {
		return nil, fmt.Errorf("experiments: %d samples do not divide into %d calibration settings",
			len(samples), len(calSettings))
	}
	perSetting := len(samples) / len(calSettings)
	for i, s := range samples {
		if want := calSettings[i/perSetting].Setting; s.Setting != want {
			return nil, fmt.Errorf("experiments: sample %d measured at %v, want %v: not a setting-major calibration export",
				i, s.Setting, want)
		}
	}
	return fitAndValidate(samples, calSettings, nil, Coverage{Total: len(samples), Measured: len(samples)})
}

// TableIRow is one derived row of Table I.
type TableIRow struct {
	Type    string
	Setting dvfs.Setting
	Eps     core.Eps
}

// TableI evaluates the fitted model at the 16 calibration settings.
func (c *Calibration) TableI() []TableIRow {
	cs := dvfs.CalibrationSettings()
	rows := make([]TableIRow, len(cs))
	for i, s := range cs {
		rows[i] = TableIRow{Type: s.Type, Setting: s.Setting, Eps: c.Model.EpsAt(s.Setting)}
	}
	return rows
}

// Autotune reproduces Table II: for every microbenchmark family and every
// intensity, sweep the full DVFS grid, and score the model's pick against
// the race-to-halt time oracle. The 103 per-intensity grid sweeps fan
// out over cfg.Workers workers; sample values depend only on each
// (benchmark, setting) identity, so the rows are worker-count-invariant.
func Autotune(ctx context.Context, dev *tegra.Device, model *core.Model, cfg Config) ([]core.TableIIRow, error) {
	runner := &microbench.Runner{Device: dev}
	// Candidates are the paper's 16 measured calibration settings: the
	// autotuner picks among configurations for which measurements exist,
	// as in §II-E.
	var grid []dvfs.Setting
	for _, cs := range dvfs.CalibrationSettings() {
		grid = append(grid, cs.Setting)
	}
	// Table II covers the five families shown in the paper (not DRAM).
	var kinds []microbench.Kind
	for _, kind := range microbench.Kinds() {
		if kind != microbench.DRAM {
			kinds = append(kinds, kind)
		}
	}
	// stop consults the context for the cheap assembly and scoring
	// loops below. ctxloop's one-level summary recognizes callees that
	// check a captured ctx internally, so the loops carry no inline
	// ctx.Err() guards.
	stop := func() error { return ctx.Err() }
	// One unit of work = one (family, intensity) sweep over the grid.
	type unit struct{ kind, intensity int }
	var units []unit
	sweeps := make([][][]core.Candidate, len(kinds))
	for ki, kind := range kinds {
		if err := stop(); err != nil {
			return nil, err
		}
		n := len(kind.Intensities())
		sweeps[ki] = make([][]core.Candidate, n)
		for ii := 0; ii < n; ii++ {
			units = append(units, unit{ki, ii})
		}
	}
	err := forEach(ctx, cfg, "autotune", len(units), func(i int) error {
		u := units[i]
		kind := kinds[u.kind]
		b := microbench.Benchmark{Kind: kind, Intensity: kind.Intensities()[u.intensity]}
		// Fix the workload once (sized at the fastest setting) so that
		// every candidate runs identical work — energies are only
		// comparable at equal work.
		elements := runner.SizeFor(b, dvfs.MaxSetting(), cfg.BenchTargetTime)
		cands := make([]core.Candidate, 0, len(grid))
		for _, s := range grid {
			// Transient faults retry like calibration samples do; an
			// autotuning sweep has no quarantine — a hole in the grid
			// would silently bias the pick, so persistent failure aborts.
			exec := dev.Execute(b.Workload(elements), s)
			energy, _, err := measure(ctx, cfg, exec, microbench.SampleSeed(cfg.Seed+3, b, s), &b)
			if err != nil {
				return err
			}
			cands = append(cands, core.Candidate{
				Setting:        s,
				Profile:        exec.Workload.Profile,
				Time:           exec.Time,
				MeasuredEnergy: energy,
			})
		}
		sweeps[u.kind][u.intensity] = cands
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]core.TableIIRow, len(kinds))
	for ki, kind := range kinds {
		if err := stop(); err != nil {
			return nil, err
		}
		rows[ki] = model.CompareStrategies(kind.String(), sweeps[ki])
	}
	return rows, nil
}

// FMMInput is one Table IV input configuration. Dist selects the point
// distribution; the zero value is the paper's uniform cloud, and the
// Plummer/sphere options extend the study to adaptive trees.
type FMMInput struct {
	ID   string
	N    int // total number of points
	Q    int // maximum points per box
	Dist fmm.Distribution
}

// FMMInputs returns the paper's Table IV inputs F1–F8.
func FMMInputs() []FMMInput {
	return []FMMInput{
		{ID: "F1", N: 262144, Q: 128},
		{ID: "F2", N: 131072, Q: 64},
		{ID: "F3", N: 131072, Q: 256},
		{ID: "F4", N: 131072, Q: 512},
		{ID: "F5", N: 65536, Q: 1024},
		{ID: "F6", N: 65536, Q: 512},
		{ID: "F7", N: 65536, Q: 128},
		{ID: "F8", N: 65536, Q: 64},
	}
}

// ScaleInputs divides every input's point count by factor, for quick
// demo runs (the cmd/* -small flag). An input whose scaled N would drop
// to Q or below would build a degenerate single-leaf octree — every
// interaction handled by the direct P2P kernel, profiling nothing — so
// such inputs are clamped to N = 2Q instead; their IDs are returned so
// callers can warn.
func ScaleInputs(inputs []FMMInput, factor int) (scaled []FMMInput, clamped []string) {
	if factor < 1 {
		factor = 1
	}
	scaled = append([]FMMInput(nil), inputs...)
	for i := range scaled {
		n := scaled[i].N / factor
		if min := 2 * scaled[i].Q; n < min {
			n = min
			clamped = append(clamped, scaled[i].ID)
		}
		scaled[i].N = n
	}
	return scaled, clamped
}

// FMMRun bundles an executed FMM evaluation with its input tag.
type FMMRun struct {
	Input  FMMInput
	Result *fmm.Result
}

// RunFMMInput executes the FMM proxy application for one input. As in
// the paper's GPU implementation the V list uses the FFT-accelerated
// translation. The result's counted profiles are setting-independent, so
// one run serves all eight validation settings.
func RunFMMInput(in FMMInput, cfg Config) (*FMMRun, error) {
	pts := fmm.GeneratePoints(in.Dist, in.N, cfg.Seed+100)
	dens := fmm.GenerateDensities(in.N, cfg.Seed+101)
	res, err := fmm.Evaluate(pts, dens, fmm.Options{
		Q:         in.Q,
		UseFFTM2L: true,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: FMM %s: %w", in.ID, err)
	}
	return &FMMRun{Input: in, Result: res}, nil
}

// RunFMMInputs executes the FMM proxy for every input, fanning the runs
// out over cfg.Workers workers. Each run is deterministic in (input,
// cfg.Seed) alone, so the result is identical for any worker count.
func RunFMMInputs(ctx context.Context, inputs []FMMInput, cfg Config) ([]*FMMRun, error) {
	runs := make([]*FMMRun, len(inputs))
	err := forEach(ctx, cfg, "fmm", len(inputs), func(i int) error {
		run, err := RunFMMInput(inputs[i], cfg)
		if err != nil {
			return err
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// Schedule maps the run's phases onto the device at a setting.
func (r *FMMRun) Schedule(dev *tegra.Device, s dvfs.Setting) tegra.Schedule {
	var sched tegra.Schedule
	for _, ph := range fmm.Phases() {
		p := r.Result.Profiles[ph]
		if p.Instructions() == 0 && p.Accesses() == 0 {
			continue
		}
		sched.Execs = append(sched.Execs, dev.Execute(tegra.Workload{
			Profile:   p,
			Occupancy: units.Ratio(ph.Occupancy()),
		}, s))
	}
	return sched
}

// TotalProfile returns the run's summed operation profile (the nvprof
// view the model consumes).
func (r *FMMRun) TotalProfile() counters.Profile { return r.Result.Profiles.Total() }

// FMMCase is one point of the Figure 5 validation: an (input, setting)
// pair with measured and predicted energy.
type FMMCase struct {
	Input     FMMInput
	SettingID string
	Setting   dvfs.Setting

	Time            units.Second // measured
	MeasuredEnergy  units.Joule  // PowerMon-integrated
	PredictedEnergy units.Joule  // Eq. 9 with fitted constants
	RelErr          float64      // signed fraction, (predicted - measured)/measured

	// PredictedParts decomposes the prediction (Figures 6 and 7).
	PredictedParts core.Parts
	// TrueBreakdown is the device's exact decomposition (test oracle).
	TrueBreakdown tegra.Breakdown
}

// RunFMMCase measures one (input, setting) pair and predicts its energy.
func RunFMMCase(dev *tegra.Device, meter *powermon.Meter, model *core.Model, run *FMMRun, settingID string, s dvfs.Setting) (FMMCase, error) {
	sched := run.Schedule(dev, s)
	dur := sched.Duration()
	energy, err := meter.Energy(sched.PowerAt, dur)
	if err != nil {
		return FMMCase{}, fmt.Errorf("experiments: case %s/%s: %w", run.Input.ID, settingID, err)
	}
	prof := run.TotalProfile()
	parts := model.PredictParts(prof, s, dur)
	var truth tegra.Breakdown
	for _, e := range sched.Execs {
		b := dev.TrueBreakdown(e)
		truth.Compute += b.Compute
		truth.Data += b.Data
		truth.Constant += b.Constant
	}
	return FMMCase{
		Input:           run.Input,
		SettingID:       settingID,
		Setting:         s,
		Time:            dur,
		MeasuredEnergy:  energy,
		PredictedEnergy: parts.Total(),
		RelErr:          stats.RelErr(float64(parts.Total()), float64(energy)),
		PredictedParts:  parts,
		TrueBreakdown:   truth,
	}, nil
}

// Figure5 runs the full 64-case validation: every Table IV input against
// every Table IV setting.
type Figure5Result struct {
	Cases   []FMMCase
	Summary stats.Summary // relative errors (fractions)
}

// Figure5 measures and predicts all (settings x runs) cases, fanned out
// over cfg.Workers workers. Every case owns a meter seeded from its
// (setting, input) grid position, so the 64 cases come out identical
// for any worker count, in setting-major order.
func Figure5(ctx context.Context, dev *tegra.Device, model *core.Model, runs []*FMMRun, cfg Config) (*Figure5Result, error) {
	settings := dvfs.ValidationSettings()
	out := &Figure5Result{Cases: make([]FMMCase, len(settings)*len(runs))}
	err := forEach(ctx, cfg, "figure5", len(out.Cases), func(i int) error {
		si, ri := i/len(runs), i%len(runs)
		meter, err := cfg.NewMeter(stats.MixSeed(cfg.Seed+5, int64(si), int64(ri)))
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		c, err := RunFMMCase(dev, meter, model, runs[ri], dvfs.ValidationID(si), settings[si])
		if err != nil {
			return err
		}
		out.Cases[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	errsList := make([]float64, len(out.Cases))
	for i, c := range out.Cases {
		errsList[i] = c.RelErr
	}
	out.Summary = stats.Summarize(errsList)
	return out, nil
}

// ConstantFraction returns the constant-power share of the case's
// predicted energy — the quantity behind the paper's Figure 7 claim that
// constant power is 75–95% of FMM energy.
func (c FMMCase) ConstantFraction() float64 {
	t := c.PredictedParts.Total()
	if t == 0 {
		return 0
	}
	return float64(c.PredictedParts.Constant / t)
}

// MicrobenchConstantFraction predicts the constant-power energy share of
// a microbenchmark that saturates several resources at once (SP, integer
// and shared-memory pipes dual-issuing, plus a DRAM stream) over its
// run time — the ~30% comparison point of §IV-C, which the paper
// contrasts against the FMM's 75–95%.
func MicrobenchConstantFraction(dev *tegra.Device, model *core.Model, s dvfs.Setting) float64 {
	// Per-cycle saturation mix at occupancy 0.97: 192 SP, 130 integer,
	// 48 shared words, and enough DRAM words to stream without becoming
	// the bottleneck.
	const elems = 2e8
	w := tegra.Workload{
		Profile: counters.Profile{
			SP:          192 * elems,
			Int:         130 * elems,
			SharedWords: 48 * elems,
			DRAMWords:   2 * elems,
		},
		Occupancy: 0.97,
	}
	parts := model.PredictParts(w.Profile, s, dev.Execute(w, s).Time)
	return float64(parts.Constant / parts.Total())
}
