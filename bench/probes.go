package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
	"dvfsroofline/internal/workload"
)

// This file holds the probes: each re-runs one layer's public function
// on the inputs a traced request or pass just used, as a span under the
// layer that calls it. Where a layer's work is split between public
// calls, the probe makes the same calls in the same order (a candidate
// measurement is Execute, NewMeter and Measure over the same window).

// decodeStrict decodes a request body the way energyd does: unknown
// fields are errors.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// encodeIndent encodes a response body the way energyd does.
func encodeIndent(v any) int {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the value was just decoded from JSON, so it encodes
	return buf.Len()
}

// profileOf converts a wire profile to the model's operation counts.
func profileOf(p serve.ProfileJSON) counters.Profile {
	return counters.Profile{
		SP: float64(p.SP), DPFMA: float64(p.DPFMA), DPAdd: float64(p.DPAdd), DPMul: float64(p.DPMul),
		Int: float64(p.Int), SharedWords: float64(p.SharedWords), L1Words: float64(p.L1Words),
		L2Words: float64(p.L2Words), DRAMWords: float64(p.DRAMWords),
	}
}

// workloadOf is the device workload of an autotune or place body, with
// energyd's default occupancy.
func workloadOf(req serve.AutotuneRequest) (tegra.Workload, string) {
	grid := req.Grid
	if grid == "" {
		grid = "calibration"
	}
	return tegra.Workload{Profile: profileOf(req.Profile), Occupancy: occupancy(req.Occupancy)}, grid
}

func occupancy(o units.Ratio) units.Ratio {
	if o == 0 {
		return 0.25
	}
	return o
}

// settingOf resolves a predict request's setting selector.
func settingOf(req serve.PredictRequest) (dvfs.Setting, error) {
	if req.Setting != nil {
		c, err := dvfs.CorePoint(req.Setting.CoreMHz)
		if err != nil {
			return dvfs.Setting{}, err
		}
		m, err := dvfs.MemPoint(req.Setting.MemMHz)
		if err != nil {
			return dvfs.Setting{}, err
		}
		return dvfs.Setting{Core: c, Mem: m}, nil
	}
	if strings.EqualFold(req.SettingID, "max") {
		return dvfs.MaxSetting(), nil
	}
	for i, s := range dvfs.ValidationSettings() {
		if strings.EqualFold(dvfs.ValidationID(i), req.SettingID) {
			return s, nil
		}
	}
	return dvfs.Setting{}, fmt.Errorf("bench: unknown setting_id %q", req.SettingID)
}

// probePredict breaks a predict answer into decode, the simulated
// execution time, the Eq. 9 evaluation and encode.
func (l *ladder) probePredict(root int64, a Attrs, node *fleet.Node, r request, answer []byte) error {
	var req serve.FleetPredictRequest
	var dst any = &req.PredictRequest
	var resp any = &serve.PredictResponse{}
	if r.op == workload.OpFleetPredict {
		dst, resp = &req, &serve.FleetPredictResponse{}
	}
	var err error
	l.tr.Time(root, "serve.decode", a, func() { err = decodeStrict(r.body, dst) })
	if err != nil {
		return fmt.Errorf("bench: decoding predict body: %w", err)
	}
	setting, err := settingOf(req.PredictRequest)
	if err != nil {
		return err
	}
	prof := profileOf(req.Profile)
	t := req.TimeS
	if t == 0 {
		wl := tegra.Workload{Profile: prof, Occupancy: occupancy(req.Occupancy)}
		l.tr.Time(root, "tegra.execute", a, func() { t = node.Dev.Execute(wl, setting).Time })
	}
	model := node.Cal().Model
	l.tr.Time(root, "core.predict_parts", a, func() {
		l.sink += float64(model.PredictParts(prof, setting, t).Total() + units.Joule(model.ConstPower(setting)))
	})
	if err := json.Unmarshal(answer, resp); err != nil {
		return fmt.Errorf("bench: decoding predict answer: %w", err)
	}
	l.tr.Time(root, "serve.encode", a, func() { l.sink += float64(encodeIndent(resp)) })
	return nil
}

// probeAutotune probes an autotune answer: decode, the sweep with each
// of its candidates, scoring and encode. The sweep sits on the ladder
// only when the answer missed the cache (onPath); a cache hit's sweep
// is probed off the ladder (when probeSweep), as the cost the cache
// saved.
func (l *ladder) probeAutotune(ctx context.Context, root int64, a Attrs, node *fleet.Node, r request, answer []byte, onPath, probeSweep bool) error {
	var req serve.AutotuneRequest
	var err error
	l.tr.Time(root, "serve.decode", a, func() { err = decodeStrict(r.body, &req) })
	if err != nil {
		return fmt.Errorf("bench: decoding autotune body: %w", err)
	}
	wl, grid := workloadOf(req)
	var cands []core.Candidate
	if onPath || probeSweep {
		parent := int64(0)
		if onPath {
			parent = root
		}
		id := l.tr.Time(parent, "experiments.sweep", a, func() {
			cands, err = experiments.SweepWorkload(ctx, node.Dev, node.Cfg, wl, node.Grids[grid])
		})
		if err != nil {
			return fmt.Errorf("bench: sweep probe: %w", err)
		}
		if err := l.probeCandidates(ctx, id, a, node.Dev, node.Cfg, wl, node.Grids[grid]); err != nil {
			return err
		}
	} else if cands, err = experiments.SweepWorkload(ctx, node.Dev, node.Cfg, wl, node.Grids[grid]); err != nil {
		return fmt.Errorf("bench: sweep for scoring: %w", err)
	}
	model := node.Cal().Model
	l.tr.Time(root, "core.score", a, func() { l.score(model, cands) })
	var resp serve.AutotuneResponse
	if err := json.Unmarshal(answer, &resp); err != nil {
		return fmt.Errorf("bench: decoding autotune answer: %w", err)
	}
	l.tr.Time(root, "serve.encode", a, func() { l.sink += float64(encodeIndent(&resp)) })
	return nil
}

// probePlace probes a placement answer: decode, the fleet sweep with
// every device's candidates, scoring per device and encode.
func (l *ladder) probePlace(ctx context.Context, root int64, a Attrs, reg *fleet.Registry, r request, answer []byte, onPath, probeSweep bool) error {
	var req serve.AutotuneRequest
	var err error
	l.tr.Time(root, "serve.decode", a, func() { err = decodeStrict(r.body, &req) })
	if err != nil {
		return fmt.Errorf("bench: decoding place body: %w", err)
	}
	wl, grid := workloadOf(req)
	nodes := reg.Active()
	targets := make([]experiments.SweepTarget, len(nodes))
	for i, n := range nodes {
		targets[i] = experiments.SweepTarget{Dev: n.Dev, Cfg: n.Cfg, Grid: n.Grids[grid]}
	}
	var res []experiments.TargetSweep
	sweep := func() { res, err = experiments.SweepTargets(ctx, nodes[0].Cfg, wl, targets) }
	if onPath || probeSweep {
		parent := int64(0)
		if onPath {
			parent = root
		}
		id := l.tr.Time(parent, "experiments.sweep_targets", a, sweep)
		for _, t := range targets {
			if err == nil {
				err = l.probeCandidates(ctx, id, a, t.Dev, t.Cfg, wl, t.Grid)
			}
		}
	} else {
		sweep()
	}
	if err != nil {
		return fmt.Errorf("bench: fleet sweep probe: %w", err)
	}
	l.tr.Time(root, "core.score", a, func() { l.scorePlace(nodes, res) })
	var resp serve.PlaceResponse
	if err := json.Unmarshal(answer, &resp); err != nil {
		return fmt.Errorf("bench: decoding place answer: %w", err)
	}
	l.tr.Time(root, "serve.encode", a, func() { l.sink += float64(encodeIndent(resp)) })
	return nil
}

// scorePlace scores every device's share of a fleet sweep.
func (l *ladder) scorePlace(nodes []*fleet.Node, res []experiments.TargetSweep) {
	for i, n := range nodes {
		if res[i].Err == nil {
			l.score(n.Cal().Model, res[i].Candidates)
		}
	}
}

// score is what energyd does with a finished sweep: the three §II-E
// picks and the model's prediction for each pick.
func (l *ladder) score(m *core.Model, cands []core.Candidate) {
	for _, i := range [...]int{m.PickModelMinEnergy(cands), core.PickTimeOracle(cands), core.PickMeasuredMin(cands)} {
		c := cands[i]
		l.sink += float64(m.Predict(c.Profile, c.Setting, c.Time))
	}
}

// probeCandidates measures every grid point of a sweep alone (a
// one-point sweep on one worker), each with its measurement broken
// down below it.
func (l *ladder) probeCandidates(ctx context.Context, parent int64, a Attrs, dev *tegra.Device, cfg experiments.Config, wl tegra.Workload, grid []dvfs.Setting) error {
	one := cfg
	one.Workers = 1
	for _, s := range grid {
		var err error
		id := l.tr.Time(parent, "experiments.candidate", a, func() {
			_, err = experiments.SweepWorkload(ctx, dev, one, wl, []dvfs.Setting{s})
		})
		if err != nil {
			return fmt.Errorf("bench: candidate probe: %w", err)
		}
		if err := l.probeMeasurement(id, a, dev, cfg, wl, s, true); err != nil {
			return err
		}
	}
	return nil
}

// probeMeasurement is one measured execution: simulate the run, seed a
// meter and integrate its trace. Sweep candidates repeat a short kernel
// until it fills 16 samples, wrapping the trace with math.Mod; the
// tegra.trace child times the trace evaluations alone at the meter's
// sample points, separating the trace closure from sampling noise and
// integration.
func (l *ladder) probeMeasurement(parent int64, a Attrs, dev *tegra.Device, cfg experiments.Config, wl tegra.Workload, s dvfs.Setting, repeat bool) error {
	var exec tegra.Execution
	l.tr.Time(parent, "tegra.execute", a, func() { exec = dev.Execute(wl, s) })
	seed := stats.MixSeed(cfg.Seed, int64(math.Float64bits(float64(s.Core.FreqMHz))), int64(math.Float64bits(float64(s.Mem.FreqMHz))))
	var meter *powermon.Meter
	var err error
	l.tr.Time(parent, "powermon.new_meter", a, func() { meter, err = cfg.NewMeter(seed) })
	if err != nil {
		return fmt.Errorf("bench: meter probe: %w", err)
	}
	return l.probeMeasure(parent, a, meter, exec.PowerAt, exec.Time, repeat)
}

// probeMeasure times one Measure call and, under it, the trace alone.
func (l *ladder) probeMeasure(parent int64, a Attrs, meter *powermon.Meter, power func(units.Second) units.Watt, run units.Second, repeat bool) error {
	trace, dur := power, run
	if min := meter.MinDuration(16); repeat && run < min {
		reps := math.Ceil(float64(min / run))
		period := float64(run)
		trace = func(t units.Second) units.Watt { return power(units.Second(math.Mod(float64(t), period))) }
		dur = units.Second(reps * float64(run))
	}
	start := now()
	m, err := meter.Measure(trace, dur)
	end := now()
	if err != nil {
		return fmt.Errorf("bench: measure probe: %w", err)
	}
	a.Samples = len(m.Samples)
	id := l.tr.Add(parent, "powermon.measure", a, start, end)
	dt := 1 / float64(meter.SampleRate())
	l.tr.Time(id, "tegra.trace", a, func() {
		for i := range m.Samples {
			l.sink += float64(trace(units.Second(min(float64(i)*dt, float64(dur)))))
		}
	})
	return nil
}

// probeCalibration breaks a calibration down: every microbenchmark
// sample (with its measurement), then the fit-and-validate tail.
func (l *ladder) probeCalibration(ctx context.Context, parent int64, dev *tegra.Device, ecfg experiments.Config, samples int) (*experiments.Calibration, error) {
	var cal *experiments.Calibration
	var err error
	id := l.tr.Time(parent, "experiments.calibrate", Attrs{}, func() { cal, err = experiments.Calibrate(ctx, dev, ecfg) })
	if err != nil {
		return nil, fmt.Errorf("bench: calibrate probe: %w", err)
	}
	runner := &microbench.Runner{Device: dev, Seed: ecfg.Seed + 1}
	n := 0
outer:
	for _, cs := range dvfs.CalibrationSettings() {
		for _, b := range microbench.Suite() {
			if n == samples || ctx.Err() != nil {
				break outer
			}
			n++
			sid := l.tr.Time(id, "microbench.sample", Attrs{}, func() { _, err = runner.Run(b, cs.Setting) })
			if err != nil {
				return nil, fmt.Errorf("bench: sample probe: %w", err)
			}
			wl := b.Workload(runner.SizeFor(b, cs.Setting, 0))
			if err := l.probeMeasurement(sid, Attrs{}, dev, ecfg, wl, cs.Setting, false); err != nil {
				return nil, err
			}
		}
	}
	return cal, l.probeFitValidate(id, cal)
}

// probeFitValidate times CalibrateFromSamples and, under it, the NNLS
// fit on the training samples, the holdout validation and the 16-fold
// grouped cross-validation.
func (l *ladder) probeFitValidate(parent int64, cal *experiments.Calibration) error {
	var err error
	id := l.tr.Time(parent, "experiments.fit_validate", Attrs{}, func() { _, err = experiments.CalibrateFromSamples(cal.Samples) })
	if err != nil {
		return fmt.Errorf("bench: fit probe: %w", err)
	}
	var train []core.Sample
	groups := make([]int, len(cal.Samples))
	perSetting := len(cal.Samples) / len(dvfs.CalibrationSettings())
	for i, s := range cal.Samples {
		if cal.TrainMask[i] {
			train = append(train, s)
		}
		groups[i] = i / perSetting
	}
	l.tr.Time(id, "core.fit", Attrs{}, func() { _, err = core.Fit(train) })
	if err == nil {
		l.tr.Time(id, "core.holdout", Attrs{}, func() { _, err = core.HoldoutValidate(cal.Samples, cal.TrainMask) })
	}
	if err == nil {
		l.tr.Time(id, "core.cv16", Attrs{}, func() { _, err = core.CrossValidateGrouped(cal.Samples, groups) })
	}
	if err != nil {
		return fmt.Errorf("bench: fit probe: %w", err)
	}
	return nil
}
