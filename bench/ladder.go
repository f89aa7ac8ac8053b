package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"dvfsroofline/internal/cli"
	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fmm"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
	"dvfsroofline/internal/workload"
)

// A traced run reports every per-layer metric on every workload. It
// traces four groups — the warm serving mix, the cold serving mix, the
// calibrate pipeline and the fmm pipeline — on fresh state, one client
// at a time. The workload's own group runs at full size: an untraced
// phase first (for the tracing overhead and the GC share), then traced
// requests or passes, each followed by its layer probes. The other
// groups run small stand-in inputs from the same seed, so that a layer
// the workload never reaches still reads a measured value (its "should
// not move" column in README.md). A metric takes the workload's own
// spans when there are any and the stand-ins' otherwise.

// standInScale divides the Table IV point counts for the stand-in FMM;
// much smaller inputs run too briefly for the meter to sample.
const standInScale = 64

// fmmMaxLevel is fmm.Options' default tree depth bound.
const fmmMaxLevel = 20

// ladder is one traced run's state.
type ladder struct {
	cfg  Config
	tr   *Tracer
	sink float64 // keeps probed results live

	untraced *Hist // own operations timed without tracing
	gcFrac   float64

	fleet                            *fleetStats
	allocsPredict, allocsAutotuneHit float64

	fmmDone          bool // fmm figures below came from the own group
	fmmCounted       counters.Profile
	speedup, relErrs float64

	attempted, failed int
	failures          []string // the first few failures, for the report
}

// fail counts a failed traced or untraced operation.
func (l *ladder) fail(what string, err error) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// fleetStats are /v1/stats and /v1/fleet/devices figures of one mix.
type fleetStats struct {
	hits, misses      uint64
	entries           int
	answeredPerSweepJ float64
}

func runTraced(ctx context.Context, cfg Config) (*Report, error) {
	l := &ladder{cfg: cfg, tr: NewTracer()}
	cal, err := cli.LoadCalibration(cfg.calibrationPath())
	if err != nil {
		return nil, fmt.Errorf("bench: loading calibration: %w", err)
	}
	groups := map[string]func() error{
		ServeWarm: func() error { return l.serveMix(ctx, false) },
		ServeCold: func() error { return l.serveMix(ctx, true) },
		Calibrate: func() error { return l.calibrateGroup(ctx, cal) },
		FMM:       func() error { return l.fmmGroup(ctx, cal.Model) },
	}
	for _, w := range ownFirst(cfg.Workload) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := groups[w](); err != nil {
			return nil, fmt.Errorf("bench: tracing %s: %w", w, err)
		}
	}
	return l.finish()
}

// finish assembles the traced run's report and writes its spans.
func (l *ladder) finish() (*Report, error) {
	rep := newReport(l.cfg)
	rep.addOps(l.attempted, l.failed, "traced and untraced operations")
	for _, f := range l.failures {
		rep.linef("failed: %s", f)
	}
	l.report(rep)
	if l.cfg.SpansPath != "" {
		if err := l.tr.WriteJSONL(l.cfg.SpansPath); err != nil {
			return nil, err
		}
		rep.linef("wrote %d spans to %s", len(l.tr.Spans()), l.cfg.SpansPath)
	}
	return rep, nil
}

// ownFirst orders the workloads with own first, so that its group runs
// on a process that has run nothing else.
func ownFirst(own string) []string {
	order := []string{own}
	for _, w := range Workloads {
		if w != own {
			order = append(order, w)
		}
	}
	return order
}

// untracedPhase times the own group's operations without tracing for
// half the run's seconds, and the GC's share of CPU meanwhile.
func (l *ladder) untracedPhase(ctx context.Context, op func(i int) (time.Duration, bool)) {
	g0, c0 := cpuSplit()
	ph := closedLoop(ctx, 1, l.cfg.duration()/2, op)
	g1, c1 := cpuSplit()
	if c1 > c0 {
		l.gcFrac = (g1 - g0) / (c1 - c0)
	}
	l.untraced = &ph.lat
	l.attempted += ph.ops
	l.failed += ph.failed
}

// serveMix traces one serving mix on a fresh server: the serve-warm
// pool after its warm-up, or the serve-cold pool, whose sweeps all miss
// the cache.
func (l *ladder) serveMix(ctx context.Context, cold bool) error {
	own := l.cfg.Workload == ServeWarm && !cold || l.cfg.Workload == ServeCold && cold
	mix := "warm"
	srv, err := bootServer(l.cfg.Seed)
	if err != nil {
		return err
	}
	pool, err := requestPool(l.cfg.Seed, l.cfg.Sizes, cold)
	if err != nil {
		return err
	}
	if cold {
		mix = "cold"
	} else {
		_, sent, failed := srv.warmUp(ctx, pool, false)
		l.attempted += sent
		l.failed += failed
		// The allocation figures need a warm cache and come from the warm
		// mix only; the own mix's, when warm, since it runs first.
		if own || l.allocsPredict == 0 {
			l.allocsPredict = allocsPerRequest(ctx, srv, pool, func(r request) bool {
				return r.op == workload.OpPredict || r.op == workload.OpFleetPredict
			})
			l.allocsAutotuneHit = allocsPerRequest(ctx, srv, pool, func(r request) bool { return r.op == workload.OpAutotune })
		}
	}

	var traced []int
	switch {
	case own && cold:
		// Traced: the first tenth of the pool. Untraced: the rest, whose
		// keys differ, so neither phase hits the other's cache entries.
		n := len(pool) / 10
		rest := pool[n:]
		l.untracedPhase(ctx, func(i int) (time.Duration, bool) {
			_, d, ok := srv.send(ctx, rest[i%len(rest)])
			return d, ok
		})
		traced = indices(n)
	case own:
		l.untracedPhase(ctx, func(i int) (time.Duration, bool) {
			_, d, ok := srv.send(ctx, pool[i%len(pool)])
			return d, ok
		})
		traced = indices(len(pool))
	default:
		traced = firstPerClass(pool, l.cfg.Sizes.StandIn)
	}

	before, err := srv.tgt.Stats(ctx)
	if err != nil {
		return err
	}
	probed := map[string]int{}
	for _, i := range traced {
		if err := l.traceRequest(ctx, srv, pool[i], mix, cold, own, probed); err != nil {
			return err
		}
	}
	after, err := srv.tgt.Stats(ctx)
	if err != nil {
		return err
	}
	if own || !cold && l.fleet == nil {
		if l.fleet, err = fleetFigures(ctx, srv, before, after); err != nil {
			return err
		}
	}
	return nil
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// firstPerClass picks the first k requests of each (op, grid) class.
func firstPerClass(pool []request, k int) []int {
	seen := map[string]int{}
	var out []int
	for i, r := range pool {
		c := string(r.op) + "/" + gridOf(r)
		if seen[c] < k {
			seen[c]++
			out = append(out, i)
		}
	}
	return out
}

// gridOf peeks at a sweep request's grid; empty for predicts.
func gridOf(r request) string {
	if r.op != workload.OpAutotune && r.op != workload.OpFleetPlace {
		return ""
	}
	var req serve.AutotuneRequest
	if json.Unmarshal(r.body, &req) != nil {
		return ""
	}
	_, grid := workloadOf(req)
	return grid
}

// allocsPerRequest sends the matching pool requests one after another
// and returns the heap allocations per request.
func allocsPerRequest(ctx context.Context, srv *server, pool []request, match func(request) bool) float64 {
	n := 0
	m0 := mallocs()
	for _, r := range pool {
		if match(r) {
			srv.send(ctx, r)
			n++
		}
	}
	return float64(mallocs()-m0) / float64(max(n, 1))
}

// fleetFigures derives the fleet metrics from two stats snapshots
// around the traced requests plus the device inventory.
func fleetFigures(ctx context.Context, srv *server, before, after *serve.StatsResponse) (*fleetStats, error) {
	f := &fleetStats{}
	var answered, sweep units.Joule
	for i, d := range after.Devices {
		f.hits += d.CacheHits - before.Devices[i].CacheHits
		f.misses += d.CacheMisses - before.Devices[i].CacheMisses
		answered += d.AnsweredJ
		sweep += d.SweepJ
	}
	if sweep > 0 {
		f.answeredPerSweepJ = float64(answered / sweep)
	}
	status, body, err := srv.tgt.Admin(ctx, http.MethodGet, "/v1/fleet/devices", nil)
	if err != nil {
		return nil, fmt.Errorf("bench: listing devices: %w", err)
	}
	if !okStatus(status) {
		return nil, fmt.Errorf("bench: listing devices: status %d", status)
	}
	var devs serve.DevicesResponse
	if err := json.Unmarshal(body, &devs); err != nil {
		return nil, fmt.Errorf("bench: decoding devices: %w", err)
	}
	for _, d := range devs.Devices {
		f.entries += d.CacheEntries
	}
	return f, nil
}

// traceRequest sends one request as a root span and probes its layers.
// probed counts the off-ladder sweep probes per class: a warm mix
// probes the sweeps its cache saved only for its first StandIn requests
// of each class.
func (l *ladder) traceRequest(ctx context.Context, srv *server, r request, mix string, cold, own bool, probed map[string]int) error {
	l.tr.Begin(own)
	start := now()
	status, device, body, err := srv.tgt.Do(ctx, r.op, "", r.body)
	end := now()
	a := Attrs{Op: string(r.op), Device: device, Grid: gridOf(r), Mix: mix}
	root := l.tr.Add(0, "serve."+rootName(r.op), Attrs{Op: a.Op, Device: a.Device, Grid: a.Grid, Mix: mix, Root: true}, start, end)
	l.attempted++
	if err == nil && !okStatus(status) {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		l.fail(string(r.op)+" request", err)
		return nil
	}
	class := string(r.op) + "/" + a.Grid
	probeSweep := !cold && probed[class] < l.cfg.Sizes.StandIn
	if probeSweep {
		probed[class]++
	}
	if r.op == workload.OpFleetPlace {
		return l.probePlace(ctx, root, a, srv.reg, r, body, cold, probeSweep)
	}
	node, ok := srv.reg.Get(device)
	if !ok {
		return fmt.Errorf("bench: answer names unknown device %q", device)
	}
	if r.op == workload.OpAutotune {
		return l.probeAutotune(ctx, root, a, node, r, body, cold, probeSweep)
	}
	return l.probePredict(root, a, node, r, body)
}

func rootName(op workload.Op) string {
	switch op {
	case workload.OpAutotune:
		return "autotune"
	case workload.OpFleetPlace:
		return "place"
	default:
		return "predict"
	}
}

// calibrateGroup traces calibrate passes (Calibrate, then Table II), or
// as a stand-in probes one calibration with its first microbenchmark
// samples and Table II against the checked-in model.
func (l *ladder) calibrateGroup(ctx context.Context, cal *experiments.Calibration) error {
	dev := tegra.NewDevice()
	ecfg := experiments.Config{Seed: l.cfg.Seed}
	if l.cfg.Workload != Calibrate {
		l.tr.Begin(false)
		if _, err := l.probeCalibration(ctx, 0, dev, ecfg, 16*l.cfg.Sizes.StandIn); err != nil {
			return err
		}
		var err error
		l.tr.Time(0, "experiments.tableii", Attrs{}, func() { _, err = experiments.Autotune(ctx, dev, cal.Model, ecfg) })
		return err
	}
	var ref []byte
	l.untracedPhase(ctx, sameOutput(&ref, func() (time.Duration, []byte, error) { return timedCalibrate(ctx, dev, ecfg) }))
	for p := 0; p < l.cfg.Sizes.TracedPasses && ctx.Err() == nil; p++ {
		l.tr.Begin(true)
		start := now()
		c, rows, err := calibratePass(ctx, dev, ecfg)
		root := l.tr.Add(0, "experiments.calibrate_pass", Attrs{Root: true}, start, now())
		l.attempted++
		if err == nil && !bytes.Equal(encodeCalibrate(c, rows), ref) {
			err = fmt.Errorf("output differs from the untraced passes'")
		}
		if err != nil {
			l.fail("calibrate pass", err)
			continue
		}
		fresh, err := l.probeCalibration(ctx, root, dev, ecfg, -1)
		if err != nil {
			return err
		}
		l.tr.Time(root, "experiments.tableii", Attrs{}, func() { _, err = experiments.Autotune(ctx, dev, fresh.Model, ecfg) })
		if err != nil {
			return fmt.Errorf("bench: table II probe: %w", err)
		}
	}
	return nil
}

// fmmGroup traces fmm passes (RunFMMInputs, then Figure 5), or as a
// stand-in one pass over much smaller inputs.
func (l *ladder) fmmGroup(ctx context.Context, model *core.Model) error {
	own := l.cfg.Workload == FMM
	dev := tegra.NewDevice()
	ecfg := experiments.Config{Seed: l.cfg.Seed}
	inputs, passes := fmmInputs(l.cfg.Sizes), max(l.cfg.Sizes.TracedPasses-1, 1)
	var ref []byte
	if own {
		l.untracedPhase(ctx, sameOutput(&ref, func() (time.Duration, []byte, error) {
			return timedFMM(ctx, dev, model, inputs, ecfg)
		}))
	} else {
		inputs, _ = experiments.ScaleInputs(experiments.FMMInputs(), max(standInScale, l.cfg.Sizes.FMMScale))
		passes = 1
	}
	var last []*experiments.FMMRun
	for p := 0; p < passes && ctx.Err() == nil; p++ {
		l.tr.Begin(own)
		start := now()
		runs, fig, err := fmmPass(ctx, dev, model, inputs, ecfg)
		root := l.tr.Add(0, "experiments.fmm_pass", Attrs{Root: true}, start, now())
		l.attempted++
		if err == nil && own && !bytes.Equal(encodeFMM(runs, fig), ref) {
			err = fmt.Errorf("output differs from the untraced passes'")
		}
		if err != nil {
			l.fail("fmm pass", err)
			continue
		}
		if err := l.probeFMM(ctx, root, dev, model, inputs, runs, ecfg); err != nil {
			return err
		}
		last = runs
	}
	if l.fmmDone || last == nil {
		return nil
	}
	l.fmmDone = own
	l.relErrs = fmmAccuracy(last, l.cfg.Seed)
	sp, err := speedup2w(inputs, l.cfg.Seed)
	l.speedup = sp
	return err
}

// speedup2w times the largest input's evaluation on one worker and on
// two and returns the ratio.
func speedup2w(inputs []experiments.FMMInput, seed int64) (float64, error) {
	big := inputs[0]
	for _, in := range inputs {
		if in.N > big.N {
			big = in
		}
	}
	pts := fmm.GeneratePoints(big.Dist, big.N, seed+100)
	dens := fmm.GenerateDensities(big.N, seed+101)
	var wall [2]time.Duration
	for w := range wall {
		start := now()
		if _, err := fmm.Evaluate(pts, dens, fmm.Options{Q: big.Q, UseFFTM2L: true, Workers: w + 1}); err != nil {
			return 0, fmt.Errorf("bench: fmm speed-up probe: %w", err)
		}
		wall[w] = now().Sub(start)
	}
	return float64(wall[0]) / float64(wall[1]), nil
}

// probeFMM breaks an fmm pass down: each input's evaluation with its
// tree build under it, then Figure 5 with each case's executions and
// measurement under it.
func (l *ladder) probeFMM(ctx context.Context, root int64, dev *tegra.Device, model *core.Model, inputs []experiments.FMMInput, runs []*experiments.FMMRun, ecfg experiments.Config) error {
	var counted counters.Profile
	for _, in := range inputs {
		if err := ctx.Err(); err != nil {
			return err
		}
		pts := fmm.GeneratePoints(in.Dist, in.N, l.cfg.Seed+100)
		dens := fmm.GenerateDensities(in.N, l.cfg.Seed+101)
		var res *fmm.Result
		var err error
		id := l.tr.Time(root, "fmm.evaluate", Attrs{}, func() {
			res, err = fmm.Evaluate(pts, dens, fmm.Options{Q: in.Q, UseFFTM2L: true, Workers: ecfg.Workers})
		})
		if err != nil {
			return fmt.Errorf("bench: fmm probe: %w", err)
		}
		l.tr.Time(id, "fmm.tree", Attrs{}, func() {
			var t *fmm.Tree
			if t, err = fmm.BuildTree(pts, in.Q, fmmMaxLevel); err == nil {
				t.BuildLists()
			}
		})
		if err != nil {
			return fmt.Errorf("bench: tree probe: %w", err)
		}
		counted = counted.Add(res.Profiles.Total())
	}
	if !l.fmmDone {
		l.fmmCounted = counted
	}
	var err error
	id := l.tr.Time(root, "experiments.figure5", Attrs{}, func() { _, err = experiments.Figure5(ctx, dev, model, runs, ecfg) })
	if err != nil {
		return fmt.Errorf("bench: figure 5 probe: %w", err)
	}
	return l.probeCases(id, dev, runs, ecfg)
}

// probeCases probes each Figure 5 case: the executions of the run's
// phases at the case's setting, then seeding a meter and measuring the
// schedule's trace.
func (l *ladder) probeCases(id int64, dev *tegra.Device, runs []*experiments.FMMRun, ecfg experiments.Config) error {
	for _, s := range dvfs.ValidationSettings() {
		for _, run := range runs {
			var sched tegra.Schedule
			for _, ph := range fmm.Phases() {
				p := run.Result.Profiles[ph]
				if p.Instructions() == 0 && p.Accesses() == 0 {
					continue
				}
				wl := tegra.Workload{Profile: p, Occupancy: units.Ratio(ph.Occupancy())}
				l.tr.Time(id, "tegra.execute", Attrs{}, func() { sched.Execs = append(sched.Execs, dev.Execute(wl, s)) })
			}
			seed := stats.MixSeed(ecfg.Seed, int64(math.Float64bits(float64(s.Core.FreqMHz))), int64(math.Float64bits(float64(s.Mem.FreqMHz))), int64(run.Input.N), int64(run.Input.Q))
			var meter *powermon.Meter
			var err error
			l.tr.Time(id, "powermon.new_meter", Attrs{}, func() { meter, err = ecfg.NewMeter(seed) })
			if err != nil {
				return fmt.Errorf("bench: meter probe: %w", err)
			}
			if err := l.probeMeasure(id, Attrs{}, meter, sched.PowerAt, sched.Duration(), false); err != nil {
				return err
			}
		}
	}
	return nil
}

// report turns the spans and figures into the per-layer metrics.
func (l *ladder) report(rep *Report) {
	spans := l.tr.Spans()
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	ns := func(d time.Duration) float64 { return float64(d) }
	dur := func(unit func(time.Duration) float64) func(Span) float64 {
		return func(s Span) float64 { return unit(s.Dur()) }
	}
	perSample := func(s Span) float64 { return ns(s.Dur()) / float64(max(s.Attrs.Samples, 1)) }
	root := func(mix, grid string) func(Span) bool {
		return func(s Span) bool { return s.Attrs.Root && s.Attrs.Mix == mix && (grid == "" || s.Attrs.Grid == grid) }
	}
	grid := func(g string) func(Span) bool { return func(s Span) bool { return s.Attrs.Grid == g } }
	set := func(name, span string, keep func(Span) bool, val func(Span) float64) {
		v := pick(spans, span, keep, val)
		rep.set(name, median(v), fmt.Sprintf("median of %d %s spans", len(v), span))
	}

	set("serve.predict_us", "serve.predict", root("warm", ""), dur(us))
	set("serve.autotune_hit_us", "serve.autotune", root("warm", ""), dur(us))
	set("serve.place_hit_us", "serve.place", root("warm", ""), dur(us))
	set("serve.autotune_cal_us", "serve.autotune", root("cold", "calibration"), dur(us))
	set("serve.autotune_full_us", "serve.autotune", root("cold", "full"), dur(us))
	set("serve.place_us", "serve.place", root("cold", ""), dur(us))
	set("serve.self_predict_us", "serve.predict", root("warm", ""), func(s Span) float64 {
		d := s.Dur()
		for _, c := range kids[s.ID] {
			if c.Name == "tegra.execute" || c.Name == "core.predict_parts" {
				d -= c.Dur()
			}
		}
		return us(d)
	})
	set("serve.self_autotune_us", "serve.autotune", root("cold", ""), func(s Span) float64 { return us(SelfTime(s, kids[s.ID])) })
	set("serve.decode_us", "serve.decode", nil, dur(us))
	set("serve.encode_us", "serve.encode", nil, dur(us))
	rep.set("serve.allocs_predict", l.allocsPredict, "heap allocations per warm predict request")
	rep.set("serve.allocs_autotune_hit", l.allocsAutotuneHit, "heap allocations per cache-hit autotune request")
	set("core.predict_parts_ns", "core.predict_parts", nil, dur(ns))
	set("core.score_us", "core.score", nil, dur(us))

	f := l.fleet
	rate := 0.0
	if f.hits+f.misses > 0 {
		rate = float64(f.hits) / float64(f.hits+f.misses)
	}
	rep.set("fleet.cache_hit_rate", rate, fmt.Sprintf("%d hits, %d misses over the traced requests", f.hits, f.misses))
	rep.set("fleet.sweeps", float64(f.misses), "sweeps run for the traced requests (cache misses)")
	rep.set("fleet.cache_entries", float64(f.entries), "sweep cache entries across devices after the traced requests")
	rep.set("fleet.answered_per_sweep_j", f.answeredPerSweepJ, "answered joules per joule of sweep work over the server's life")

	set("experiments.sweep_cal_us", "experiments.sweep", grid("calibration"), dur(us))
	set("experiments.sweep_full_us", "experiments.sweep", grid("full"), dur(us))
	set("experiments.sweep_targets_us", "experiments.sweep_targets", nil, dur(us))
	set("experiments.candidate_us", "experiments.candidate", nil, dur(us))
	set("powermon.new_meter_us", "powermon.new_meter", nil, dur(us))
	set("powermon.measure_us", "powermon.measure", nil, dur(us))
	set("powermon.samples_per_candidate", "powermon.measure", nil, func(s Span) float64 { return float64(s.Attrs.Samples) })
	set("powermon.ns_per_sample", "powermon.measure", nil, perSample)
	set("tegra.execute_ns", "tegra.execute", nil, dur(ns))
	set("tegra.trace_ns_per_sample", "tegra.trace", nil, perSample)

	set("microbench.sample_us", "microbench.sample", nil, dur(us))
	set("experiments.calibrate_ms", "experiments.calibrate", nil, dur(ms))
	set("experiments.fit_validate_ms", "experiments.fit_validate", nil, dur(ms))
	set("core.fit_ms", "core.fit", nil, dur(ms))
	set("core.cv16_ms", "core.cv16", nil, dur(ms))
	set("core.holdout_ms", "core.holdout", nil, dur(ms))
	set("experiments.tableii_ms", "experiments.tableii", nil, dur(ms))

	evalMS := median(perReq(spans, "fmm.evaluate", ms))
	rep.set("fmm.evaluate_ms", evalMS, "median per-pass sum of fmm.evaluate spans")
	rep.set("fmm.tree_ms", median(perReq(spans, "fmm.tree", ms)), "median per-pass sum of fmm.tree spans")
	rep.set("fmm.instructions", l.fmmCounted.Instructions(), "counted instructions per pass")
	rep.set("fmm.dram_words", l.fmmCounted.DRAMWords, "counted DRAM words per pass")
	gops := 0.0
	if evalMS > 0 {
		gops = l.fmmCounted.Instructions() / (evalMS / 1e3) / 1e9
	}
	rep.set("fmm.gops", gops, "counted instructions per second of fmm.evaluate")
	rep.set("fmm.speedup_2w", l.speedup, "1-worker over 2-worker evaluation time, largest input")
	rep.set("fmm.rel_err_l2", l.relErrs, fmt.Sprintf("worst input against direct summation at %d targets", directTargets))
	set("experiments.figure5_ms", "experiments.figure5", nil, dur(ms))

	rep.set("go.gc_cpu_frac", l.gcFrac, "GC share of CPU in the untraced phase")
	l.reportLadder(rep, spans, kids)
}

// pick collects val over the spans named name that keep accepts,
// preferring the workload's own spans when there are any.
func pick(spans []Span, name string, keep func(Span) bool, val func(Span) float64) []float64 {
	var own, all []float64
	for _, s := range spans {
		if s.Name != name || keep != nil && !keep(s) {
			continue
		}
		v := val(s)
		all = append(all, v)
		if s.Attrs.Own {
			own = append(own, v)
		}
	}
	if len(own) > 0 {
		return own
	}
	return all
}

// perReq sums each request's spans named name, own requests preferred.
func perReq(spans []Span, name string, unit func(time.Duration) float64) []float64 {
	own, all := map[int64]float64{}, map[int64]float64{}
	for _, s := range spans {
		if s.Name == name {
			all[s.Req] += unit(s.Dur())
			if s.Attrs.Own {
				own[s.Req] += unit(s.Dur())
			}
		}
	}
	if len(own) == 0 {
		own = all
	}
	out := make([]float64, 0, len(own))
	for _, v := range own {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// reportLadder prints the own roots' cost breakdown — each layer's
// total self time per root operation and its share of root time — and
// reports the tracing overhead and the share no layer accounts for.
func (l *ladder) reportLadder(rep *Report, spans []Span, kids map[int64][]Span) {
	self := map[string]time.Duration{}
	var total, unaccounted time.Duration
	var traced []float64
	roots := 0
	var walk func(s Span)
	walk = func(s Span) {
		self[s.Name] += SelfTime(s, kids[s.ID])
		for _, c := range kids[s.ID] {
			walk(c)
		}
	}
	for _, s := range spans {
		if s.Attrs.Root && s.Attrs.Own {
			roots++
			total += s.Dur()
			traced = append(traced, float64(s.Dur())/float64(time.Microsecond))
			unaccounted += SelfTime(s, kids[s.ID])
			walk(s)
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	for _, n := range names {
		rep.linef("ladder %-28s self %12.2f us/op  share %7.2f%%", n,
			float64(self[n])/float64(time.Microsecond)/float64(max(roots, 1)), 100*float64(self[n])/float64(max(total, 1)))
	}
	rep.set("ladder.unaccounted_frac", float64(unaccounted)/float64(max(total, 1)),
		fmt.Sprintf("root self time over root time, %d own roots (1 - sum of layer self time / root time)", roots))
	sort.Float64s(traced)
	base, _ := l.untraced.Percentile(50)
	over := 0.0
	if base > 0 {
		over = NearestRank(traced, 50)/base - 1
	}
	rep.set("trace.overhead_frac", over, fmt.Sprintf("traced root p50 over untraced p50 (%.2f us, n=%d) - 1", base, l.untraced.Count()))
}
