package experiments

import (
	"context"
	"fmt"
	"math"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// measure takes exec's fault-aware measurement (microbench.Measure)
// under cfg.Retry and returns its energy and the number of attempts it
// took: the one retry loop over every measured sample. b is the
// microbenchmark a calibration or Table II sample runs, and Measure
// names it in the error. A sweep candidate passes nil: its short runs
// repeat, and its error names the setting it was swept at.
func measure(ctx context.Context, cfg Config, exec tegra.Execution, key int64, b *microbench.Benchmark) (units.Joule, int, error) {
	var energy units.Joule
	attempts, err := faults.Do(ctx, cfg.Retry, func(attempt int) error {
		var err error
		energy, err = microbench.Measure(exec, cfg.Meter, cfg.Faults, key, attempt, b)
		if err != nil && b == nil {
			err = fmt.Errorf("experiments: sweep at %v: %w", exec.Setting, err)
		}
		return err
	})
	return energy, attempts, err
}

// measureCandidate executes one fixed workload at one setting on one
// device and measures it, producing the sweep candidate for that grid
// point. The measurement-noise seed derives from cfg.Seed and the
// setting's identity — never from scheduling order — so any sweep built
// from these units is byte-identical at any worker count.
func measureCandidate(ctx context.Context, dev *tegra.Device, cfg Config, w tegra.Workload, s dvfs.Setting) (core.Candidate, error) {
	exec := dev.Execute(w, s)
	key := stats.MixSeed(cfg.Seed+9,
		int64(math.Float64bits(float64(s.Core.FreqMHz))), int64(math.Float64bits(float64(s.Core.VoltageMV))),
		int64(math.Float64bits(float64(s.Mem.FreqMHz))), int64(math.Float64bits(float64(s.Mem.VoltageMV))))
	energy, _, err := measure(ctx, cfg, exec, key, nil)
	if err != nil {
		return core.Candidate{}, err
	}
	return core.Candidate{
		Setting:        s,
		Profile:        w.Profile,
		Time:           exec.Time,
		MeasuredEnergy: energy,
	}, nil
}

// SweepWorkload measures one fixed workload at every setting of grid:
// the single-device, context-aware entry point behind the energyd
// /v1/autotune endpoint. Each grid point executes the same work on the
// device and integrates a simulated PowerMon trace, fanning out over
// cfg.Workers workers; ctx cancellation (a request deadline, a client
// disconnect) stops the sweep between units. Every candidate derives
// its measurement-noise seed from the setting's identity, so the sweep
// is byte-identical for any worker count. A candidate that fails every
// retry attempt aborts the sweep — a hole in the grid would silently
// bias the pick.
func SweepWorkload(ctx context.Context, dev *tegra.Device, cfg Config, w tegra.Workload, grid []dvfs.Setting) ([]core.Candidate, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("experiments: empty setting grid")
	}
	if err := checkSweep(cfg, w); err != nil {
		return nil, err
	}
	cands := make([]core.Candidate, len(grid))
	err := forEach(ctx, cfg, "sweep", len(grid), func(i int) error {
		c, err := measureCandidate(ctx, dev, cfg, w, grid[i])
		if err != nil {
			return err
		}
		cands[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cands, nil
}

// SweepTarget is one device's share of a fleet sweep: the device, its
// own config (seed lineage, fault plan) and its own candidate grid —
// heterogeneous devices may run different slices of the DVFS ladder.
type SweepTarget struct {
	Dev  *tegra.Device
	Cfg  Config
	Grid []dvfs.Setting
}

// TargetSweep is one target's outcome: its candidates, or the first
// error (in grid order) that its share of the sweep produced.
type TargetSweep struct {
	Candidates []core.Candidate
	Err        error
}

// SweepTargets measures one workload on every target, flattening all
// (target, setting) pairs onto a single worker pool — the fleet
// placement fan-out. Each unit derives its measurement-noise seed from
// its target's cfg.Seed and its setting's identity, so per-target
// results are byte-identical to running SweepWorkload on that target
// alone, at any pool worker count and in any scheduling order.
//
// Unlike SweepWorkload, one target's permanent failure does not abort
// the others: its TargetSweep carries the error (deterministically the
// first in grid order) and its candidates are nil, so the fleet layer
// can report the device unavailable while the rest still answer. Only
// ctx cancellation — a request deadline or client disconnect — stops
// the whole fan-out, returning the ctx error.
//
// pool supplies the shared concurrency knobs (Workers, OnProgress);
// per-unit measurement behavior comes from each target's own Cfg.
func SweepTargets(ctx context.Context, pool Config, w tegra.Workload, targets []SweepTarget) ([]TargetSweep, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: sweep workload: %w", err)
	}
	type unit struct{ target, point int }
	var work []unit
	out := make([]TargetSweep, len(targets))
	errs := make([][]error, len(targets))
	//energylint:allow ctxloop(bounded in-memory setup; the measurement fan-out below runs under forEach, which honors ctx)
	for ti, t := range targets {
		if len(t.Grid) == 0 {
			out[ti].Err = fmt.Errorf("experiments: target %d: empty setting grid", ti)
			continue
		}
		// An invalid meter config or fault plan fails its own target,
		// before any unit runs, as an empty grid does.
		if err := t.Cfg.validate(); err != nil {
			out[ti].Err = fmt.Errorf("experiments: target %d: %w", ti, err)
			continue
		}
		out[ti].Candidates = make([]core.Candidate, len(t.Grid))
		errs[ti] = make([]error, len(t.Grid))
		for gi := range t.Grid {
			work = append(work, unit{target: ti, point: gi})
		}
	}
	err := forEach(ctx, pool, "fleetsweep", len(work), func(i int) error {
		u := work[i]
		t := targets[u.target]
		c, err := measureCandidate(ctx, t.Dev, t.Cfg, w, t.Grid[u.point])
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation aborts the fan-out; per-target errors are
				// reserved for genuine measurement failures.
				return err
			}
			errs[u.target][u.point] = err
			return nil
		}
		out[u.target].Candidates[u.point] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti := range out {
		if out[ti].Err != nil {
			continue
		}
		for _, e := range errs[ti] {
			if e != nil {
				out[ti] = TargetSweep{Err: e}
				break
			}
		}
	}
	return out, nil
}

// checkSweep validates a single-device sweep's workload and
// measurement settings once, at entry, so a bad value fails the sweep
// instead of surfacing as non-finite energies.
func checkSweep(cfg Config, w tegra.Workload) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("experiments: sweep workload: %w", err)
	}
	if err := cfg.validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}
