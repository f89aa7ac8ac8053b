package fleet

import (
	"context"
	"fmt"
	"math"
	"sync"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/units"
)

// Calibration drift: the paper's Eq. 9 constants are fitted once, but
// the hardware they describe moves — sustained thermal throttling (the
// internal/faults model) changes effective frequency and power, so
// measured sweep energies walk away from what the calibrated model
// predicts. The watchdog folds every fresh sweep's candidates into a
// per-device two-sided CUSUM over relative residuals
//
//	r = (measured - predicted) / measured
//
// with slack k absorbing the calibration's natural noise floor.
// Sustained one-sided bias accumulates past the threshold h and fires;
// symmetric noise cancels. Firing resets the statistic and hands the
// device to a Recalibrator — the same retrying, quarantining,
// faults-aware campaign that produced the boot constants — whose
// result swaps in atomically (Node.SetCalibration) under a new
// calibration generation. Cached sweeps stay valid across the swap:
// they are raw measurements, model-independent, and the serving layer
// re-scores them against the current model on every answer.

// DriftConfig tunes the per-device drift watchdog. The zero value of
// each field selects the documented default; a nil *DriftConfig in the
// serving layer disables drift detection entirely.
type DriftConfig struct {
	// Window caps how many of a sweep's candidates are folded per
	// observation (most-recent kept); zero selects 32. It bounds the
	// work per sweep, not the CUSUM memory, which is unbounded by
	// design — slow drift should accumulate.
	Window int
	// Slack is the CUSUM slack k: per-observation |relative residual|
	// absorbed before anything accumulates. Zero selects 0.05 (5%,
	// comfortably above the synthetic calibration's noise floor).
	Slack units.Ratio
	// Threshold is the CUSUM decision threshold h on the accumulated
	// statistic. Zero selects 1.0 — e.g. twenty observations biased 10%
	// past slack, or a few grossly-throttled ones.
	Threshold units.Ratio
}

// Validate rejects a negative window and a negative, NaN or infinite
// slack or threshold; zero still selects each field's default. A NaN
// slack would hold the CUSUM at NaN and an infinite threshold could
// never be crossed, so either would leave a watchdog that never fires.
func (c DriftConfig) Validate() error {
	if c.Window < 0 {
		return fmt.Errorf("fleet: drift window %d is negative", c.Window)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"slack", float64(c.Slack)}, {"threshold", float64(c.Threshold)}} {
		// Negated so that NaN, which fails every comparison, is rejected.
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("fleet: drift %s %g must be finite and non-negative", f.name, f.v)
		}
	}
	return nil
}

func (c DriftConfig) window() int {
	if c.Window <= 0 {
		return 32
	}
	return c.Window
}

func (c DriftConfig) slack() float64 {
	if c.Slack <= 0 {
		return 0.05
	}
	return float64(c.Slack)
}

func (c DriftConfig) threshold() float64 {
	if c.Threshold <= 0 {
		return 1.0
	}
	return float64(c.Threshold)
}

// driftWatch is one device's CUSUM state.
type driftWatch struct {
	mu  sync.Mutex
	pos float64 // accumulated positive (under-prediction) drift; guarded by mu
	neg float64 // accumulated negative (over-prediction) drift; guarded by mu
}

// observe folds one relative residual and reports whether either side
// crossed the threshold; crossing resets both sides.
func (w *driftWatch) observe(r, k, h float64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pos = max(0, w.pos+r-k)
	w.neg = max(0, w.neg-r-k)
	if w.pos > h || w.neg > h {
		w.pos, w.neg = 0, 0
		return true
	}
	return false
}

// reset clears the CUSUM, for a freshly recalibrated device: residuals
// accumulated against the stale constants say nothing about the new
// ones.
func (w *driftWatch) reset() {
	w.mu.Lock()
	w.pos, w.neg = 0, 0
	w.mu.Unlock()
}

// ObserveSweep folds a fresh sweep's candidates into the node's drift
// statistic and reports whether the watchdog fired. Only genuinely
// fresh measurements belong here — cached or degraded answers re-score
// old bytes and carry no new information about the hardware.
func (n *Node) ObserveSweep(cfg DriftConfig, cands []core.Candidate) bool {
	cal := n.Cal()
	if cal == nil || len(cands) == 0 {
		return false
	}
	if w := cfg.window(); len(cands) > w {
		cands = cands[len(cands)-w:]
	}
	k, h := cfg.slack(), cfg.threshold()
	fired := false
	for _, c := range cands {
		if c.MeasuredEnergy <= 0 {
			continue
		}
		pred := cal.Model.Predict(c.Profile, c.Setting, c.Time)
		r := float64(c.MeasuredEnergy-pred) / float64(c.MeasuredEnergy)
		if n.drift.observe(r, k, h) {
			fired = true
		}
	}
	return fired
}

// BeginRecalibration claims the node's single recalibration slot.
// Callers that get false leave the work to the holder; the drift
// statistic was already reset by the firing observation.
func (n *Node) BeginRecalibration() bool {
	return n.recalBusy.CompareAndSwap(false, true)
}

// FinishRecalibration releases the slot claimed by BeginRecalibration
// and lands the outcome: on success the calibration swaps in atomically
// under a new generation; on failure the old constants keep serving and
// the failure is counted. Either way the drift statistic restarts
// clean.
func (n *Node) FinishRecalibration(cal *experiments.Calibration, err error) {
	if err == nil && cal != nil {
		n.SetCalibration(cal)
		n.recals.Add(1)
	} else {
		n.recalFails.Add(1)
	}
	n.drift.reset()
	n.recalBusy.Store(false)
}

// Recalibrator re-fits one device's constants; the serving layer runs
// it off the hot path when the watchdog fires.
type Recalibrator func(ctx context.Context, n *Node) (*experiments.Calibration, error)

// DefaultRecalibrator runs the full measured campaign against the live
// device — the same retrying, quarantining, faults-aware path as boot
// (experiments.Calibrate with the node's own config), so a drifted
// device is re-fit under whatever fault plan it is actually
// experiencing.
func DefaultRecalibrator(ctx context.Context, n *Node) (*experiments.Calibration, error) {
	cfg := n.Cfg
	cfg.OnProgress = nil
	return experiments.Calibrate(ctx, n.Dev, cfg)
}
