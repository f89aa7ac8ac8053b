// Package faults is a seeded, fully deterministic fault-injection layer
// for the simulated measurement rig. Real calibration campaigns on a
// PowerMon 2 + Jetson TK1 bench suffer transient artifacts the paper's
// pipeline quietly absorbed by hand: the meter drops samples or
// disconnects mid-run, DVFS setting transitions fail and need a settle
// period, and thermal throttling corrupts power traces. This package
// reproduces those artifacts on the simulated stack so the experiment
// pipeline's retry, quarantine and outlier-screening machinery can be
// exercised — and regression-tested — without a flaky physical rig.
//
// A Plan describes per-fault probabilities. Plan.ForSample derives one
// Injector per unit of work from the (plan seed, sample identity,
// attempt) triple, so faults land on the same samples no matter how the
// campaign is ordered or parallelized: serial, reordered and
// many-worker runs inject byte-identical faults. Retried attempts remix
// the attempt number into the stream, so a retry re-measures rather
// than replaying the same corruption.
//
// Errors produced by injected faults are transient (IsTransient): the
// pipeline retries them with bounded exponential backoff (Do) and
// quarantines the sample only when every attempt fails.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// Plan describes which faults a campaign injects and how often. The
// zero value injects nothing (Active reports false), so fault injection
// is strictly opt-in. Probabilities are per unit of work (one sample
// measurement), except MeterDropout, which is per meter sample.
type Plan struct {
	// Seed decorrelates the fault stream from the measurement-noise
	// stream; two plans with different seeds fault different samples.
	Seed int64

	// MeterDropout is the per-sample probability that the meter drops a
	// reading; a dropped reading repeats the previous sample, as a
	// sample-and-hold ADC does.
	MeterDropout float64
	// MeterSpike is the per-measurement probability that a transient
	// supply spike corrupts a contiguous window of the trace by
	// SpikeFactor. Spiked measurements complete without error — they can
	// only be caught downstream, by the fit's outlier screen.
	MeterSpike float64
	// SpikeFactor scales the samples inside a spike window; zero = 6.
	SpikeFactor float64
	// MeterDisconnect is the per-measurement probability that the meter
	// drops off the bus before the run starts (transient; a retry
	// reconnects).
	MeterDisconnect float64

	// DVFSFailure is the per-measurement probability that programming
	// the DVFS setting fails. The resulting error is transient and
	// carries a settle latency (RetryAfter) the retry loop honors.
	DVFSFailure float64
	// DVFSSettleLatency is the settle period a failed transition
	// requests before the next attempt; zero = 2 ms.
	DVFSSettleLatency time.Duration

	// Throttle is the per-measurement probability that a thermal
	// throttle window depresses the run's dynamic power. Like spikes,
	// throttled measurements complete without error.
	Throttle float64
	// ThrottleFactor scales dynamic power inside the window; zero = 0.3.
	ThrottleFactor float64
	// ThrottleFraction is the fraction of the run the window covers;
	// zero = 0.6.
	ThrottleFraction float64
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.MeterDropout > 0 || p.MeterSpike > 0 || p.MeterDisconnect > 0 ||
		p.DVFSFailure > 0 || p.Throttle > 0
}

// Validate reports a physically meaningless plan.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"dropout", p.MeterDropout}, {"spike", p.MeterSpike},
		{"disconnect", p.MeterDisconnect}, {"dvfs", p.DVFSFailure},
		{"throttle", p.Throttle},
	} {
		// Negated so that NaN, which fails every comparison, is rejected.
		if !(pr.v >= 0 && pr.v <= 1) {
			return fmt.Errorf("faults: %s probability %g outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.SpikeFactor < 0 || math.IsNaN(p.SpikeFactor) || math.IsInf(p.SpikeFactor, 0) {
		return fmt.Errorf("faults: spike factor %g not a finite non-negative number", p.SpikeFactor)
	}
	if !(p.ThrottleFactor >= 0 && p.ThrottleFactor <= 1) {
		return fmt.Errorf("faults: throttle factor %g outside [0, 1]", p.ThrottleFactor)
	}
	if !(p.ThrottleFraction >= 0 && p.ThrottleFraction <= 1) {
		return fmt.Errorf("faults: throttle fraction %g outside [0, 1]", p.ThrottleFraction)
	}
	if p.DVFSSettleLatency < 0 {
		return fmt.Errorf("faults: negative DVFS settle latency %v", p.DVFSSettleLatency)
	}
	return nil
}

func (p Plan) spikeFactor() float64 {
	if p.SpikeFactor == 0 {
		return 6
	}
	return p.SpikeFactor
}

func (p Plan) throttleFactor() float64 {
	if p.ThrottleFactor == 0 {
		return 0.3
	}
	return p.ThrottleFactor
}

func (p Plan) throttleFraction() float64 {
	if p.ThrottleFraction == 0 {
		return 0.6
	}
	return p.ThrottleFraction
}

func (p Plan) settleLatency() time.Duration {
	if p.DVFSSettleLatency == 0 {
		return 2 * time.Millisecond
	}
	return p.DVFSSettleLatency
}

// ParsePlan parses the "key=value,key=value" plan syntax of the cmd/*
// -faults flag. Keys: seed, dropout, spike, spike-factor, disconnect,
// dvfs, dvfs-latency (a Go duration), throttle, throttle-factor,
// throttle-fraction. An empty spec yields the inactive zero Plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "dropout":
			p.MeterDropout, err = strconv.ParseFloat(val, 64)
		case "spike":
			p.MeterSpike, err = strconv.ParseFloat(val, 64)
		case "spike-factor":
			p.SpikeFactor, err = strconv.ParseFloat(val, 64)
		case "disconnect":
			p.MeterDisconnect, err = strconv.ParseFloat(val, 64)
		case "dvfs":
			p.DVFSFailure, err = strconv.ParseFloat(val, 64)
		case "dvfs-latency":
			p.DVFSSettleLatency, err = time.ParseDuration(val)
		case "throttle":
			p.Throttle, err = strconv.ParseFloat(val, 64)
		case "throttle-factor":
			p.ThrottleFactor, err = strconv.ParseFloat(val, 64)
		case "throttle-fraction":
			p.ThrottleFraction, err = strconv.ParseFloat(val, 64)
		default:
			return Plan{}, fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad value for %s: %w", key, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// faultStreamTag separates the fault stream from every other derived
// stream keyed on the same sample identity.
const faultStreamTag = 0x5fa17

// ForSample returns the injector for one unit of work, or nil when the
// plan is inactive. key must be the unit's identity-derived seed (e.g.
// microbench.SampleSeed) and attempt its zero-based retry count: the
// injector's random stream is a pure function of (plan seed, key,
// attempt), so faults are independent of execution order and worker
// count, and every retry redraws its faults instead of replaying them.
func (p Plan) ForSample(key int64, attempt int) *Injector {
	if !p.Active() {
		return nil
	}
	in := &Injector{
		plan:       p,
		rng:        stats.NewRNG(stats.MixSeed(p.Seed, faultStreamTag, key, int64(attempt))),
		spikeStart: -1,
		spikeEnd:   -1,
	}
	// All per-measurement fault decisions are drawn up front in a fixed
	// order, so the faults one injector deals do not depend on which of
	// its methods the harness happens to call, or in what order.
	in.uDVFS = in.rng.Float64()
	in.uDisconnect = in.rng.Float64()
	in.uThrottle = in.rng.Float64()
	in.throttlePos = in.rng.Float64()
	in.uSpike = in.rng.Float64()
	in.spikePos = in.rng.Float64()
	return in
}

// Injector deals the faults of one measurement attempt. The zero value
// is not usable; obtain injectors from Plan.ForSample. An Injector is
// consumed by a single attempt and is not safe for concurrent use.
//
// Injector implements powermon.FaultInjector.
type Injector struct {
	plan Plan
	rng  *stats.RNG

	uDVFS, uDisconnect   float64
	uThrottle            float64
	throttlePos          float64
	uSpike, spikePos     float64
	spikeStart, spikeEnd int // sample-index window; -1 = no spike
}

// DVFSTransition simulates programming the attempt's DVFS setting. On
// an injected failure it returns a transient *DVFSError carrying the
// settle latency to honor before retrying.
func (in *Injector) DVFSTransition() error {
	if in.uDVFS < in.plan.DVFSFailure {
		return Transient(&DVFSError{RetryAfter: in.plan.settleLatency()})
	}
	return nil
}

// ThrottleWindows returns the thermal-throttle windows this attempt
// injects into a run of the given duration (nil when none).
func (in *Injector) ThrottleWindows(runTime units.Second) []tegra.ThrottleWindow {
	if in.uThrottle >= in.plan.Throttle || runTime <= 0 {
		return nil
	}
	rt := float64(runTime)
	dur := in.plan.throttleFraction() * rt
	// Place the window's start so it always fits inside the run.
	start := in.throttlePos * (rt - dur)
	return []tegra.ThrottleWindow{{
		Start:    units.Second(start),
		Duration: units.Second(dur),
		Factor:   units.Ratio(in.plan.throttleFactor()),
	}}
}

// BeginMeasure opens the attempt's measurement session: it fails the
// whole session on an injected disconnect and otherwise positions the
// spike window (if this measurement drew one) among the n samples.
func (in *Injector) BeginMeasure(duration units.Second, n int) error {
	if in.uDisconnect < in.plan.MeterDisconnect {
		return Transient(ErrMeterDisconnect)
	}
	if in.uSpike < in.plan.MeterSpike && n > 0 {
		// A burst of about one eighth of the trace: long enough to move
		// the integrated energy far outside the honest noise band, so
		// the fit's outlier screen can catch what no error return flags.
		width := n / 8
		if width < 1 {
			width = 1
		}
		center := int(in.spikePos * float64(n))
		in.spikeStart = center - width/2
		in.spikeEnd = in.spikeStart + width
		if in.spikeStart < 0 {
			in.spikeStart, in.spikeEnd = 0, width
		}
		if in.spikeEnd > n {
			in.spikeStart, in.spikeEnd = n-width, n
		}
	}
	return nil
}

// ObserveSample filters one meter sample: clean is the value the meter
// would record, prev the previous recorded sample. Spike windows
// multiply the sample; dropouts hold the previous one.
func (in *Injector) ObserveSample(i int, clean, prev units.Watt) units.Watt {
	v := clean
	if i >= in.spikeStart && i < in.spikeEnd {
		v = units.Watt(float64(v) * in.plan.spikeFactor())
	}
	if in.plan.MeterDropout > 0 && in.rng.Float64() < in.plan.MeterDropout && i > 0 {
		return prev
	}
	return v
}

// ErrMeterDisconnect is the cause of an injected whole-measurement
// meter disconnect; it always arrives wrapped as a transient error.
var ErrMeterDisconnect = errors.New("power meter disconnected")

// DVFSError is a failed DVFS setting transition. RetryAfter is the
// settle period the (simulated) power rail needs before the transition
// can be retried; Do waits at least that long between attempts.
type DVFSError struct {
	RetryAfter time.Duration
}

func (e *DVFSError) Error() string {
	return fmt.Sprintf("DVFS setting transition failed (settle %v before retrying)", e.RetryAfter)
}

// transientErr marks an error as retry-able.
type transientErr struct {
	err error
}

func (t *transientErr) Error() string { return "transient: " + t.err.Error() }
func (t *transientErr) Unwrap() error { return t.err }

// Transient wraps err as transient: IsTransient(Transient(err)) is
// true, and errors.Is/As still see err. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether any error in err's chain was marked
// transient. The experiment pipeline retries transient failures and
// treats everything else — bad configuration, impossible measurements —
// as permanent.
func IsTransient(err error) bool {
	var t *transientErr
	return errors.As(err, &t)
}

// RetryAfter extracts the settle latency an error requests before the
// next attempt, if it carries one.
func RetryAfter(err error) (time.Duration, bool) {
	var d *DVFSError
	if errors.As(err, &d) {
		return d.RetryAfter, true
	}
	return 0, false
}

// Retry bounds the retry loop around one unit of work. The zero value
// selects the defaults noted on each field.
type Retry struct {
	// MaxAttempts is the total number of tries (first attempt included);
	// zero = 3.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per
	// attempt. Zero = 1 ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; zero = 20 ms.
	MaxBackoff time.Duration
	// Sleep replaces the real clock, for tests and simulations where
	// settle latencies need not actually elapse. Nil sleeps for real
	// (honoring ctx cancellation).
	Sleep func(time.Duration)
}

func (r Retry) maxAttempts() int {
	if r.MaxAttempts <= 0 {
		return 3
	}
	return r.MaxAttempts
}

func (r Retry) backoff(attempt int) time.Duration {
	base := r.Backoff
	if base <= 0 {
		base = time.Millisecond
	}
	max := r.MaxBackoff
	if max <= 0 {
		max = 20 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	return d
}

// Do runs fn with bounded retries. fn receives the zero-based attempt
// number — the pipeline threads it into Plan.ForSample and into the
// measurement re-seed, so every retry is a fresh, deterministic
// measurement. Only transient errors are retried; permanent errors and
// context cancellation return immediately. Between attempts Do backs
// off exponentially, never less than the settle latency the failure
// requested (RetryAfter). It returns the number of attempts made and
// the final error.
func Do(ctx context.Context, r Retry, fn func(attempt int) error) (attempts int, err error) {
	max := r.maxAttempts()
	for attempt := 0; ; attempt++ {
		err = fn(attempt)
		attempts = attempt + 1
		if err == nil || !IsTransient(err) || attempts >= max {
			return attempts, err
		}
		if ctx.Err() != nil {
			return attempts, ctx.Err()
		}
		delay := r.backoff(attempt)
		if settle, ok := RetryAfter(err); ok && settle > delay {
			delay = settle
		}
		if r.Sleep != nil {
			r.Sleep(delay)
		} else {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return attempts, ctx.Err()
			}
		}
	}
}
