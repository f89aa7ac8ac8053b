// Package powermon simulates the PowerMon 2 measurement device of Bedard
// et al. (paper §II-B): an in-line power meter between the supply and the
// Jetson TK1 that samples direct current and voltage at up to 1024 Hz.
//
// The meter observes only an instantaneous power trace (watts as a
// function of time); energy is recovered by integrating discrete samples,
// exactly as the paper's measurement pipeline does. The simulation
// includes the device's principal error sources — per-session gain error
// from the sense-resistor tolerance, additive sample noise, and ADC
// quantization — all driven by a seeded generator so experiments are
// reproducible.
//
// Substitution note (DESIGN.md §2): this package replaces the physical
// PowerMon 2 board. The modeling pipeline obtains every "measured" joule
// through this sampled path, never from the simulator's closed-form
// energy, so measurement error is part of the reproduction.
package powermon

import (
	"fmt"
	"math"

	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/units"
)

// MaxSampleRate is the PowerMon 2's maximum sampling rate in Hz.
const MaxSampleRate = 1024.0

// MaxSamples bounds one measurement session: about 68 minutes at full
// rate, three orders of magnitude above any run the harnesses produce
// (microbenchmark windows are fractions of a second). The bound exists
// because Measure's duration can descend from untrusted input — an
// energyd autotune body with absurd operation counts yields an absurd
// simulated runtime — and the sample buffer must not be sized by it.
const MaxSamples = 4 << 20

// Config describes one measurement session.
type Config struct {
	SampleRate units.Hertz // samples per second; NewMeter reads NaN or a value outside (0, MaxSampleRate] as MaxSampleRate
	GainSigma  units.Ratio // relative std-dev of the per-measurement gain error
	NoiseSigma units.Watt  // additive white noise per sample
	QuantumW   units.Watt  // ADC quantization step (0 disables)

	// Faults, if non-nil, intercepts the measurement session: it may
	// abort the session before the first sample (a meter disconnect) and
	// rewrite individual samples (dropouts, spikes). internal/faults
	// provides the standard deterministic implementation; nil injects
	// nothing.
	Faults FaultInjector
}

// Validate reports physically meaningless configurations. SampleRate is
// not checked: NewMeter clamps it.
func (c Config) Validate() error {
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(c.GainSigma >= 0) || !(c.NoiseSigma >= 0) || !(c.QuantumW >= 0) {
		return fmt.Errorf("powermon: negative noise parameter in %+v", c)
	}
	if math.IsInf(float64(c.GainSigma), 1) || math.IsInf(float64(c.NoiseSigma), 1) || math.IsInf(float64(c.QuantumW), 1) {
		return fmt.Errorf("powermon: infinite noise parameter in %+v", c)
	}
	return nil
}

// FaultInjector intercepts one measurement session. Implementations
// must be deterministic for reproducibility; internal/faults derives
// them from the sample's identity. The meter calls BeginMeasure once
// per session before sampling — a non-nil error aborts the measurement
// — and ObserveSample once per recorded sample, with the value the
// meter would record (clean) and the previously recorded sample (prev);
// the return value is what the meter stores.
type FaultInjector interface {
	BeginMeasure(duration units.Second, samples int) error
	ObserveSample(i int, clean, prev units.Watt) units.Watt
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments: full rate, 3 % gain tolerance, 10 mW sample noise, and a
// 5 mW ADC step (12-bit converter over a ~20 W range).
func DefaultConfig() Config {
	return Config{SampleRate: MaxSampleRate, GainSigma: 0.030, NoiseSigma: 0.010, QuantumW: 0.005}
}

// Meter is a simulated PowerMon 2. Create one per experiment with NewMeter;
// measurements drawn from the same meter share its random stream, so a
// fixed seed reproduces an entire measurement campaign. Reset reseeds a
// meter in place, so one meter can serve many campaigns without
// allocating.
type Meter struct {
	cfg Config
	rng *stats.RNG
}

// NewMeter returns a meter with the given configuration and seed. A
// configuration with negative noise parameters is a caller bug on a
// hand-built Config but reachable from user input (flag and config
// plumbing), so it is reported as an error rather than a panic.
func NewMeter(cfg Config, seed int64) (*Meter, error) {
	m := new(Meter)
	if err := m.Reset(cfg, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reconfigures m in place as NewMeter(cfg, seed) would build it,
// with the same clamping and validation; from then on m measures bit for
// bit what that fresh meter would. The zero Meter may be Reset. On an
// invalid cfg, m is left unchanged.
func (m *Meter) Reset(cfg Config, seed int64) error {
	if !(cfg.SampleRate > 0 && cfg.SampleRate <= MaxSampleRate) {
		cfg.SampleRate = MaxSampleRate
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.cfg = cfg
	if m.rng == nil {
		m.rng = stats.NewRNG(seed)
	} else {
		m.rng.Seed(seed)
	}
	return nil
}

// MustMeter is NewMeter for statically known-good configurations; it
// panics on an invalid one. Tests, benchmarks and examples use it.
func MustMeter(cfg Config, seed int64) *Meter {
	m, err := NewMeter(cfg, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Measurement is the outcome of sampling one run.
type Measurement struct {
	Duration  units.Second // time observed
	Samples   []units.Watt // sampled power values
	Energy    units.Joule  // trapezoidal integral of Samples
	MeanPower units.Watt   // Energy / Duration
}

// Measure samples the power trace over [0, duration] and integrates the
// samples into an energy estimate. The trace function must be defined on
// the whole interval. Runs shorter than two sample periods cannot be
// integrated and yield an error; callers should repeat short kernels
// until they fill a measurable window (as the paper's microbenchmark
// harness does).
//
// When duration does not fall on the sample grid, one extra sample is
// taken at t = duration itself so the closing partial interval
// [(n-1)·dt, duration] is integrated rather than silently dropped —
// without it every measurement under-reads by up to one sample period of
// power.
func (m *Meter) Measure(trace func(t units.Second) units.Watt, duration units.Second) (Measurement, error) {
	energy, samples, err := m.sample(trace, duration, true)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Duration:  duration,
		Samples:   samples,
		Energy:    units.Joule(energy),
		MeanPower: units.Watt(energy / float64(duration)),
	}, nil
}

// Energy is Measure(trace, duration).Energy, bit for bit, without keeping
// the samples: it draws the same noise in the same order and sums the
// same trapezoids, but allocates nothing.
func (m *Meter) Energy(trace func(t units.Second) units.Watt, duration units.Second) (units.Joule, error) {
	energy, _, err := m.sample(trace, duration, false)
	return units.Joule(energy), err
}

// sample takes one session's samples and returns their trapezoidal
// integral, and with keep the samples themselves. Each trapezoid is
// added as soon as its closing sample is taken, which is the order a
// second pass over the stored samples would add them in.
func (m *Meter) sample(trace func(t units.Second) units.Watt, duration units.Second, keep bool) (float64, []units.Watt, error) {
	dur := float64(duration)
	if dur <= 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		return 0, nil, fmt.Errorf("powermon: invalid duration %g", dur)
	}
	rate := float64(m.cfg.SampleRate)
	// Reject oversized runs on the float product, before the conversion
	// to int below can overflow for astronomically long durations.
	if dur*rate > MaxSamples-1 {
		return 0, nil, fmt.Errorf("powermon: run of %gs needs more than %d samples at %g Hz; split or subsample the run", dur, MaxSamples, rate)
	}
	dt := 1 / rate
	n := int(dur/dt) + 1
	if n < 3 {
		return 0, nil, fmt.Errorf("powermon: run of %gs too short to sample at %g Hz", dur, rate)
	}
	// The last grid point sits at (n-1)·dt <= duration. Unless the run is
	// grid-aligned, a tail of up to one sample period remains; close it
	// with one extra sample at the trailing edge.
	tail := dur - float64(n-1)*dt
	total := n
	if tail > dt*1e-9 {
		total = n + 1
	}
	f := m.cfg.Faults
	if f != nil {
		if err := f.BeginMeasure(duration, total); err != nil {
			return 0, nil, fmt.Errorf("powermon: %w", err)
		}
	}
	var samples []units.Watt
	if keep {
		samples = make([]units.Watt, total)
	}
	gain := m.rng.Normal(1, float64(m.cfg.GainSigma))
	// Trapezoidal integration: full sample periods over the grid, then
	// the closing trapezoid over the partial tail interval.
	var energy, prev float64
	for i := 0; i < total; i++ {
		t := float64(i) * dt
		if t > dur {
			t = dur // the appended closing sample
		}
		v := float64(trace(units.Second(t)))*gain + m.rng.Normal(0, float64(m.cfg.NoiseSigma))
		if q := float64(m.cfg.QuantumW); q > 0 {
			v = math.Round(v/q) * q
		}
		if v < 0 {
			v = 0
		}
		if f != nil {
			v = float64(f.ObserveSample(i, units.Watt(v), units.Watt(prev)))
		}
		if keep {
			samples[i] = units.Watt(v)
		}
		if i > 0 {
			step := dt
			if i == n {
				step = tail
			}
			energy += 0.5 * (prev + v) * step
		}
		prev = v
	}
	return energy, samples, nil
}

// MinDuration returns the shortest run the meter can integrate with at
// least k samples. Harnesses use it to size kernel repetition counts.
func (m *Meter) MinDuration(k int) units.Second {
	if k < 3 {
		k = 3
	}
	return units.Second(float64(k) / float64(m.cfg.SampleRate))
}

// SampleRate returns the configured sampling rate.
func (m *Meter) SampleRate() units.Hertz { return m.cfg.SampleRate }
