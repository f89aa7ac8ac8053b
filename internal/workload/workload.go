// Package workload generates and replays deterministic open-loop
// request traces against energyd. The paper's evaluation drives the
// energy model one request at a time; production questions — does the
// sweep cache hold under burst arrivals, do breakers shed load without
// losing answers, what does a joule of sweep work buy — only show up
// under sustained, temporally structured traffic. This package supplies
// that traffic as data, not as a live generator:
//
//   - Spec declares the workload: per-op-class arrival processes
//     (diurnal sinusoid rate curves with distinct periods and phases,
//     Poisson burst episodes with rate multipliers) and the FMM phase
//     mixes the request bodies draw from.
//   - Generate expands a Spec into a Trace — every request's send
//     offset and exact JSON body — via non-homogeneous Poisson thinning
//     with seed-derived streams, so the same Spec always yields a
//     byte-identical trace.
//   - The trace wire format is JSONL ("energytrace/v1"): one header
//     line, then one line per request, diffable and replayable.
//   - Replay drives a Target (an in-process serve handler or a live
//     daemon over HTTP) from a trace, sequentially at full determinism
//     (sync mode) or paced open-loop at recorded or scaled rate (open
//     mode), and emits a machine-readable Report.
//
// Everything follows the repository's determinism discipline: random
// streams derive from (spec seed, class identity) via stats.MixSeed,
// never from generation order, and the replayer takes injected clocks
// so sync-mode reports are byte-identical across runs.
package workload

import (
	"fmt"
	"math"

	"dvfsroofline/internal/stats"
)

// Op names one request class of the trace.
type Op string

const (
	OpPredict      Op = "predict"
	OpAutotune     Op = "autotune"
	OpFleetPredict Op = "fleet_predict"
	OpFleetPlace   Op = "fleet_place"
)

// Path returns the energyd endpoint the op posts to.
func (o Op) Path() string {
	switch o {
	case OpPredict:
		return "/v1/predict"
	case OpAutotune:
		return "/v1/autotune"
	case OpFleetPredict:
		return "/v1/fleet/predict"
	case OpFleetPlace:
		return "/v1/fleet/place"
	default:
		return ""
	}
}

// opCode is the op's identity value for seed derivation — a fixed
// constant per class, never a slice position, so adding or reordering
// classes in a Spec does not reshuffle another class's random stream.
func (o Op) opCode() int64 {
	switch o {
	case OpPredict:
		return 1
	case OpAutotune:
		return 2
	case OpFleetPredict:
		return 3
	case OpFleetPlace:
		return 4
	default:
		return 0
	}
}

// ClassSpec is one op class's arrival process: a base Poisson rate
// modulated by a diurnal sinusoid and amplified inside Poisson-placed
// burst episodes. Rates are requests per second of trace time.
type ClassSpec struct {
	Op Op `json:"op"`
	// BaseRate is the mean arrival rate before modulation.
	BaseRate float64 `json:"base_rate"`
	// DiurnalAmp in [0,1) scales the sinusoid: the instantaneous rate
	// swings between BaseRate·(1−amp) and BaseRate·(1+amp).
	DiurnalAmp float64 `json:"diurnal_amp,omitempty"`
	// DiurnalPeriodS is the sinusoid period; classes with different
	// periods drift in and out of phase, producing the multi-period
	// mixes real fleets see. Zero disables the sinusoid.
	DiurnalPeriodS float64 `json:"diurnal_period_s,omitempty"`
	// DiurnalPhase offsets the sinusoid, in radians.
	DiurnalPhase float64 `json:"diurnal_phase,omitempty"`
	// BurstsPerS is the Poisson rate of burst episode starts.
	BurstsPerS float64 `json:"bursts_per_s,omitempty"`
	// BurstDurS is each episode's duration.
	BurstDurS float64 `json:"burst_dur_s,omitempty"`
	// BurstBoost multiplies the rate inside an episode (≥ 1).
	BurstBoost float64 `json:"burst_boost,omitempty"`
}

// Spec is a full trace recipe. Two Generate calls on the same Spec
// yield byte-identical traces.
type Spec struct {
	Name string `json:"name,omitempty"`
	// Seed roots every random stream in the generation.
	Seed int64 `json:"seed"`
	// DurationS is the trace length in seconds of trace time.
	DurationS float64 `json:"duration_s"`
	// Classes are the op classes; at most one entry per Op.
	Classes []ClassSpec `json:"classes"`
	// ProfileSizes are the FMM problem sizes (point counts) whose
	// per-phase operation profiles form the request-body pool: each
	// request samples one (size, phase) workload. Order is irrelevant
	// to the stream derivation (sizes are identity-hashed).
	ProfileSizes []int `json:"profile_sizes"`
}

// DefaultSpec is the standard soak mix: steady predict traffic with a
// pronounced diurnal swing, slower autotune traffic whose bursts stress
// the sweep cache and breakers, and a trickle of fleet placements. The
// periods are deliberately co-prime-ish so the class peaks drift.
func DefaultSpec(seed int64, durationS float64) Spec {
	return Spec{
		Name:      "default-soak",
		Seed:      seed,
		DurationS: durationS,
		Classes: []ClassSpec{
			{Op: OpPredict, BaseRate: 20, DiurnalAmp: 0.6, DiurnalPeriodS: 19, BurstsPerS: 0.05, BurstDurS: 2, BurstBoost: 4},
			{Op: OpAutotune, BaseRate: 6, DiurnalAmp: 0.4, DiurnalPeriodS: 31, DiurnalPhase: 1.3, BurstsPerS: 0.08, BurstDurS: 1.5, BurstBoost: 5},
			{Op: OpFleetPredict, BaseRate: 8, DiurnalAmp: 0.5, DiurnalPeriodS: 23, DiurnalPhase: 2.1, BurstsPerS: 0.04, BurstDurS: 2, BurstBoost: 6},
			{Op: OpFleetPlace, BaseRate: 0.5, DiurnalAmp: 0.3, DiurnalPeriodS: 41},
		},
		ProfileSizes: []int{192, 384, 768},
	}
}

// Validate checks the spec's internal consistency.
func (s Spec) Validate() error {
	if s.Seed <= 0 {
		return fmt.Errorf("workload: seed %d must be positive", s.Seed)
	}
	if s.DurationS <= 0 {
		return fmt.Errorf("workload: duration %g must be positive", s.DurationS)
	}
	if math.IsNaN(s.DurationS) || math.IsInf(s.DurationS, 1) {
		return fmt.Errorf("workload: duration %g must be finite", s.DurationS)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("workload: no op classes")
	}
	if len(s.ProfileSizes) == 0 {
		return fmt.Errorf("workload: no profile sizes")
	}
	seen := map[Op]bool{}
	for _, c := range s.Classes {
		if c.Op.Path() == "" {
			return fmt.Errorf("workload: unknown op %q", c.Op)
		}
		if seen[c.Op] {
			// One class per op keeps stream seeds identity-derived: the
			// op code alone names the stream.
			return fmt.Errorf("workload: duplicate class for op %q", c.Op)
		}
		seen[c.Op] = true
		if c.BaseRate <= 0 {
			return fmt.Errorf("workload: op %q base rate %g must be positive", c.Op, c.BaseRate)
		}
		if c.DiurnalAmp < 0 || c.DiurnalAmp >= 1 {
			return fmt.Errorf("workload: op %q diurnal amplitude %g must be in [0,1)", c.Op, c.DiurnalAmp)
		}
		if c.DiurnalAmp > 0 && c.DiurnalPeriodS <= 0 {
			return fmt.Errorf("workload: op %q diurnal amplitude without a period", c.Op)
		}
		if c.BurstsPerS < 0 || c.BurstDurS < 0 {
			return fmt.Errorf("workload: op %q negative burst parameters", c.Op)
		}
		if c.BurstsPerS > 0 && (c.BurstDurS <= 0 || c.BurstBoost < 1) {
			return fmt.Errorf("workload: op %q bursts need a positive duration and boost >= 1", c.Op)
		}
		for _, v := range [...]float64{c.BaseRate, c.DiurnalAmp, c.DiurnalPeriodS, c.DiurnalPhase, c.BurstsPerS, c.BurstDurS, c.BurstBoost} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("workload: op %q parameter %g must be finite", c.Op, v)
			}
		}
	}
	for _, n := range s.ProfileSizes {
		if n < 16 {
			return fmt.Errorf("workload: profile size %d too small for an FMM tree", n)
		}
	}
	return nil
}

// classSeed roots one class's random streams in the spec seed and the
// class identity. stream discriminates the independent draws a class
// needs (arrivals, bursts, bodies).
func classSeed(specSeed int64, op Op, stream int64) int64 {
	return stats.MixSeed(specSeed, op.opCode(), stream)
}
