package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/fmm"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/units"
)

// Stream discriminators for the per-class seed derivations. These are
// part of the trace format in effect: changing them changes every
// generated trace.
const (
	streamArrivals = 1
	streamBursts   = 2
	streamBodies   = 3
	streamPool     = 4
)

// poolEntry is one sampled request workload: the operation profile of
// one FMM phase at one problem size, with the phase's occupancy.
type poolEntry struct {
	profile   counters.Profile
	occupancy units.Ratio
}

// profilePool evaluates the FMM once per declared problem size and
// collects every phase's operation profile. The pool is deliberately
// small (sizes × 6 phases): request bodies repeat, which is what gives
// the sweep cache and the consistent-hash routing something to bite on.
func profilePool(spec Spec) ([]poolEntry, error) {
	pool := make([]poolEntry, 0, len(spec.ProfileSizes)*int(fmm.NumPhases))
	for _, n := range spec.ProfileSizes {
		pts := fmm.GeneratePoints(fmm.Plummer, n, stats.MixSeed(spec.Seed, streamPool, int64(n)))
		dens := fmm.GenerateDensities(n, stats.MixSeed(spec.Seed, streamPool, int64(n), 2))
		res, err := fmm.Evaluate(pts, dens, fmm.Options{})
		if err != nil {
			return nil, fmt.Errorf("workload: profiling n=%d: %w", n, err)
		}
		for _, ph := range fmm.Phases() {
			p := res.Profiles[ph]
			if p == (counters.Profile{}) {
				continue // degenerate tree: phase never ran at this size
			}
			pool = append(pool, poolEntry{profile: p, occupancy: units.Ratio(ph.Occupancy())})
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("workload: empty profile pool")
	}
	return pool, nil
}

// episode is one burst window [start, end) in trace seconds.
type episode struct{ start, end float64 }

// burstEpisodes places a class's burst windows by a homogeneous Poisson
// process over the trace duration.
func burstEpisodes(c ClassSpec, seed int64, duration float64) []episode {
	if c.BurstsPerS <= 0 {
		return nil
	}
	rng := stats.NewRNG(seed)
	var eps []episode
	t := expDraw(rng, c.BurstsPerS)
	for t < duration {
		eps = append(eps, episode{start: t, end: t + c.BurstDurS})
		t += expDraw(rng, c.BurstsPerS)
	}
	return eps
}

// rateAt is the class's instantaneous arrival rate: the base rate
// modulated by the diurnal sinusoid and the burst boost.
func (c ClassSpec) rateAt(t float64, eps []episode) float64 {
	r := c.BaseRate
	if c.DiurnalAmp > 0 {
		r *= 1 + c.DiurnalAmp*math.Sin(2*math.Pi*t/c.DiurnalPeriodS+c.DiurnalPhase)
	}
	for _, e := range eps {
		if t >= e.start && t < e.end {
			r *= c.BurstBoost
			break
		}
	}
	return r
}

// rateMax bounds rateAt from above, for the thinning envelope.
func (c ClassSpec) rateMax() float64 {
	r := c.BaseRate * (1 + c.DiurnalAmp)
	if c.BurstsPerS > 0 && c.BurstBoost > 1 {
		r *= c.BurstBoost
	}
	return r
}

// expDraw samples an exponential inter-arrival gap at the given rate.
func expDraw(rng *stats.RNG, rate float64) float64 {
	u := rng.Float64()
	for u == 0 { // log(0) guard; Float64 is in [0,1)
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}

// classArrivals generates one class's arrival offsets by thinning a
// homogeneous Poisson envelope at rateMax down to the instantaneous
// rate — the standard exact sampler for non-homogeneous Poisson
// processes, and a pure function of the class spec and its seeds.
func classArrivals(c ClassSpec, spec Spec) []float64 {
	eps := burstEpisodes(c, classSeed(spec.Seed, c.Op, streamBursts), spec.DurationS)
	rng := stats.NewRNG(classSeed(spec.Seed, c.Op, streamArrivals))
	env := c.rateMax()
	var at []float64
	for t := expDraw(rng, env); t < spec.DurationS; t += expDraw(rng, env) {
		if rng.Float64()*env <= c.rateAt(t, eps) {
			at = append(at, t)
		}
	}
	return at
}

// settingIDs is the predict-request setting pool: the paper's eight
// validation settings plus the race-to-halt maximum.
var settingIDs = []string{"max", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8"}

// body builds one request's JSON body for the class from its body
// stream. The encoding goes through the serve wire structs, so every
// generated body decodes under the server's DisallowUnknownFields.
func body(op Op, rng *stats.RNG, pool []poolEntry) (json.RawMessage, error) {
	e := pool[rng.Intn(len(pool))]
	prof := profileJSON(e.profile)
	var v any
	switch op {
	case OpPredict:
		v = serve.PredictRequest{Profile: prof, SettingID: settingIDs[rng.Intn(len(settingIDs))], Occupancy: e.occupancy}
	case OpFleetPredict:
		v = serve.FleetPredictRequest{PredictRequest: serve.PredictRequest{
			Profile: prof, SettingID: settingIDs[rng.Intn(len(settingIDs))], Occupancy: e.occupancy,
		}}
	case OpAutotune, OpFleetPlace:
		// One sweep in four runs the full 105-setting grid instead of the
		// 16 calibration settings: distinct settings mean distinct sweep
		// cache keys and distinct fault-injection streams, so a replay
		// under faults exercises mixed success/failure instead of every
		// sweep sharing one fate.
		grid := ""
		if rng.Intn(4) == 0 {
			grid = "full"
		}
		v = serve.AutotuneRequest{Profile: prof, Occupancy: e.occupancy, Grid: grid}
	default:
		return nil, fmt.Errorf("workload: no body builder for op %q", op)
	}
	return json.Marshal(v)
}

func profileJSON(p counters.Profile) serve.ProfileJSON {
	return serve.ProfileJSON{
		SP:    units.Count(p.SP),
		DPFMA: units.Count(p.DPFMA), DPAdd: units.Count(p.DPAdd), DPMul: units.Count(p.DPMul),
		Int:         units.Count(p.Int),
		SharedWords: units.Count(p.SharedWords), L1Words: units.Count(p.L1Words),
		L2Words: units.Count(p.L2Words), DRAMWords: units.Count(p.DRAMWords),
	}
}

// Generate expands a spec into its trace: per-class non-homogeneous
// Poisson arrivals, merged by send time, each carrying an exact JSON
// body drawn from the class's body stream. Same spec, same bytes.
func Generate(spec Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pool, err := profilePool(spec)
	if err != nil {
		return nil, err
	}
	var events []Event
	for _, c := range spec.Classes {
		at := classArrivals(c, spec)
		rng := stats.NewRNG(classSeed(spec.Seed, c.Op, streamBodies))
		for _, t := range at {
			b, err := body(c.Op, rng, pool)
			if err != nil {
				return nil, err
			}
			events = append(events, Event{AtS: t, Op: c.Op, Body: b})
		}
	}
	// Merge the class streams into send order. Equal offsets (possible
	// only through float coincidence) break by op identity so the trace
	// stays a pure function of the spec.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].AtS != events[j].AtS {
			return events[i].AtS < events[j].AtS
		}
		return events[i].Op.opCode() < events[j].Op.opCode()
	})
	for i := range events {
		events[i].Index = i
	}
	s := spec
	return &Trace{
		Header: Header{
			Schema:    Schema,
			Name:      spec.Name,
			Seed:      spec.Seed,
			DurationS: spec.DurationS,
			Events:    len(events),
			Spec:      &s,
		},
		Events: events,
	}, nil
}
