package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the one-line JSON a run prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// MetricDef declares a metric's name and unit.
type MetricDef struct{ Name, Unit string }

// EndToEnd are the metrics an untraced run reports: what a user of
// energyd or the paper pipeline sees. An operation is one request on
// the serving workloads and one pipeline pass on the others.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"tail_us", "us"},
	{"allocs_per_op", "allocs/op"},
	{"live_heap_mb", "MB"},
}

// PerLayer are the metrics a traced run reports (see ladder.go).
var PerLayer = []MetricDef{
	{"serve.predict_us", "us"},
	{"serve.autotune_hit_us", "us"},
	{"serve.place_hit_us", "us"},
	{"serve.autotune_cal_us", "us"},
	{"serve.autotune_full_us", "us"},
	{"serve.place_us", "us"},
	{"serve.self_predict_us", "us"},
	{"serve.self_autotune_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.allocs_predict", "allocs/op"},
	{"serve.allocs_autotune_hit", "allocs/op"},
	{"core.predict_parts_ns", "ns"},
	{"core.score_us", "us"},
	{"fleet.cache_hit_rate", "ratio"},
	{"fleet.sweeps", "count"},
	{"fleet.cache_entries", "count"},
	{"fleet.answered_per_sweep_j", "ratio"},
	{"experiments.sweep_cal_us", "us"},
	{"experiments.sweep_full_us", "us"},
	{"experiments.sweep_targets_us", "us"},
	{"experiments.candidate_us", "us"},
	{"powermon.new_meter_us", "us"},
	{"powermon.measure_us", "us"},
	{"powermon.samples_per_candidate", "count"},
	{"powermon.ns_per_sample", "ns"},
	{"tegra.execute_ns", "ns"},
	{"tegra.trace_ns_per_sample", "ns"},
	{"microbench.sample_us", "us"},
	{"experiments.calibrate_ms", "ms"},
	{"experiments.fit_validate_ms", "ms"},
	{"core.fit_ms", "ms"},
	{"core.cv16_ms", "ms"},
	{"core.holdout_ms", "ms"},
	{"experiments.tableii_ms", "ms"},
	{"fmm.evaluate_ms", "ms"},
	{"fmm.tree_ms", "ms"},
	{"fmm.instructions", "count"},
	{"fmm.dram_words", "count"},
	{"fmm.gops", "Gop/s"},
	{"fmm.speedup_2w", "x"},
	{"fmm.rel_err_l2", "ratio"},
	{"experiments.figure5_ms", "ms"},
	{"go.gc_cpu_frac", "ratio"},
	{"ladder.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// Report is a run's result plus the human-readable detail printed
// before it.
type Report struct {
	Result
	// Succeeded counts operations whose output was right;
	// Attempted = Succeeded + Failed.
	Succeeded int
	Digest    string
	Lines     []string
	defs      []MetricDef
	cfg       Config
}

func newReport(cfg Config) *Report {
	defs := EndToEnd
	if cfg.Trace {
		defs = PerLayer
	}
	return &Report{Result: Result{Metrics: map[string]Metric{}}, defs: defs, cfg: cfg}
}

func (r *Report) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// set records a declared metric.
func (r *Report) set(name string, v float64, detail string) {
	unit := ""
	for _, d := range r.defs {
		if d.Name == name {
			unit = d.Unit
		}
	}
	if unit == "" {
		panic(fmt.Sprintf("bench: metric %q is not declared for this run", name))
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
	r.linef("%-32s %14.6g %-9s %s", name, v, unit, detail)
}

// addOps counts operations whose outputs were checked.
func (r *Report) addOps(n, failed int, what string) {
	r.Attempted += n
	r.Failed += failed
	r.Succeeded += n - failed
	r.linef("checked %d %s, %d failed", n, what, failed)
}

// checkDigest compares the run's reference outputs with the recorded
// digest for this workload and seed; the comparison is one checked
// operation.
func (r *Report) checkDigest(d string) {
	r.Digest = d
	want := ""
	if rec := r.cfg.Digests; rec != nil && rec.Seed == r.cfg.Seed && r.cfg.Sizes == Full {
		want = rec.Workloads[r.cfg.Workload]
	}
	switch {
	case want == "":
		r.linef("output digest %s (none recorded for this seed and size)", d)
	case want == d:
		r.addOps(1, 0, "output digest against the recorded one")
	default:
		r.addOps(1, 1, "output digest against the recorded one")
		r.linef("output digest %s, recorded %s", d, want)
	}
}

// endToEnd records the untraced metrics of a measured phase.
func (r *Report) endToEnd(setupS float64, ph *phase, detail string) {
	r.set("setup_s", setupS, fmt.Sprintf("median of %d set-ups", r.cfg.Sizes.SetupRuns))
	r.set("ops_per_s", float64(ph.ops)/ph.wall.Seconds(), fmt.Sprintf("%d ops in %.3f s; %s", ph.ops, ph.wall.Seconds(), detail))
	p50, _ := ph.lat.Percentile(50)
	r.set("p50_us", p50, fmt.Sprintf("n=%d", ph.ops))
	pct := tailPercentile(ph.ops)
	tail, beyond := ph.lat.Percentile(pct)
	r.set("tail_us", tail, fmt.Sprintf("p%d, n=%d, %d beyond", pct, ph.ops, beyond))
	r.set("allocs_per_op", float64(ph.allocs)/float64(max(ph.ops, 1)), fmt.Sprintf("%d allocations", ph.allocs))
	lives := append([]float64(nil), ph.lives...)
	sort.Float64s(lives)
	r.set("live_heap_mb", NearestRank(lives, 90), fmt.Sprintf("p90 of the live heap at %d GCs (p50 %.4f, max %.4f)", len(lives), NearestRank(lives, 50), NearestRank(lives, 100)))
}

// tailPercentile is the tail a run of n operations reports: the 99th
// percentile once at least ten operations lie beyond it (a serving
// run's hundred thousand requests), else the 90th (a pipeline run's
// dozens of passes).
func tailPercentile(n int) int {
	if n >= 1000 {
		return 99
	}
	return 90
}

// complete checks that every declared metric was set and fixes Correct.
func (r *Report) complete() error {
	var missing []string
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("bench: run did not report %s", strings.Join(missing, ", "))
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return nil
}
