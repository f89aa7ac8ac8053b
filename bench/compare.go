package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Spec is the part of BENCHMARK.json the compare tool reads.
type Spec struct {
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one declared metric: its direction and, for end-to-end
// metrics, the share of the parent's median by which it may worsen.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &s, nil
}

// ReadResult parses a run's standard output: the result is its last
// non-empty line.
func ReadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var r Result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("bench: %s: last line is not a result: %w", path, err)
	}
	return &r, nil
}

// Runs are one workload's paired runs: Parent[k] and Change[k] ran back
// to back, the side that went first alternating with k.
type Runs struct {
	Workload       string
	Parent, Change []*Result
}

// MinPairs is the fewest pairs a comparison accepts.
const MinPairs = 10

// LoadRuns reads DIR/<workload>/parent-<k>.out and change-<k>.out for
// k = 1, 2, ... until either file is missing.
func LoadRuns(dir, workload string) (*Runs, error) {
	r := &Runs{Workload: workload}
	for k := 1; ; k++ {
		p := filepath.Join(dir, workload, fmt.Sprintf("parent-%d.out", k))
		c := filepath.Join(dir, workload, fmt.Sprintf("change-%d.out", k))
		if _, err := os.Stat(p); err != nil {
			break
		}
		if _, err := os.Stat(c); err != nil {
			break
		}
		pr, err := ReadResult(p)
		if err != nil {
			return nil, err
		}
		cr, err := ReadResult(c)
		if err != nil {
			return nil, err
		}
		r.Parent = append(r.Parent, pr)
		r.Change = append(r.Change, cr)
	}
	if len(r.Parent) < MinPairs {
		return nil, fmt.Errorf("bench: %s has %d complete pairs in %s, need at least %d", workload, len(r.Parent), dir, MinPairs)
	}
	return r, nil
}

// Verdicts.
const (
	Improved     = "improved"
	Regressed    = "regressed"
	Unresolved   = "unresolved"
	NoRegression = "no regression"
	Unbounded    = "-" // a per-layer metric that did not improve
)

// Row is one workload × metric comparison.
type Row struct {
	Workload, Metric, Unit string
	Parent, Change         [3]float64 // first quartile, median, third quartile
	Wins, Pairs            int        // pairs the change won; ties count for neither side
	// Gap is how much worse the change's median is, as a share of the
	// parent's median (negative: better).
	Gap float64
	// Spread is the larger of the two sides' interquartile ranges as a
	// share of that side's median.
	Spread  float64
	Bound   float64 // zero for per-layer metrics
	Verdict string
}

// Compare judges every declared metric on one workload's runs:
//   - improved: the change wins at least nine pairs in ten and the
//     medians differ by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the spread exceeds the bound, unless every change run
//     beats every parent run;
//   - otherwise no regression.
//
// Per-layer metrics have no bound, so they are only ever improved or
// not ("-"). No metric improves when the change failed more operations
// than the parent.
func Compare(spec *Spec, runs *Runs) ([]Row, error) {
	pf, cf := runs.Failures()
	var rows []Row
	for _, group := range [][]SpecMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range group {
			row, ok, err := compareMetric(m, runs, cf <= pf)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func compareMetric(m SpecMetric, runs *Runs, gainsCount bool) (Row, bool, error) {
	sign := 1.0 // +1 when higher values are worse
	if m.Better == "higher" {
		sign = -1
	}
	var pv, cv []float64
	for k := range runs.Parent {
		p, pok := runs.Parent[k].Metrics[m.Name]
		c, cok := runs.Change[k].Metrics[m.Name]
		if !pok || !cok {
			return Row{}, false, nil // a traced metric in untraced runs, or vice versa
		}
		pv = append(pv, p.Value)
		cv = append(cv, c.Value)
	}
	row := Row{Workload: runs.Workload, Metric: m.Name, Unit: m.Unit, Pairs: len(pv), Bound: m.Bound}
	var err error
	if row.Parent[0], row.Parent[1], row.Parent[2], err = Quartiles(pv); err != nil {
		return Row{}, false, err
	}
	if row.Change[0], row.Change[1], row.Change[2], err = Quartiles(cv); err != nil {
		return Row{}, false, err
	}
	for k := range pv {
		if sign*(cv[k]-pv[k]) < 0 {
			row.Wins++
		}
	}
	pm, cm := row.Parent[1], row.Change[1]
	if pm != 0 {
		row.Gap = sign * (cm - pm) / math.Abs(pm)
	}
	row.Spread = math.Max(iqrShare(row.Parent), iqrShare(row.Change))
	better := sign*(cm-pm) < 0
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case gainsCount && better && 10*row.Wins >= 9*row.Pairs && math.Abs(cm-pm) > row.Parent[2]-row.Parent[0]:
		row.Verdict = Improved
	case m.Bound == 0:
		row.Verdict = Unbounded
	case row.Gap > m.Bound:
		row.Verdict = Regressed
	case row.Spread > m.Bound && !allBetter:
		row.Verdict = Unresolved
	default:
		row.Verdict = NoRegression
	}
	return row, true, nil
}

func iqrShare(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// Failures sums each side's failed operations.
func (r *Runs) Failures() (parent, change int) {
	for k := range r.Parent {
		parent += r.Parent[k].Failed
		change += r.Change[k].Failed
	}
	return parent, change
}

// WriteRows prints the comparison table. Every ratio names its base.
func WriteRows(w io.Writer, rows []Row) {
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Workload < rows[b].Workload })
	for _, r := range rows {
		bound := "no bound"
		if r.Bound > 0 {
			bound = fmt.Sprintf("bound %.0f%%", 100*r.Bound)
		}
		fmt.Fprintf(w, "%-10s %-30s parent %s  change %s  worse by %+.2f%% of parent median %.6g %s  spread %.2f%% of median (%s)  change won %d/%d pairs  %s\n",
			r.Workload, r.Metric, quart(r.Parent), quart(r.Change), 100*r.Gap, r.Parent[1], r.Unit, 100*r.Spread, bound, r.Wins, r.Pairs, strings.ToUpper(r.Verdict))
	}
}

func quart(q [3]float64) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2]) }
