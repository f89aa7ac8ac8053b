package bench

import (
	"testing"
)

// pairs builds runs of one metric from parent and change values.
func pairs(parent, change []float64) *Runs {
	r := &Runs{Workload: "w"}
	for k := range parent {
		r.Parent = append(r.Parent, &Result{Metrics: map[string]Metric{"m": {Value: parent[k]}}})
		r.Change = append(r.Change, &Result{Metrics: map[string]Metric{"m": {Value: change[k]}}})
	}
	return r
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 130, 80, 110, 95, 125, 70, 105, 90, 115}
	lower := SpecMetric{Name: "m", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		name   string
		m      SpecMetric
		parent []float64
		change []float64
		want   string
	}{
		{"10% faster on every pair", lower, steady, scaled(steady, 0.9), Improved},
		{"within noise", lower, steady, scaled(steady, 1.02), NoRegression},
		{"20% slower", lower, steady, scaled(steady, 1.2), Regressed},
		{"spread wider than the bound", lower, noisy, scaled(noisy, 1.05), Unresolved},
		{"noisy but every change run beats every parent run", lower,
			noisy, scaled([]float64{60, 61, 62, 63, 64, 65, 66, 67, 68, 69}, 1), Improved},
		{"higher is better", SpecMetric{Name: "m", Better: "higher", Bound: 0.1}, steady, scaled(steady, 0.8), Regressed},
		{"per-layer metric without a bound", SpecMetric{Name: "m", Better: "lower"}, steady, scaled(steady, 1.5), Unbounded},
	} {
		rows, err := Compare(&Spec{EndToEnd: []SpecMetric{c.m}}, pairs(c.parent, c.change))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != 1 || rows[0].Verdict != c.want {
			t.Errorf("%s: verdict %+v, want %s", c.name, rows, c.want)
		}
	}
}

func TestCompareWinsAndGap(t *testing.T) {
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	change := []float64{90, 90, 90, 90, 90, 90, 90, 90, 100, 110} // 8 wins, one tie, one loss
	rows, err := Compare(&Spec{EndToEnd: []SpecMetric{{Name: "m", Better: "lower", Bound: 0.25}}}, pairs(parent, change))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Wins != 8 || r.Pairs != 10 || r.Gap != -0.1 || r.Verdict != NoRegression {
		t.Errorf("row = %+v; want 8 of 10 wins, gap -0.1, no regression (8 wins are too few to claim a gain)", r)
	}
}

func TestCompareGainNeedsNoExtraFailures(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	runs := pairs(steady, scaled(steady, 0.8))
	runs.Change[3].Failed = 1
	rows, err := Compare(&Spec{EndToEnd: []SpecMetric{{Name: "m", Better: "lower", Bound: 0.1}}}, runs)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Verdict == Improved {
		t.Errorf("a change that failed more operations was judged improved: %+v", rows[0])
	}
}
