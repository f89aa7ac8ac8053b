package bench

import (
	"context"
	"path/filepath"
	"testing"
)

// smokeRun runs one workload at smoke size from the repository root.
func smokeRun(t *testing.T, workload string, trace bool) *Report {
	t.Helper()
	cfg := Config{Workload: workload, Seed: 7, Seconds: 0.3, Trace: trace, Root: "..", Sizes: smoke}
	if trace {
		cfg.SpansPath = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return rep
}

// TestSmokeReportsDeclaredMetrics runs every workload untraced and
// traced and checks each run against BENCHMARK.json: exactly the
// declared metrics with their declared units, every operation checked
// and correct, and the counts adding up.
func TestSmokeReportsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			rep := smokeRun(t, w, trace)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json declares %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s = %+v (present %v), want unit %q", w, trace, m.Name, got, ok, m.Unit)
				}
			}
			if rep.Attempted != rep.Succeeded+rep.Failed {
				t.Errorf("%s (trace %v): attempted %d != succeeded %d + failed %d", w, trace, rep.Attempted, rep.Succeeded, rep.Failed)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed\n%v", w, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Lines)
			}
		}
	}
}

// TestSmokeDigestsRepeat checks that two runs of one seed produce the
// same reference outputs, the property the recorded digests rely on.
func TestSmokeDigestsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range Workloads {
		a, b := smokeRun(t, w, false), smokeRun(t, w, false)
		if a.Digest == "" || a.Digest != b.Digest {
			t.Errorf("%s: digests %q and %q differ", w, a.Digest, b.Digest)
		}
	}
}

// TestDeclaredMetricsMatchSpec keeps the Go metric tables and
// BENCHMARK.json in step, names and units in order.
func TestDeclaredMetricsMatchSpec(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		code []MetricDef
		spec []SpecMetric
	}{{EndToEnd, spec.EndToEnd}, {PerLayer, spec.PerLayer}} {
		if len(c.code) != len(c.spec) {
			t.Errorf("code declares %d metrics, BENCHMARK.json %d", len(c.code), len(c.spec))
			continue
		}
		for i := range c.code {
			if c.code[i].Name != c.spec[i].Name || c.code[i].Unit != c.spec[i].Unit {
				t.Errorf("metric %d: code %+v, BENCHMARK.json %+v", i, c.code[i], c.spec[i])
			}
		}
	}
}
