package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/tegra"
)

// TestCalibrateParallelMatchesSerial is the pipeline's central
// determinism guarantee: because every sample's meter is seeded from the
// (seed, benchmark, setting) identity rather than from a shared stream,
// the worker count must not change a single bit of the campaign — not
// the samples, not the fitted constants, not the validation statistics.
func TestCalibrateParallelMatchesSerial(t *testing.T) {
	dev := tegra.NewDevice()
	serial := testConfig()
	serial.Workers = 1
	parallel := testConfig()
	parallel.Workers = 8

	c1, err := Calibrate(context.Background(), dev, serial)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := Calibrate(context.Background(), dev, parallel)
	if err != nil {
		t.Fatal(err)
	}

	if len(c1.Samples) != len(c8.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(c1.Samples), len(c8.Samples))
	}
	for i := range c1.Samples {
		if c1.Samples[i] != c8.Samples[i] {
			t.Fatalf("sample %d differs between 1 and 8 workers:\n %+v\n %+v",
				i, c1.Samples[i], c8.Samples[i])
		}
	}
	if *c1.Model != *c8.Model {
		t.Errorf("fitted models differ:\n %+v\n %+v", *c1.Model, *c8.Model)
	}
	if c1.Holdout.Summary != c8.Holdout.Summary {
		t.Errorf("holdout summaries differ: %+v vs %+v", c1.Holdout.Summary, c8.Holdout.Summary)
	}
	if c1.KFold.Summary != c8.KFold.Summary {
		t.Errorf("16-fold summaries differ: %+v vs %+v", c1.KFold.Summary, c8.KFold.Summary)
	}
	t1, t8 := c1.TableI(), c8.TableI()
	for i := range t1 {
		if t1[i] != t8[i] {
			t.Errorf("Table I row %d differs: %+v vs %+v", i, t1[i], t8[i])
		}
	}
}

// TestAutotuneWorkerInvariant checks the Table II sweep the same way:
// identical rows for 1 and 8 workers.
func TestAutotuneWorkerInvariant(t *testing.T) {
	dev, cal := calibrate(t)
	serial := testConfig()
	serial.Workers = 1
	parallel := testConfig()
	parallel.Workers = 8

	r1, err := Autotune(context.Background(), dev, cal.Model, serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Autotune(context.Background(), dev, cal.Model, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r8) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r8))
	}
	for i := range r1 {
		if r1[i] != r8[i] {
			t.Errorf("Table II row %d differs:\n %+v\n %+v", i, r1[i], r8[i])
		}
	}
}

// TestFigure5WorkerInvariant checks the validation sweep: every case
// owns a meter seeded from its grid position, so the 8 cases of a
// one-input sweep must be identical for any worker count.
func TestFigure5WorkerInvariant(t *testing.T) {
	dev, cal, run := smallRun(t)
	serial := testConfig()
	serial.Workers = 1
	parallel := testConfig()
	parallel.Workers = 8

	f1, err := Figure5(context.Background(), dev, cal.Model, []*FMMRun{run}, serial)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Figure5(context.Background(), dev, cal.Model, []*FMMRun{run}, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Cases) != len(f8.Cases) {
		t.Fatalf("case counts differ: %d vs %d", len(f1.Cases), len(f8.Cases))
	}
	for i := range f1.Cases {
		if f1.Cases[i] != f8.Cases[i] {
			t.Errorf("case %d differs between worker counts", i)
		}
	}
	if f1.Summary != f8.Summary {
		t.Errorf("summaries differ: %+v vs %+v", f1.Summary, f8.Summary)
	}
}

// TestCalibrateFromSamplesMatchesFresh: refitting from the recorded
// samples must reproduce the fresh calibration exactly — the property
// the cmd/* -cache flag depends on.
func TestCalibrateFromSamplesMatchesFresh(t *testing.T) {
	_, cal := calibrate(t)
	re, err := CalibrateFromSamples(cal.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if *re.Model != *cal.Model {
		t.Errorf("refit model differs:\n %+v\n %+v", *re.Model, *cal.Model)
	}
	if re.Holdout.Summary != cal.Holdout.Summary || re.KFold.Summary != cal.KFold.Summary {
		t.Error("refit validation statistics differ from the fresh calibration")
	}
	for i := range cal.TrainMask {
		if re.TrainMask[i] != cal.TrainMask[i] {
			t.Fatalf("train mask differs at %d", i)
		}
	}
}

func TestCalibrateFromSamplesRejectsBadInput(t *testing.T) {
	_, cal := calibrate(t)
	if _, err := CalibrateFromSamples(nil); err == nil {
		t.Error("empty sample set accepted")
	}
	if _, err := CalibrateFromSamples(cal.Samples[:17]); err == nil {
		t.Error("sample count not divisible by 16 accepted")
	}
	// Swapping two setting blocks breaks the setting-major invariant.
	swapped := append([]core.Sample(nil), cal.Samples...)
	per := len(swapped) / 16
	for i := 0; i < per; i++ {
		swapped[i], swapped[per+i] = swapped[per+i], swapped[i]
	}
	if _, err := CalibrateFromSamples(swapped); err == nil {
		t.Error("setting-order violation accepted")
	}
}

// TestCalibrateCancellation: a cancelled context must abort the campaign
// with the context's error.
func TestCalibrateCancellation(t *testing.T) {
	dev := tegra.NewDevice()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cfg := testConfig()
		cfg.Workers = workers
		if _, err := Calibrate(ctx, dev, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

// TestCalibrateProgress: OnProgress must report the calibration stage
// monotonically up to completion, under any worker count.
func TestCalibrateProgress(t *testing.T) {
	dev := tegra.NewDevice()
	for _, workers := range []int{1, 8} {
		var mu sync.Mutex
		var got []Progress
		cfg := testConfig()
		cfg.Workers = workers
		cfg.OnProgress = func(p Progress) {
			mu.Lock()
			got = append(got, p)
			mu.Unlock()
		}
		if _, err := Calibrate(context.Background(), dev, cfg); err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("workers=%d: no progress reported", workers)
		}
		for i, p := range got {
			if p.Stage != "calibrate" {
				t.Fatalf("workers=%d: unexpected stage %q", workers, p.Stage)
			}
			if p.Done != i+1 || p.Total != len(got) {
				t.Fatalf("workers=%d: progress %d = %+v, want Done=%d Total=%d",
					workers, i, p, i+1, len(got))
			}
		}
		if last := got[len(got)-1]; last.Done != last.Total {
			t.Errorf("workers=%d: final progress %+v incomplete", workers, last)
		}
	}
}

func TestScaleInputsClamp(t *testing.T) {
	inputs := []FMMInput{
		{ID: "A", N: 80000, Q: 100},
		{ID: "B", N: 1000, Q: 500}, // 1000/8 = 125 <= Q: must clamp to 2Q
	}
	scaled, clamped := ScaleInputs(inputs, 8)
	if scaled[0].N != 10000 {
		t.Errorf("A scaled to N=%d, want 10000", scaled[0].N)
	}
	if scaled[1].N != 1000 {
		t.Errorf("B clamped to N=%d, want 2Q=1000", scaled[1].N)
	}
	if len(clamped) != 1 || clamped[0] != "B" {
		t.Errorf("clamped IDs = %v, want [B]", clamped)
	}
	if inputs[1].N != 1000 || inputs[0].N != 80000 {
		t.Error("ScaleInputs mutated its input slice")
	}
	// Guard against a degenerate single-leaf octree: scaled N must stay
	// strictly above Q for every input.
	for _, in := range scaled {
		if in.N <= in.Q {
			t.Errorf("%s: scaled N=%d <= Q=%d (degenerate octree)", in.ID, in.N, in.Q)
		}
	}
}
