package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/tegra"
)

// soakPlan is the acceptance-criteria fault load: >=10% of samples hit a
// transient failure (disconnects + DVFS failures) and >=2% complete with
// spike-corrupted traces that only the outlier screen can catch.
func soakPlan() faults.Plan {
	return faults.Plan{
		Seed:            99,
		MeterDisconnect: 0.06,
		DVFSFailure:     0.05,
		MeterSpike:      0.025,
		MeterDropout:    0.02,
		Throttle:        0.01,
	}
}

func soakConfig(workers int) Config {
	cfg := testConfig()
	cfg.Workers = workers
	cfg.Faults = soakPlan()
	// Two attempts: enough to recover most transients while leaving the
	// unluckiest samples to exercise the quarantine path.
	cfg.Retry = faults.Retry{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	cfg.MinCoverage = 0.97
	return cfg
}

// tableIConstants flattens the recovered Table I (per-op energies and
// constant power at every calibration setting) into named values.
func tableIConstants(cal *Calibration) map[string]float64 {
	out := make(map[string]float64)
	for _, row := range cal.TableI() {
		key := fmt.Sprintf("%v/", row.Setting)
		out[key+"SP"] = float64(row.Eps.SP)
		out[key+"DP"] = float64(row.Eps.DP)
		out[key+"Int"] = float64(row.Eps.Int)
		out[key+"SM"] = float64(row.Eps.SM)
		out[key+"L2"] = float64(row.Eps.L2)
		out[key+"DRAM"] = float64(row.Eps.DRAM)
		out[key+"ConstW"] = float64(row.Eps.ConstPower)
	}
	return out
}

func TestCalibrateSurvivesHighFaultPlan(t *testing.T) {
	dev, clean := calibrate(t) // fault-free reference fit

	cal, err := Calibrate(context.Background(), dev, soakConfig(0))
	if err != nil {
		t.Fatalf("calibration died under the fault plan: %v", err)
	}
	cov := cal.Coverage
	if cov.Fraction() < 0.97 {
		t.Fatalf("coverage %.3f below the configured floor", cov.Fraction())
	}
	if cov.Retried == 0 {
		t.Error("no retries recorded; the plan should hit transient faults")
	}
	if len(cov.Quarantined) == 0 {
		t.Error("no quarantined samples; expected some to exhaust retries")
	}
	if cov.ScreenedOutliers == 0 {
		t.Error("outlier screen caught nothing; spikes should corrupt some fits")
	}
	t.Logf("coverage %.4f, %d retries, %d quarantined, %d screened",
		cov.Fraction(), cov.Retried, len(cov.Quarantined), cov.ScreenedOutliers)

	// Every recovered Table I constant within 5% of the fault-free fit.
	ref := tableIConstants(clean)
	for name, got := range tableIConstants(cal) {
		want := ref[name]
		if rel := math.Abs(got-want) / math.Abs(want); rel > 0.05 {
			t.Errorf("%s = %g vs fault-free %g (%.1f%% off, want <5%%)", name, got, want, 100*rel)
		}
	}
}

func TestFaultyCalibrationWorkerInvariant(t *testing.T) {
	dev := tegra.NewDevice()
	serial, err := Calibrate(context.Background(), dev, soakConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Calibrate(context.Background(), dev, soakConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Samples, par.Samples) {
		t.Error("samples differ between 1 and 4 workers under faults")
	}
	if *serial.Model != *par.Model {
		t.Errorf("fitted models differ: %+v vs %+v", *serial.Model, *par.Model)
	}
	if serial.Coverage.Retried != par.Coverage.Retried {
		t.Errorf("retry counts differ: %d vs %d", serial.Coverage.Retried, par.Coverage.Retried)
	}
	qIdx := func(c *Calibration) []int {
		out := make([]int, len(c.Coverage.Quarantined))
		for i, q := range c.Coverage.Quarantined {
			out[i] = q.Index
		}
		return out
	}
	if !reflect.DeepEqual(qIdx(serial), qIdx(par)) {
		t.Errorf("quarantine reports differ: %v vs %v", qIdx(serial), qIdx(par))
	}
}

func TestCalibrateFaultFreePlanUnchanged(t *testing.T) {
	// An inactive fault plan with retry machinery configured must yield
	// byte-identical results to the historical pipeline.
	dev, ref := calibrate(t)
	cfg := testConfig()
	cfg.Retry = faults.Retry{MaxAttempts: 4, Sleep: func(time.Duration) {}}
	cfg.MinCoverage = 0.5
	cal, err := Calibrate(context.Background(), dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Samples, cal.Samples) {
		t.Error("inactive fault plan changed the samples")
	}
	if *ref.Model != *cal.Model {
		t.Error("inactive fault plan changed the fit")
	}
	if !cal.Coverage.Complete() || cal.Coverage.Retried != 0 || cal.Coverage.ScreenedOutliers != 0 {
		t.Errorf("clean campaign reported fault activity: %+v", cal.Coverage)
	}
}

func TestCalibrateCoverageGate(t *testing.T) {
	dev := tegra.NewDevice()

	// Default MinCoverage (1.0) keeps the historical fail-fast contract.
	cfg := testConfig()
	cfg.Faults = faults.Plan{Seed: 1, MeterDisconnect: 1}
	cfg.Retry = faults.Retry{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	if _, err := Calibrate(context.Background(), dev, cfg); err == nil {
		t.Error("fail-fast mode completed despite guaranteed disconnects")
	}

	// With quarantining enabled but everything failing, the coverage gate
	// must refuse to fit and say why.
	cfg.MinCoverage = 0.5
	_, err := Calibrate(context.Background(), dev, cfg)
	if err == nil {
		t.Fatal("coverage gate passed a campaign with zero survivors")
	}
	if !strings.Contains(err.Error(), "coverage") {
		t.Errorf("gate error %q does not mention coverage", err)
	}
}

func TestCalibrateRejectsBadFaultPlan(t *testing.T) {
	dev := tegra.NewDevice()
	cfg := testConfig()
	cfg.Faults = faults.Plan{MeterDropout: 2}
	if _, err := Calibrate(context.Background(), dev, cfg); err == nil {
		t.Error("invalid fault plan accepted")
	}
	cfg = testConfig()
	cfg.MinCoverage = 1.5
	if _, err := Calibrate(context.Background(), dev, cfg); err == nil {
		t.Error("min coverage above 1 accepted")
	}
}

// TestMeasurementPathBits pins every bit that the fault-aware
// measurement path produces: faulted sweeps over the full DVFS grid,
// for a workload long enough to measure once and for one so short that
// every candidate repeats, and a faulted calibration campaign with its
// retry and quarantine counts. A change to the injector's gating, the
// throttled trace, the meter's seeding or retry reseed, or the
// repetition rule fails here. As with the FMM potentials, the pins hold
// on amd64, where the compiler never fuses a multiply and an add.
func TestMeasurementPathBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("measurement bits are pinned for amd64 only")
	}
	h := sha256.New()
	put := func(x float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	cfg := Config{
		Seed:   42,
		Faults: faults.Plan{Seed: 3, DVFSFailure: 0.3, MeterDisconnect: 0.2, MeterSpike: 0.3, MeterDropout: 0.1, Throttle: 0.5},
		Retry:  faults.Retry{MaxAttempts: 6, Sleep: func(time.Duration) {}},
	}
	short := tegra.Workload{
		Profile:   counters.Profile{DPFMA: 1e5, DRAMWords: 1e4, Int: 1e4},
		Occupancy: 0.9,
	}
	dev := tegra.NewDevice()
	for _, w := range []tegra.Workload{sweepWorkload(), short} {
		cands, err := SweepWorkload(context.Background(), dev, cfg, w, dvfs.Grid())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			put(float64(c.MeasuredEnergy))
			put(float64(c.Time))
		}
	}
	cal, err := Calibrate(context.Background(), dev, soakConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cal.Samples {
		put(float64(s.Energy))
		put(float64(s.Time))
	}
	const want = "7d2805af3948a14b204b62408c390180bea5d0a597ee09a55351d56082134fdc"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("measurement path digest %s, want %s", got, want)
	}
	if cov := cal.Coverage; cov.Retried != 205 || len(cov.Quarantined) != 10 {
		t.Errorf("calibration spent %d retries and quarantined %d samples, want 205 and 10", cov.Retried, len(cov.Quarantined))
	}
}
