package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

func sweepWorkload() tegra.Workload {
	return tegra.Workload{
		Profile: counters.Profile{
			DPFMA:     2e8,
			Int:       1e8,
			DRAMWords: 5e7,
		},
		Occupancy: 0.9,
	}
}

func sweepGrid() []dvfs.Setting {
	cs := dvfs.CalibrationSettings()
	grid := make([]dvfs.Setting, len(cs))
	for i, c := range cs {
		grid[i] = c.Setting
	}
	return grid
}

func TestSweepWorkloadCoversGrid(t *testing.T) {
	dev := tegra.NewDevice()
	grid := sweepGrid()
	cands, err := SweepWorkload(context.Background(), dev, Config{Seed: 42}, sweepWorkload(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(grid) {
		t.Fatalf("got %d candidates, want %d", len(cands), len(grid))
	}
	for i, c := range cands {
		if c.Setting != grid[i] {
			t.Errorf("candidate %d at %v, want %v", i, c.Setting, grid[i])
		}
		if c.Time <= 0 || c.MeasuredEnergy <= 0 {
			t.Errorf("candidate %d has non-positive time %g or energy %g", i, c.Time, c.MeasuredEnergy)
		}
	}
}

func TestSweepWorkloadWorkerCountInvariant(t *testing.T) {
	dev := tegra.NewDevice()
	grid := sweepGrid()
	serial, err := SweepWorkload(context.Background(), dev, Config{Seed: 42, Workers: 1}, sweepWorkload(), grid)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepWorkload(context.Background(), dev, Config{Seed: 42, Workers: 8}, sweepWorkload(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("candidate %d differs across worker counts: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

func TestSweepWorkloadHonorsCancellation(t *testing.T) {
	dev := tegra.NewDevice()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepWorkload(ctx, dev, Config{Seed: 42}, sweepWorkload(), sweepGrid())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSweepWorkloadRejectsBadInput(t *testing.T) {
	dev := tegra.NewDevice()
	if _, err := SweepWorkload(context.Background(), dev, Config{Seed: 42}, sweepWorkload(), nil); err == nil {
		t.Error("empty grid accepted")
	}
	bad := tegra.Workload{Occupancy: 0.9} // empty profile
	if _, err := SweepWorkload(context.Background(), dev, Config{Seed: 42}, bad, sweepGrid()); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestSweepRejectsNaNConfig covers the three NaN inputs that used to
// reach the meter unchecked and come back as NaN energies with a nil
// error: a fault plan's throttle factor, the meter's noise sigma and the
// workload's occupancy.
func TestSweepRejectsNaNConfig(t *testing.T) {
	dev := tegra.NewDevice()
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		cfg  Config
		w    tegra.Workload
		want string
	}{
		{"plan", Config{Seed: 42, Faults: faults.Plan{Seed: 1, Throttle: 1, ThrottleFactor: nan}}, sweepWorkload(),
			"experiments: faults: throttle factor NaN outside [0, 1]"},
		{"meter", Config{Seed: 42, Meter: powermon.Config{SampleRate: 1024, NoiseSigma: units.Watt(nan)}}, sweepWorkload(),
			"experiments: powermon: negative noise parameter in"},
		{"occupancy", Config{Seed: 42}, tegra.Workload{Profile: sweepWorkload().Profile, Occupancy: units.Ratio(nan)},
			"experiments: sweep workload: tegra: occupancy NaN outside (0, 1]"},
	} {
		cands, err := SweepWorkload(context.Background(), dev, tc.cfg, tc.w, sweepGrid())
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: SweepWorkload = %d candidates, error %v; want an error starting %q", tc.name, len(cands), err, tc.want)
		}
	}
	// In a fleet sweep the bad config fails its own target only.
	targets := []SweepTarget{
		{Dev: dev, Cfg: Config{Seed: 42, Faults: faults.Plan{Seed: 1, Throttle: 1, ThrottleFactor: nan}}, Grid: sweepGrid()},
		{Dev: dev, Cfg: Config{Seed: 42}, Grid: sweepGrid()},
	}
	out, err := SweepTargets(context.Background(), Config{Workers: 2}, sweepWorkload(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if want := "experiments: target 0: faults: throttle factor NaN outside [0, 1]"; out[0].Err == nil || out[0].Err.Error() != want {
		t.Errorf("target 0 error = %v, want %q", out[0].Err, want)
	}
	if out[1].Err != nil || len(out[1].Candidates) != len(sweepGrid()) {
		t.Errorf("target 1 = %d candidates, error %v; want the full grid", len(out[1].Candidates), out[1].Err)
	}
}

// TestSweepWorkloadShortRunRepetition drives the sweep with a workload
// far too short for a single measurement window; the repetition path
// must still land near the device's closed-form energy.
func TestSweepWorkloadShortRunRepetition(t *testing.T) {
	dev := tegra.NewDevice()
	w := tegra.Workload{
		Profile:   counters.Profile{DPFMA: 1e5, DRAMWords: 1e4, Int: 1e4},
		Occupancy: 0.9,
	}
	s := dvfs.MaxSetting()
	cands, err := SweepWorkload(context.Background(), dev, Config{Seed: 42}, w, []dvfs.Setting{s})
	if err != nil {
		t.Fatal(err)
	}
	exec := dev.Execute(w, s)
	truth := exec.TrueEnergy()
	rel := (cands[0].MeasuredEnergy - truth) / truth
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.12 {
		t.Errorf("repeated short run measured %g J vs true %g J (rel %g)", cands[0].MeasuredEnergy, truth, rel)
	}
}

// TestSweepErrorIndependentOfWorkers pins the error a failing fan-out
// returns: the lowest-index unit's failure, the one a serial loop
// reports, at every worker count and GOMAXPROCS. The fault plan fails
// about half the measurements and forbids retries, so several units
// fail in one run and a first-in-time error would vary between runs.
func TestSweepErrorIndependentOfWorkers(t *testing.T) {
	dev, cal := calibrate(t)
	cfg := Config{
		Seed:   42,
		Faults: faults.Plan{Seed: 1, MeterDisconnect: 0.5},
		Retry:  faults.Retry{MaxAttempts: 1},
	}
	tests := []struct {
		name string
		run  func(cfg Config) error
		want string
	}{
		{
			name: "SweepWorkload",
			run: func(cfg Config) error {
				_, err := SweepWorkload(context.Background(), dev, cfg, sweepWorkload(), sweepGrid())
				return err
			},
			want: "experiments: sweep at core=852MHz@1030mV mem=924MHz@1010mV: powermon: transient: power meter disconnected",
		},
		{
			name: "Autotune",
			run: func(cfg Config) error {
				_, err := Autotune(context.Background(), dev, cal.Model, cfg)
				return err
			},
			want: "microbench: measuring {Single 0.25} at core=852MHz@1030mV mem=924MHz@1010mV: powermon: transient: power meter disconnected",
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range tests {
		for _, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 8} {
				cfg := cfg
				cfg.Workers = workers
				for run := 0; run < 200; run++ {
					err := tc.run(cfg)
					if err == nil || err.Error() != tc.want {
						t.Fatalf("%s at GOMAXPROCS %d, %d workers, run %d: err = %v, want %q",
							tc.name, procs, workers, run, err, tc.want)
					}
				}
			}
		}
	}
}

// BenchmarkSweepWorkload is one whole autotune sweep: the 16-setting
// calibration grid that calibration-grid autotunes run and the
// 105-setting full grid, at one worker, plus the calibration grid on a
// two-worker pool. Each pool worker is an allocation of its own, so the
// workers=2 case is gated under -cpu 2 to keep its allocs/op fixed.
func BenchmarkSweepWorkload(b *testing.B) {
	dev := tegra.NewDevice()
	run := func(name string, workers int, grid []dvfs.Setting) {
		cfg := Config{Seed: 7, Workers: workers}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cands, err := SweepWorkload(context.Background(), dev, cfg, sweepWorkload(), grid)
				if err != nil {
					b.Fatal(err)
				}
				candidateSink = cands
			}
		})
	}
	for _, grid := range [][]dvfs.Setting{sweepGrid(), dvfs.Grid()} {
		run(fmt.Sprintf("settings=%d", len(grid)), 1, grid)
	}
	run("workers=2", 2, sweepGrid())
}

// BenchmarkSweepTargets is one fleet placement sweep: three devices on
// the 16-setting calibration grid through SweepTargets' shared pool, the
// reference TK1 and two custom variants of its parameters, each with its
// own seed. It runs at one worker and on a two-worker pool; as with
// BenchmarkSweepWorkload, the workers=2 case is gated under -cpu 2.
func BenchmarkSweepTargets(b *testing.B) {
	hot := tegra.TK1Params()
	hot.DRAMpJ, hot.LeakProcWpV, hot.ThermalSlope = 401, 3.55, 0.09
	low := tegra.TK1Params()
	low.SPpJ, low.IntpJ, low.MiscW = 22.1, 48, 0.11
	targets := []SweepTarget{{Dev: tegra.NewDevice(), Cfg: Config{Seed: 7}, Grid: sweepGrid()}}
	for i, p := range []tegra.DeviceParams{hot, low} {
		dev, err := tegra.NewCustomDevice(p)
		if err != nil {
			b.Fatal(err)
		}
		targets = append(targets, SweepTarget{Dev: dev, Cfg: Config{Seed: int64(8 + i)}, Grid: sweepGrid()})
	}
	for _, workers := range []int{1, 2} {
		pool := Config{Workers: workers}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := SweepTargets(context.Background(), pool, sweepWorkload(), targets)
				if err != nil {
					b.Fatal(err)
				}
				for _, ts := range out {
					if ts.Err != nil {
						b.Fatal(ts.Err)
					}
				}
				candidateSink = out[0].Candidates
			}
		})
	}
}

// candidateSink keeps the sweep benchmarks' results observable to the
// compiler.
var candidateSink []core.Candidate
