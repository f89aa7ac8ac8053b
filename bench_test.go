// Package repro benchmarks regenerate every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// benchmark runs one experiment pipeline end to end and reports, through
// b.ReportMetric, the headline quantity of the corresponding artefact so
// that `go test -bench=.` doubles as the reproduction harness:
//
//	BenchmarkTableI           calibration + NNLS fit (ε table)
//	BenchmarkCrossValidation  §II-D holdout and 16-fold error
//	BenchmarkTableII          autotuning, model vs time oracle
//	BenchmarkTableIII         counter derivation (Table III semantics)
//	BenchmarkTableIV          FMM tree/list construction for F inputs
//	BenchmarkFigure4          FMM per-phase profile shape
//	BenchmarkFigure5          FMM predicted-vs-measured energy
//	BenchmarkFigure6          energy-by-type breakdown
//	BenchmarkFigure7          computation/data/constant split
//
// plus the DESIGN.md §6 ablations (dense vs FFT M2L, NNLS vs plain LS,
// PowerMon rate, and the Q sweep).
package repro

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/fmm"
	"dvfsroofline/internal/linalg"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/nnls"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// benchCfg keeps the benchmark harness deterministic.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 42, BenchTargetTime: 0.1}
}

// calibrated caches one calibration per benchmark binary run.
var calibrated *experiments.Calibration
var calibratedDev *tegra.Device

func getCalibration(b *testing.B) (*tegra.Device, *experiments.Calibration) {
	b.Helper()
	if calibrated == nil {
		calibratedDev = tegra.NewDevice()
		cal, err := experiments.Calibrate(context.Background(), calibratedDev, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		calibrated = cal
	}
	return calibratedDev, calibrated
}

// BenchmarkTableI regenerates Table I: the full 1856-sample calibration
// and NNLS fit. Reported metric: mean holdout error (%), the paper's
// first validation number.
func BenchmarkTableI(b *testing.B) {
	dev := tegra.NewDevice()
	var cal *experiments.Calibration
	var err error
	for i := 0; i < b.N; i++ {
		cal, err = experiments.Calibrate(context.Background(), dev, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(cal.TableI()) != 16 {
		b.Fatal("Table I must have 16 rows")
	}
	b.ReportMetric(cal.Holdout.Percent().Mean, "holdout-%err")
	b.ReportMetric(float64(cal.Model.DPpJ), "DP-pJ/V2")
}

// BenchmarkCalibrateParallel measures the full 1856-sample calibration
// campaign under the pipeline worker pool, serial vs fan-out. Both
// variants produce byte-identical samples (per-sample seeded meters),
// so the comparison is pure scheduling overhead vs speedup.
func BenchmarkCalibrateParallel(b *testing.B) {
	dev := tegra.NewDevice()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchCfg()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Calibrate(context.Background(), dev, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossValidation regenerates the §II-D numbers on a fixed
// sample set. Reported: 16-fold mean error (%).
func BenchmarkCrossValidation(b *testing.B) {
	_, cal := getCalibration(b)
	groups := make([]int, len(cal.Samples))
	per := len(cal.Samples) / 16
	for i := range groups {
		groups[i] = i / per
	}
	var res core.CVResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.CrossValidateGrouped(cal.Samples, groups)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Percent().Mean, "16fold-%err")
}

// BenchmarkTableII regenerates Table II. Reported: the time oracle's
// mean energy loss on the single-precision family (%) — the paper's
// headline 18.52%.
func BenchmarkTableII(b *testing.B) {
	dev, cal := getCalibration(b)
	var rows []core.TableIIRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Autotune(context.Background(), dev, cal.Model, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Oracle.LostPercent().Mean, "SP-oracle-loss-%")
	b.ReportMetric(float64(rows[0].Model.Mispredictions), "SP-model-misses")
}

// BenchmarkTableIII exercises the Table III counter semantics: emitting
// events for a profile and deriving the profile back.
func BenchmarkTableIII(b *testing.B) {
	p := counters.Profile{
		DPFMA: 1e9, DPAdd: 4e8, DPMul: 6e8, Int: 3e9,
		SharedWords: 2e9, L1Words: 1e8, L2Words: 4e8, DRAMWords: 3e8,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := counters.Derive(counters.Emit(p))
		if err != nil {
			b.Fatal(err)
		}
		if q.Int != p.Int {
			b.Fatal("round trip lost counts")
		}
	}
}

// BenchmarkTableIV builds the octree and interaction lists for a scaled
// Table IV input. Reported: leaves for the F7-shaped input.
func BenchmarkTableIV(b *testing.B) {
	pts := fmm.GeneratePoints(fmm.Uniform, 65536, 42)
	var tree *fmm.Tree
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err = fmm.BuildTree(pts, 128, 20)
		if err != nil {
			b.Fatal(err)
		}
		tree.BuildLists()
	}
	b.ReportMetric(float64(tree.NumLeaves()), "leaves")
}

// BenchmarkFigure4 counts a full FMM profile (scaled F8 input).
// Reported: the integer fraction of instructions (paper: ~0.60).
func BenchmarkFigure4(b *testing.B) {
	var run *experiments.FMMRun
	var err error
	for i := 0; i < b.N; i++ {
		run, err = experiments.RunFMMInput(experiments.FMMInput{ID: "F8s", N: 16384, Q: 64}, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(run.TotalProfile().IntegerFraction(), "int-frac")
	b.ReportMetric(run.TotalProfile().DRAMFraction(), "dram-frac")
}

// BenchmarkFigure5 runs one full predicted-vs-measured validation case.
// Reported: the relative error (paper mean: 6.17%).
func BenchmarkFigure5(b *testing.B) {
	dev, cal := getCalibration(b)
	run, err := experiments.RunFMMInput(experiments.FMMInput{ID: "F8s", N: 16384, Q: 64}, benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	meter := powermon.MustMeter(powermon.DefaultConfig(), 5)
	var c experiments.FMMCase
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err = experiments.RunFMMCase(dev, meter, cal.Model, run, "S1", dvfs.MaxSetting())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.RelErr*100, "rel-%err")
}

// BenchmarkFigure6 computes the energy-by-type breakdown. Reported: the
// integer share of computation energy (paper: ~23%).
func BenchmarkFigure6(b *testing.B) {
	dev, cal := getCalibration(b)
	run, err := experiments.RunFMMInput(experiments.FMMInput{ID: "F8s", N: 16384, Q: 64}, benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	s := dvfs.MaxSetting()
	var parts core.Parts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := run.Schedule(dev, s)
		parts = cal.Model.PredictParts(run.TotalProfile(), s, sched.Duration())
	}
	b.ReportMetric(100*float64(parts.Int)/float64(parts.Compute()), "int-%of-compute-E")
	b.ReportMetric(100*float64(parts.DRAM)/float64(parts.Data()), "dram-%of-data-E")
}

// BenchmarkFigure7 computes the computation/data/constant split for the
// FMM and the microbenchmark comparison point. Reported: the constant
// share for both (paper: 0.75–0.95 vs ~0.30).
func BenchmarkFigure7(b *testing.B) {
	dev, cal := getCalibration(b)
	run, err := experiments.RunFMMInput(experiments.FMMInput{ID: "F8s", N: 16384, Q: 64}, benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	meter := powermon.MustMeter(powermon.DefaultConfig(), 7)
	var cf, mb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunFMMCase(dev, meter, cal.Model, run, "S1", dvfs.MaxSetting())
		if err != nil {
			b.Fatal(err)
		}
		cf = c.ConstantFraction()
		mb = experiments.MicrobenchConstantFraction(dev, cal.Model, dvfs.MaxSetting())
	}
	b.ReportMetric(cf, "fmm-const-frac")
	b.ReportMetric(mb, "microbench-const-frac")
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkM2LDense and BenchmarkM2LFFT compare the two V-list
// translation schemes on the same problem.
func BenchmarkM2LDense(b *testing.B) {
	benchM2L(b, false)
}

func BenchmarkM2LFFT(b *testing.B) {
	benchM2L(b, true)
}

func benchM2L(b *testing.B, useFFT bool) {
	pts := fmm.GeneratePoints(fmm.Uniform, 16384, 42)
	dens := fmm.GenerateDensities(16384, 43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fmm.Evaluate(pts, dens, fmm.Options{Q: 64, UseFFTM2L: useFFT}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNLSvsLS shows why the paper fits with NNLS: under noise an
// unconstrained least-squares fit of Eq. 9 produces negative (unphysical)
// energy coefficients. Reported: negative coefficients under plain LS.
func BenchmarkNNLSvsLS(b *testing.B) {
	_, cal := getCalibration(b)
	// Build the design matrix once from the calibration samples.
	rows := len(cal.Samples)
	a := linalg.NewMatrix(rows, 9)
	y := make([]units.Joule, rows)
	for i, s := range cal.Samples {
		vp := float64(s.Setting.Core.Volts())
		vm := float64(s.Setting.Mem.Volts())
		p := s.Profile
		r := a.Row(i)
		r[0] = p.SP * vp * vp * 1e-12
		r[1] = (p.DPFMA + p.DPAdd + p.DPMul) * vp * vp * 1e-12
		r[2] = p.Int * vp * vp * 1e-12
		r[3] = (p.SharedWords + p.L1Words) * vp * vp * 1e-12
		r[4] = p.L2Words * vp * vp * 1e-12
		r[5] = p.DRAMWords * vm * vm * 1e-12
		r[6] = vp * float64(s.Time)
		r[7] = vm * float64(s.Time)
		r[8] = float64(s.Time)
		y[i] = s.Energy
	}
	yRaw := make([]float64, rows)
	for i := range y {
		yRaw[i] = float64(y[i])
	}
	var negLS, negNNLS int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := linalg.SolveLS(a, yRaw)
		if err != nil {
			b.Fatal(err)
		}
		nn, err := nnls.Solve(a, y, 0)
		if err != nil {
			b.Fatal(err)
		}
		negLS, negNNLS = 0, 0
		for j := range ls {
			if ls[j] < 0 {
				negLS++
			}
			if nn.X[j] < 0 {
				negNNLS++
			}
		}
	}
	b.ReportMetric(float64(negLS), "LS-negative-coeffs")
	b.ReportMetric(float64(negNNLS), "NNLS-negative-coeffs")
}

// BenchmarkPowermonRate quantifies energy-integration error versus the
// meter's sampling rate (ablation of the 1024 Hz design point).
func BenchmarkPowermonRate(b *testing.B) {
	dev := tegra.NewDevice()
	w := tegra.Workload{Profile: counters.Profile{SP: 2e10, DRAMWords: 2e8}, Occupancy: 0.9}
	exec := dev.Execute(w, dvfs.MaxSetting())
	for _, rate := range []units.Hertz{32, 128, 1024} {
		rate := rate
		b.Run(benchName(rate), func(b *testing.B) {
			m := powermon.MustMeter(powermon.Config{SampleRate: rate}, 11)
			var rel float64
			for i := 0; i < b.N; i++ {
				meas, err := m.Measure(exec.PowerAt, exec.Time)
				if err != nil {
					b.Fatal(err)
				}
				rel = float64((meas.Energy - exec.TrueEnergy()) / exec.TrueEnergy())
				if rel < 0 {
					rel = -rel
				}
			}
			b.ReportMetric(rel*100, "integration-%err")
		})
	}
}

func benchName(rate units.Hertz) string {
	switch rate {
	case 32:
		return "32Hz"
	case 128:
		return "128Hz"
	default:
		return "1024Hz"
	}
}

// BenchmarkQSweep regenerates the paper's §III-B claim: the Q parameter
// shifts work between the compute-bound U phase and the bandwidth-bound
// V phase. Reported per Q: the U-phase share of instructions.
func BenchmarkQSweep(b *testing.B) {
	pts := fmm.GeneratePoints(fmm.Uniform, 32768, 42)
	dens := fmm.GenerateDensities(32768, 43)
	for _, q := range []int{32, 128, 512} {
		q := q
		b.Run(benchQ(q), func(b *testing.B) {
			var res *fmm.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = fmm.Evaluate(pts, dens, fmm.Options{Q: q, UseFFTM2L: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			uShare := res.Profiles[fmm.PhaseU].Instructions() /
				res.Profiles.Total().Instructions()
			b.ReportMetric(uShare, "U-instr-share")
		})
	}
}

func benchQ(q int) string {
	switch q {
	case 32:
		return "Q32"
	case 128:
		return "Q128"
	default:
		return "Q512"
	}
}

// BenchmarkMicrobenchSuite measures the raw cost of one full suite pass
// at a single setting — the unit of the calibration campaign.
func BenchmarkMicrobenchSuite(b *testing.B) {
	dev := tegra.NewDevice()
	r := &microbench.Runner{
		Device:     dev,
		Seed:       1,
		TargetTime: 0.1,
	}
	suite := microbench.Suite()
	settings := []dvfs.Setting{dvfs.MaxSetting()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunSuite(suite, settings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoofline evaluates the energy-roofline curves (refs [2,3]).
func BenchmarkRoofline(b *testing.B) {
	_, cal := getCalibration(b)
	s := dvfs.MaxSetting()
	mach := core.MachineFor(tegra.DPPerCycle, tegra.DRAMWordsPerCycle, s)
	intensities := make([]units.OpsPerWord, 64)
	x := units.OpsPerWord(0.0625)
	for i := range intensities {
		intensities[i] = x
		x *= 1.2
	}
	b.ResetTimer()
	var pts []core.RooflinePoint
	for i := 0; i < b.N; i++ {
		pts = cal.Model.Roofline(core.ClassDP, mach, s, intensities)
	}
	b.ReportMetric(float64(pts[len(pts)-1].OpsPerJoule)/1e9, "peak-Gops/J")
}

// BenchmarkFleetPredict measures the cost of one fleet predict request
// end to end — HTTP routing, consistent-hash device selection, model
// evaluation and JSON encoding — as the fleet grows from the degenerate
// single device to 16 heterogeneous devices. Each device gets its own
// synthetic calibration at build time (outside the timed loop); the
// request mix rotates across distinct workloads so the hash ring
// actually spreads traffic.
func BenchmarkFleetPredict(b *testing.B) {
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(
			`{"profile": {"dp_fma": %g, "int": 5e8, "dram_words": 2e8}, "setting_id": "S1", "time_s": 0.5}`,
			1e9+1e8*float64(i)))
	}
	for _, devices := range []int{1, 4, 16} {
		devices := devices
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			fc := fleet.FleetConfig{Seed: 42}
			for i := 0; i < devices; i++ {
				fc.Devices = append(fc.Devices, fleet.Spec{
					ID: fmt.Sprintf("dev-%02d", i),
					Params: fleet.ParamsJSON{
						SPpJ:  units.PicoJoulePerOpPerVoltSq(27.33 + 0.5*float64(i)),
						MiscW: units.Watt(0.15 + 0.01*float64(i)),
					},
				})
			}
			reg, err := fleet.Build(fc, benchCfg(), nil, fleet.NodeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			h := serve.NewFleet(reg, serve.Options{}).Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/fleet/predict", bytes.NewReader(bodies[i%len(bodies)]))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("fleet predict = %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}

// BenchmarkFleetMembershipChurn measures fleet predict throughput while
// the membership churns underneath it: a background churner adds a
// calibrated device and drains it back out, over and over, forcing an
// epoch swap (ring rebuild + snapshot publish) per lap. The reported
// ns/op is the predict path's cost under that churn — the immutable-view
// design means readers never block on the membership lock, so this
// should stay within noise of BenchmarkFleetPredict at the same fleet
// size.
func BenchmarkFleetMembershipChurn(b *testing.B) {
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(
			`{"profile": {"dp_fma": %g, "int": 5e8, "dram_words": 2e8}, "setting_id": "S1", "time_s": 0.5}`,
			1e9+1e8*float64(i)))
	}
	fc := fleet.FleetConfig{Seed: 42}
	for i := 0; i < 4; i++ {
		fc.Devices = append(fc.Devices, fleet.Spec{
			ID: fmt.Sprintf("dev-%02d", i),
			Params: fleet.ParamsJSON{
				SPpJ:  units.PicoJoulePerOpPerVoltSq(27.33 + 0.5*float64(i)),
				MiscW: units.Watt(0.15 + 0.01*float64(i)),
			},
		})
	}
	reg, err := fleet.Build(fc, benchCfg(), nil, fleet.NodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	h := serve.NewFleet(reg, serve.Options{}).Handler()

	// The churner re-uses one calibration: building a node is cheap, the
	// campaign is not, and the epoch swap under test doesn't care.
	adm := fleet.Admin{FleetSeed: fleet.ResolveSeed(fc, benchCfg()), Base: benchCfg()}
	spec := fleet.Spec{ID: "churn-0"}
	cal, err := adm.Calibrate(spec)
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := adm.BuildNode(spec)
			if err != nil {
				b.Error(err)
				return
			}
			n.SetCalibration(cal)
			if err := reg.Add(n, fleet.StateActive); err != nil {
				b.Error(err)
				return
			}
			if _, err := reg.Drain(context.Background(), spec.ID); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/fleet/predict", bytes.NewReader(bodies[i%len(bodies)]))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		// Requests racing a drain may land 503 between the ring swap and
		// the next route; anything else is a bug.
		if w.Code != http.StatusOK && w.Code != http.StatusServiceUnavailable {
			b.Fatalf("fleet predict under churn = %d: %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}
