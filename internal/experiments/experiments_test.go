package experiments

import (
	"context"
	"math"
	"runtime"
	"testing"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/fmm"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// testConfig keeps experiment tests fast while exercising the full paths.
func testConfig() Config {
	return Config{Seed: 2024, BenchTargetTime: 0.1}
}

// testMeter builds a meter from the config, failing the test on error.
func testMeter(t *testing.T, cfg Config, offset int64) *powermon.Meter {
	t.Helper()
	m, err := cfg.NewMeter(cfg.Seed + offset)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func calibrate(t *testing.T) (*tegra.Device, *Calibration) {
	t.Helper()
	dev := tegra.NewDevice()
	cal, err := Calibrate(context.Background(), dev, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return dev, cal
}

func TestCalibrationSampleCount(t *testing.T) {
	_, cal := calibrate(t)
	// §II-C: "a total of 1856 sample measurements".
	if len(cal.Samples) != 1856 {
		t.Fatalf("got %d samples, paper says 1856", len(cal.Samples))
	}
	var train int
	for _, m := range cal.TrainMask {
		if m {
			train++
		}
	}
	if train != 928 {
		t.Errorf("got %d training samples, want 928 (8 T settings)", train)
	}
}

// TestRunMatchesCalibrateSamples keeps microbench.Runner.Run, the
// benchmark ladder's single-sample rung, on the pipeline's measurement
// path: a runner seeded like Calibrate's (cfg.Seed+1) must reproduce
// Calibrate's sample bits for any (benchmark, setting) pair.
func TestRunMatchesCalibrateSamples(t *testing.T) {
	dev, cal := calibrate(t)
	cfg := testConfig()
	runner := &microbench.Runner{
		Device:      dev,
		MeterConfig: cfg.Meter,
		Seed:        cfg.Seed + 1,
		TargetTime:  cfg.BenchTargetTime,
		Faults:      cfg.Faults,
	}
	cs := dvfs.CalibrationSettings()
	benches := microbench.Suite()
	for _, p := range []struct{ setting, bench int }{{0, 0}, {3, 40}, {9, 77}, {15, 115}} {
		b, s := benches[p.bench], cs[p.setting].Setting
		smp, err := runner.Run(b, s)
		if err != nil {
			t.Fatal(err)
		}
		want := cal.Samples[p.setting*len(benches)+p.bench]
		if smp.Setting != want.Setting || smp.Workload.Profile != want.Profile ||
			math.Float64bits(float64(smp.Time)) != math.Float64bits(float64(want.Time)) ||
			math.Float64bits(float64(smp.Energy)) != math.Float64bits(float64(want.Energy)) {
			t.Errorf("Run(%v, %v) = %+v, Calibrate measured %+v", b, s, smp, want)
		}
	}
}

func TestCalibrationErrorBands(t *testing.T) {
	_, cal := calibrate(t)
	// §II-D: holdout mean 2.87% (max 11.94%), 16-fold mean 6.56%
	// (max 15.22%). Our simulated non-idealities land in the same
	// few-percent regime; accept [1, 6]% means and <20% maxima.
	h := cal.Holdout.Percent()
	if h.Mean < 1 || h.Mean > 6 {
		t.Errorf("holdout mean %.2f%%, want the paper's ~2.9%% regime", h.Mean)
	}
	if h.Max > 20 {
		t.Errorf("holdout max %.2f%% too large", h.Max)
	}
	k := cal.KFold.Percent()
	if k.Mean < 1 || k.Mean > 10 {
		t.Errorf("16-fold mean %.2f%%, want the paper's ~6.6%% regime", k.Mean)
	}
	if k.Max > 25 {
		t.Errorf("16-fold max %.2f%% too large", k.Max)
	}
	if k.N != 1856 {
		t.Errorf("16-fold evaluated %d samples, want all 1856", k.N)
	}
}

func TestTableIReproducesPaperValues(t *testing.T) {
	_, cal := calibrate(t)
	rows := cal.TableI()
	if len(rows) != 16 {
		t.Fatalf("Table I has %d rows, want 16", len(rows))
	}
	// Compare the fitted first row (852/924) against the paper's printed
	// values. The fit sees measurement noise and the device's
	// non-idealities; cache-traffic coefficients absorb the cache
	// kernels' occupancy-activity effect and drift the most, so they get
	// a wider band.
	paper := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"SP", float64(rows[0].Eps.SP), 29.0, 0.15},
		{"DP", float64(rows[0].Eps.DP), 139.1, 0.15},
		{"Int", float64(rows[0].Eps.Int), 60.0, 0.15},
		{"SM", float64(rows[0].Eps.SM), 35.4, 0.25},
		{"L2", float64(rows[0].Eps.L2), 90.2, 0.25},
		{"DRAM", float64(rows[0].Eps.DRAM), 377.0, 0.15},
		{"pi0", float64(rows[0].Eps.ConstPower), 6.8, 0.15},
	}
	for _, p := range paper {
		if rel := math.Abs(p.got-p.want) / p.want; rel > p.tol {
			t.Errorf("fitted %s = %.1f, paper prints %.1f (rel %.3f)", p.name, p.got, p.want, rel)
		}
	}
	// Structural invariants across all rows: ε ratios follow the class
	// ordering and every row scales as V² of the right domain.
	for _, r := range rows {
		e := r.Eps
		if !(e.DP > e.Int && e.Int > e.SM && e.DRAM > e.L2 && e.L2 > e.SM && e.SM > 0) {
			t.Errorf("row %v: per-op energies out of order: %+v", r.Setting, e)
		}
	}
	// Same core voltage ⇒ same on-chip ε regardless of memory setting.
	if math.Abs(float64(rows[0].Eps.SP-rows[2].Eps.SP)) > 1e-9 {
		t.Error("SP energy depends on memory setting")
	}
}

func TestAutotuneTableIIShape(t *testing.T) {
	dev, cal := calibrate(t)
	rows, err := Autotune(context.Background(), dev, cal.Model, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table II has %d families, want 5", len(rows))
	}
	wantCases := map[string]int{
		"Single": 25, "Double": 36, "Integer": 23, "Shared memory": 10, "L2": 9,
	}
	for _, r := range rows {
		if r.Model.Cases != wantCases[r.Family] {
			t.Errorf("%s: %d cases, want %d", r.Family, r.Model.Cases, wantCases[r.Family])
		}
		// The paper's headline: the model beats the race-to-halt oracle.
		if r.Model.Mispredictions > r.Oracle.Mispredictions {
			t.Errorf("%s: model mispredicts more (%d) than the oracle (%d)",
				r.Family, r.Model.Mispredictions, r.Oracle.Mispredictions)
		}
		if r.Oracle.Mispredictions > 0 && r.Model.Lost.N > 0 &&
			r.Model.Lost.Mean > r.Oracle.Lost.Mean {
			t.Errorf("%s: model loses more energy (%.3f) than the oracle (%.3f)",
				r.Family, r.Model.Lost.Mean, r.Oracle.Lost.Mean)
		}
		// Model losses stay small (paper: ≤3.31% means).
		if r.Model.Lost.N > 0 && r.Model.Lost.Mean > 0.08 {
			t.Errorf("%s: model mean loss %.1f%% too large", r.Family, r.Model.Lost.Mean*100)
		}
	}
	// Single precision: oracle must mispredict in the vast majority of
	// cases (paper: 20 of 25) with double-digit percent losses.
	single := rows[0]
	if single.Oracle.Mispredictions < 15 {
		t.Errorf("Single oracle mispredictions = %d, paper regime is ~20/25", single.Oracle.Mispredictions)
	}
	if single.Oracle.Lost.N > 0 && single.Oracle.Lost.Mean < 0.05 {
		t.Errorf("Single oracle mean loss %.1f%%, paper says 18.52%%", single.Oracle.Lost.Mean*100)
	}
}

func TestFMMInputsMatchTableIV(t *testing.T) {
	ins := FMMInputs()
	want := []FMMInput{
		{ID: "F1", N: 262144, Q: 128}, {ID: "F2", N: 131072, Q: 64},
		{ID: "F3", N: 131072, Q: 256}, {ID: "F4", N: 131072, Q: 512},
		{ID: "F5", N: 65536, Q: 1024}, {ID: "F6", N: 65536, Q: 512},
		{ID: "F7", N: 65536, Q: 128}, {ID: "F8", N: 65536, Q: 64},
	}
	if len(ins) != len(want) {
		t.Fatalf("got %d inputs, want %d", len(ins), len(want))
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Errorf("input %d = %+v, Table IV says %+v", i, ins[i], want[i])
		}
	}
}

// smallRun builds a reduced FMM run for fast tests.
func smallRun(t *testing.T) (*tegra.Device, *Calibration, *FMMRun) {
	t.Helper()
	dev, cal := calibrate(t)
	run, err := RunFMMInput(FMMInput{ID: "T1", N: 16384, Q: 64}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return dev, cal, run
}

func TestFMMRunProfileShape(t *testing.T) {
	_, _, run := smallRun(t)
	tot := run.TotalProfile()
	// Figure 4 shape: integers ≈60% of computation instructions.
	if f := tot.IntegerFraction(); f < 0.45 || f < 0 || f > 0.75 {
		t.Errorf("integer fraction %.2f, paper says ~0.60", f)
	}
	// DRAM a small share of accesses (paper ~13%).
	if f := tot.DRAMFraction(); f <= 0 || f > 0.30 {
		t.Errorf("DRAM fraction %.3f, paper says ~0.13", f)
	}
	// Per-phase: U and V must dominate the work (§III-B).
	var instr [fmm.NumPhases]float64
	var sum float64
	for ph := fmm.Phase(0); ph < fmm.NumPhases; ph++ {
		instr[ph] = run.Result.Profiles[ph].Instructions()
		sum += instr[ph]
	}
	if (instr[fmm.PhaseU]+instr[fmm.PhaseV])/sum < 0.5 {
		t.Errorf("U+V phases are only %.2f of instructions; they should dominate",
			(instr[fmm.PhaseU]+instr[fmm.PhaseV])/sum)
	}
}

func TestFMMCaseValidation(t *testing.T) {
	dev, cal, run := smallRun(t)
	cfg := testConfig()
	meter := testMeter(t, cfg, 5)
	c, err := RunFMMCase(dev, meter, cal.Model, run, "S1", dvfs.MaxSetting())
	if err != nil {
		t.Fatal(err)
	}
	if c.RelErr > 0.20 {
		t.Errorf("FMM case error %.1f%%, paper max is 14.89%%", c.RelErr*100)
	}
	if c.MeasuredEnergy <= 0 || c.PredictedEnergy <= 0 || c.Time <= 0 {
		t.Errorf("degenerate case: %+v", c)
	}
	// Figure 7: constant power dominates the FMM's energy.
	if f := c.ConstantFraction(); f < 0.70 || f > 0.995 {
		t.Errorf("constant fraction %.2f, paper says 0.75–0.95", f)
	}
	// Prediction parts must be internally consistent.
	if math.Abs(float64(c.PredictedParts.Total()-c.PredictedEnergy)) > 1e-12*float64(c.PredictedEnergy) {
		t.Error("parts do not sum to the prediction")
	}
}

func TestFigure5SmallSweep(t *testing.T) {
	dev, cal, run := smallRun(t)
	f5, err := Figure5(context.Background(), dev, cal.Model, []*FMMRun{run}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Cases) != 8 {
		t.Fatalf("got %d cases, want 8 (1 input x 8 settings)", len(f5.Cases))
	}
	pct := f5.Summary.Mean * 100
	if pct > 12 {
		t.Errorf("mean validation error %.2f%%, paper regime is ~6.2%%", pct)
	}
	if f5.Summary.Max*100 > 25 {
		t.Errorf("max validation error %.2f%% too large", f5.Summary.Max*100)
	}
	// §IV-C observation: for the FMM, the most energy-efficient setting
	// is (near) the fastest one, because constant power dominates. Check
	// that the measured-minimum-energy setting is within 10% of the
	// fastest time.
	bestE, bestT := 0, 0
	for i, c := range f5.Cases {
		if c.MeasuredEnergy < f5.Cases[bestE].MeasuredEnergy {
			bestE = i
		}
		if c.Time < f5.Cases[bestT].Time {
			bestT = i
		}
	}
	if f5.Cases[bestE].Time > f5.Cases[bestT].Time*1.10 {
		t.Errorf("min-energy setting %s is %.0f%% slower than the fastest %s; paper says they coincide",
			f5.Cases[bestE].SettingID,
			100*(f5.Cases[bestE].Time/f5.Cases[bestT].Time-1),
			f5.Cases[bestT].SettingID)
	}
}

// TestFigure5CaseBits pins the bits of every Figure 5 case for one small
// input (F8 scaled down 8x): the measured time, the PowerMon-integrated
// energy and the Eq. 9 prediction. The model is the TK1's declared
// constants rather than a fit, so only the FMM's counted profiles, the
// device schedule and the measurement path feed the pins. As with the
// other measurement pins, they hold on amd64, where the compiler never
// fuses a multiply and an add.
func TestFigure5CaseBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("figure 5 bits are pinned for amd64 only")
	}
	cfg := Config{Seed: 42, Workers: 2}
	in, _ := ScaleInputs(FMMInputs()[7:], 8)
	run, err := RunFMMInput(in[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := tegra.TK1Params()
	model := &core.Model{
		SPpJ: p.SPpJ, DPpJ: p.DPpJ, IntpJ: p.IntpJ,
		SMpJ: p.SharedpJ, L2pJ: p.L2pJ, DRAMpJ: p.DRAMpJ,
		C1Proc: p.LeakProcWpV, C1Mem: p.LeakMemWpV, PMisc: p.MiscW,
	}
	f5, err := Figure5(context.Background(), tegra.NewDevice(), model, []*FMMRun{run}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Time, MeasuredEnergy and PredictedEnergy bits, S1 (the max
	// setting) to S8.
	want := [][3]uint64{
		{0x3fb5d9a3c7ff9ac1, 0x3fe5ccbc44860c3d, 0x3fe4b955c0ab8346},
		{0x3fb89ff177be89d6, 0x3fe824308ae9be2b, 0x3fe625b783588d9c},
		{0x3fd9db23f0ee7721, 0x40035b81c17270f7, 0x4003e1e4a677446a},
		{0x3fb5d9a3c7ff9ac1, 0x3fe5a728c1f0ee0b, 0x3fe4282abc14a920},
		{0x3fbe6b3957af22bb, 0x3fe9ce5c250e3f68, 0x3fe7b4473938f1da},
		{0x3fc13cc2a09efa15, 0x3fec50a51d5fa61f, 0x3fea5d4a9403d56d},
		{0x3fbe6b3957af22bb, 0x3fe95d837fe8c1e5, 0x3fe73ed1bdacb720},
		{0x3fbec6705829b989, 0x3fea4c1ee3019042, 0x3fe90525fb637d7f},
	}
	if len(f5.Cases) != len(want) {
		t.Fatalf("got %d cases, want %d", len(f5.Cases), len(want))
	}
	for i, c := range f5.Cases {
		got := [3]uint64{
			math.Float64bits(float64(c.Time)),
			math.Float64bits(float64(c.MeasuredEnergy)),
			math.Float64bits(float64(c.PredictedEnergy)),
		}
		if got != want[i] {
			t.Errorf("case %s: bits {%#x, %#x, %#x}, want {%#x, %#x, %#x}",
				c.SettingID, got[0], got[1], got[2], want[i][0], want[i][1], want[i][2])
		}
	}
}

func TestMicrobenchVsFMMConstantFraction(t *testing.T) {
	dev, cal, run := smallRun(t)
	cfg := testConfig()
	mb := MicrobenchConstantFraction(dev, cal.Model, dvfs.MaxSetting())
	// §IV-C: "constant power only accounts for about 30% of the total
	// energy" for the microbenchmarks.
	if mb < 0.20 || mb > 0.50 {
		t.Errorf("microbenchmark constant fraction %.2f, paper says ~0.30", mb)
	}
	c, err := RunFMMCase(dev, testMeter(t, cfg, 9), cal.Model, run, "S1", dvfs.MaxSetting())
	if err != nil {
		t.Fatal(err)
	}
	if c.ConstantFraction() <= mb+0.2 {
		t.Errorf("FMM constant fraction %.2f should far exceed microbenchmark's %.2f",
			c.ConstantFraction(), mb)
	}
}

func TestScheduleConsistency(t *testing.T) {
	dev, _, run := smallRun(t)
	s := dvfs.MustSetting(540, 528)
	sched := run.Schedule(dev, s)
	if len(sched.Execs) == 0 {
		t.Fatal("empty schedule")
	}
	var sum units.Second
	for _, e := range sched.Execs {
		sum += e.Time
	}
	if math.Abs(float64(sum-sched.Duration())) > 1e-12 {
		t.Error("Duration() does not sum the segments")
	}
	// The trace at a time inside the first segment equals the segment's.
	t0 := sched.Execs[0].Time / 2
	if sched.PowerAt(t0) != sched.Execs[0].PowerAt(t0) {
		t.Error("PowerAt does not delegate to the first segment")
	}
}

func TestFMMRunDeterministicProfiles(t *testing.T) {
	cfg := testConfig()
	a, err := RunFMMInput(FMMInput{ID: "T", N: 8192, Q: 64}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFMMInput(FMMInput{ID: "T", N: 8192, Q: 64}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalProfile() != b.TotalProfile() {
		t.Error("FMM profiles are not deterministic")
	}
}

func TestFMMUnderutilizationMatchesPaper(t *testing.T) {
	// §IV-C: "Compared to the maximum instructions per cycle (IPC) that
	// the system can deliver, our code delivers less than a quarter of
	// that", and the achievable peak "given the mix of instructions for
	// the U list phase" is itself bounded — not all FMM computation
	// translates to FMA instructions.
	_, _, run := smallRun(t)
	u := run.Result.Profiles[fmm.PhaseU]
	frac := tegra.AchievableIPCFraction(u)
	if frac >= 0.25 {
		t.Errorf("U-phase achievable IPC fraction %.3f; paper says under a quarter", frac)
	}
	if frac < 0.03 {
		t.Errorf("U-phase achievable fraction %.3f implausibly low", frac)
	}
	if tegra.BottleneckPipe(u) != "dp" {
		t.Errorf("U phase gated by %s pipe, expected dp", tegra.BottleneckPipe(u))
	}
	// The whole application is likewise underutilized.
	tot := tegra.AchievableIPCFraction(run.TotalProfile())
	if tot >= 0.25 {
		t.Errorf("whole-app achievable fraction %.3f; paper says under a quarter", tot)
	}
}

func TestFMMCaseNonUniformDistribution(t *testing.T) {
	// Extension beyond the paper's uniform inputs: the validation
	// pipeline must hold up on an adaptive (Plummer) tree, where the W
	// and X phases carry real work.
	dev, cal := calibrate(t)
	run, err := RunFMMInput(FMMInput{ID: "P1", N: 16384, Q: 64, Dist: fmm.Plummer}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wInstr := run.Result.Profiles[fmm.PhaseW].Instructions()
	xInstr := run.Result.Profiles[fmm.PhaseX].Instructions()
	if wInstr == 0 || xInstr == 0 {
		t.Error("Plummer input should exercise the W and X phases")
	}
	cfg := testConfig()
	c, err := RunFMMCase(dev, testMeter(t, cfg, 11), cal.Model, run, "S1", dvfs.MaxSetting())
	if err != nil {
		t.Fatal(err)
	}
	if c.RelErr > 0.20 {
		t.Errorf("non-uniform case error %.1f%%", c.RelErr*100)
	}
	if f := c.ConstantFraction(); f < 0.70 {
		t.Errorf("constant fraction %.2f; §IV-C dominance should persist on adaptive trees", f)
	}
}
