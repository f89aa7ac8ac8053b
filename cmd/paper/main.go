// Command paper reproduces the paper's tables and figures in paper
// order from one calibration and one run of the FMM inputs:
//
//   - Table I and the §II-D validation: the per-operation energy costs
//     and constant power fitted by NNLS over the 116 intensity
//     microbenchmarks x 16 calibration settings, with the 2-fold holdout
//     and 16-fold cross-validation error statistics;
//   - Table II (§II-E): the model's energy-optimal DVFS picks against
//     race-to-halt, scored against the measured minimum;
//   - Table IV and Figure 4: the FMM inputs F1–F8 and their instruction
//     and data-access breakdowns, plus a blind phase attribution of the
//     last input's power trace;
//   - Figures 5–7 (§IV): predicted vs measured FMM energy for the 64
//     (setting, input) cases, the energy breakdown by type, and the
//     computation / data / constant-power split;
//   - the energy roofline (paper refs [2,3]) for SP, DP and Int at three
//     DVFS settings, with the time and energy balance points.
//
// -small scales the FMM inputs down 8x; -csv writes samples.csv,
// table1.csv, table2.csv and figure5.csv.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"dvfsroofline/internal/cli"
	"dvfsroofline/internal/core"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/export"
	"dvfsroofline/internal/fmm"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// errUsage reports a bad command line; the flag set has already printed
// the problem and the usage text.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run parses args, regenerates every section onto stdout and logs
// progress and artifacts to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := cli.NewOn("paper", fs)
	small := fs.Bool("small", false, "scale the FMM inputs down 8x for a quick demo")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if err := app.Validate(); err != nil {
		fmt.Fprintf(stderr, "paper: %v\n", err)
		fs.Usage()
		return errUsage
	}
	log.SetOutput(stderr)
	artifact := func(name string, fn func(io.Writer) error) error {
		return writeArtifact(stderr, app.CSVDir, name, fn)
	}

	ctx := context.Background()
	dev := app.Device()
	cfg := app.Config()
	cal, err := app.Calibrate(ctx, dev)
	if err != nil {
		return err
	}
	tableI(stdout, cal)
	if err := artifact("samples.csv", func(f io.Writer) error {
		return export.WriteSamples(f, cal.Samples)
	}); err != nil {
		return err
	}
	if err := artifact("table1.csv", func(f io.Writer) error {
		return export.WriteTableI(f, cal.TableI())
	}); err != nil {
		return err
	}

	rows, err := experiments.Autotune(ctx, dev, cal.Model, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	tableII(stdout, rows)
	if err := artifact("table2.csv", func(f io.Writer) error {
		return export.WriteTableII(f, rows)
	}); err != nil {
		return err
	}

	inputs := experiments.FMMInputs()
	if *small {
		var clamped []string
		inputs, clamped = experiments.ScaleInputs(inputs, 8)
		if len(clamped) > 0 {
			log.Printf("warning: clamped %s to N=2Q; scaling 8x would have left N <= Q (a degenerate single-leaf octree)",
				strings.Join(clamped, ", "))
		}
	}
	for _, in := range inputs {
		fmt.Fprintf(stderr, "running FMM %s (N=%d, Q=%d)...\n", in.ID, in.N, in.Q)
	}
	runs, err := experiments.RunFMMInputs(ctx, inputs, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	tableIV(stdout, runs)
	meter, err := cfg.NewMeter(app.Seed + 50)
	if err != nil {
		return err
	}
	att, err := experiments.AttributePhases(dev, meter, cal.Model, runs[len(runs)-1], dvfs.MaxSetting())
	if err != nil {
		return err
	}
	attribution(stdout, att)

	f5, err := experiments.Figure5(ctx, dev, cal.Model, runs, cfg)
	if err != nil {
		return err
	}
	mb := experiments.MicrobenchConstantFraction(dev, cal.Model, dvfs.MaxSetting())
	fmt.Fprintln(stdout)
	figures5to7(stdout, dev, cal.Model, runs, f5, mb)
	if err := artifact("figure5.csv", func(f io.Writer) error {
		return export.WriteFigure5(f, f5.Cases)
	}); err != nil {
		return err
	}

	fmt.Fprintln(stdout)
	roofline(stdout, cal.Model)
	return nil
}

// table returns a tabwriter on w with the formatting every section's
// table uses; pass tabwriter.AlignRight for numeric tables or 0 for
// left-aligned ones.
func table(w io.Writer, flags uint) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 0, 2, ' ', flags)
}

// writeArtifact writes one CSV artifact into dir and logs the path to
// stderr; it is a no-op when dir is empty.
func writeArtifact(stderr io.Writer, dir, name string, fn func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

func tableI(out io.Writer, cal *experiments.Calibration) {
	fmt.Fprintf(out, "Fitted %d samples (116 kernels x 16 settings) by NNLS.\n", len(cal.Samples))
	m := cal.Model
	fmt.Fprintf(out, "Model constants: c0 = {SP %.2f, DP %.2f, Int %.2f, SM %.2f, L2 %.2f, DRAM %.2f} pJ/V^2\n",
		m.SPpJ, m.DPpJ, m.IntpJ, m.SMpJ, m.L2pJ, m.DRAMpJ)
	fmt.Fprintf(out, "                 c1,proc %.2f W/V   c1,mem %.2f W/V   Pmisc %.2f W\n\n",
		m.C1Proc, m.C1Mem, m.PMisc)

	fmt.Fprintln(out, "TABLE I: frequency/voltage settings and derived energy and power costs")
	w := table(out, tabwriter.AlignRight)
	fmt.Fprintln(w, "Type\tCore MHz\tCore mV\tMem MHz\tMem mV\tSP pJ\tDP pJ\tInt pJ\tSM pJ\tL2 pJ\tMem pJ\tConst W\t")
	for _, r := range cal.TableI() {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
			r.Type, r.Setting.Core.FreqMHz, r.Setting.Core.VoltageMV,
			r.Setting.Mem.FreqMHz, r.Setting.Mem.VoltageMV,
			r.Eps.SP, r.Eps.DP, r.Eps.Int, r.Eps.SM, r.Eps.L2, r.Eps.DRAM, r.Eps.ConstPower)
	}
	w.Flush()

	h := cal.Holdout.Percent()
	k := cal.KFold.Percent()
	fmt.Fprintln(out, "\nVALIDATION (relative error, %, vs measured energy)")
	fmt.Fprintf(out, "  2-fold holdout (T trains, V validates):  mean %.2f  stddev %.2f  min %.2f  max %.2f   (paper: 2.87 / 2.47 / 0.00 / 11.94)\n",
		h.Mean, h.Stddev, h.Min, h.Max)
	fmt.Fprintf(out, "  16-fold CV (leave-one-setting-out):      mean %.2f  stddev %.2f  min %.2f  max %.2f   (paper: 6.56 / 3.80 / 1.60 / 15.22)\n",
		k.Mean, k.Stddev, k.Min, k.Max)
}

func tableII(out io.Writer, rows []core.TableIIRow) {
	fmt.Fprintln(out, "TABLE II: energy autotuning — mispredictions and energy lost (%)")
	fmt.Fprintln(out, "(energy lost is relative to the experimentally measured minimum,")
	fmt.Fprintln(out, " summarized over the mispredicted cases only, as in the paper)")
	w := table(out, 0)
	fmt.Fprintln(w, "Family\tStrategy\tMispredictions\tMean\tMin\tMax\t")
	for _, r := range rows {
		mp := r.Model.LostPercent()
		op := r.Oracle.LostPercent()
		fmt.Fprintf(w, "%s\tOur model\t%d (out of %d)\t%.2f\t%.2f\t%.2f\t\n",
			r.Family, r.Model.Mispredictions, r.Model.Cases, mp.Mean, mp.Min, mp.Max)
		fmt.Fprintf(w, "\tTime Oracle\t%d (out of %d)\t%.2f\t%.2f\t%.2f\t\n",
			r.Oracle.Mispredictions, r.Oracle.Cases, op.Mean, op.Min, op.Max)
	}
	w.Flush()
	fmt.Fprintln(out, "\nPaper's headline: race-to-halt is not energy-optimal even for uniform")
	fmt.Fprintln(out, "computations; the model picks (near-)optimal settings at a fraction of the loss.")
}

func tableIV(out io.Writer, runs []*experiments.FMMRun) {
	fmt.Fprintln(out, "TABLE IV (FMM inputs) and FIGURE 4 (instruction/data breakdown)")
	w := table(out, tabwriter.AlignRight)
	fmt.Fprintln(w, "ID\tN\tQ\tleaves\tdepth\tinstr FMA\tadd\tmul\tint\taccess SM\tL1\tL2\tDRAM\t")
	for _, run := range runs {
		in := run.Input
		p := run.TotalProfile()
		ins := p.Instructions()
		acc := p.Accesses()
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
			in.ID, in.N, in.Q, run.Result.Tree.NumLeaves(), run.Result.Tree.Depth(),
			100*p.DPFMA/ins, 100*p.DPAdd/ins, 100*p.DPMul/ins, 100*p.Int/ins,
			100*p.SharedWords/acc, 100*p.L1Words/acc, 100*p.L2Words/acc, 100*p.DRAMWords/acc)
	}
	w.Flush()

	fmt.Fprintln(out, "\nPer-phase instruction share (last input):")
	run := runs[len(runs)-1]
	var total float64
	for ph := fmm.Phase(0); ph < fmm.NumPhases; ph++ {
		total += run.Result.Profiles[ph].Instructions()
	}
	var parts []string
	for _, ph := range fmm.Phases() {
		parts = append(parts, fmt.Sprintf("%s %.1f%%",
			ph, 100*run.Result.Profiles[ph].Instructions()/total))
	}
	fmt.Fprintln(out, "  "+strings.Join(parts, "  "))
	fmt.Fprintln(out, "\nPaper's observations: integer instructions are ~60% of all computation")
	fmt.Fprintln(out, "instructions for every input; DRAM is a small share (~13%) of accesses.")
}

func attribution(out io.Writer, att *experiments.PhaseAttribution) {
	fmt.Fprintln(out, "\nBLIND PHASE ATTRIBUTION (trace segmentation vs model, at 852/924 MHz):")
	w := table(out, tabwriter.AlignRight)
	fmt.Fprintln(w, "Phase\tWindow s\tMeasured J\tPredicted J\t")
	for _, pe := range att.Phases {
		fmt.Fprintf(w, "%s\t%.3f-%.3f\t%.3f\t%.3f\t\n",
			pe.Phase, pe.Start, pe.End, pe.MeasuredJ, pe.PredictedJ)
	}
	w.Flush()
	fmt.Fprintf(out, "(%d segments detected blindly from the power samples; total %.2f J)\n",
		len(att.Segments), att.TotalJ)
}

// figures5to7 prints Figures 5–7 and the microbenchmark's constant-power
// fraction mb at the maximum setting.
func figures5to7(out io.Writer, dev *tegra.Device, model *core.Model, runs []*experiments.FMMRun, f5 *experiments.Figure5Result, mb float64) {
	fmt.Fprintln(out, "FIGURE 5: estimated vs measured energy, 64 test cases")
	w := table(out, tabwriter.AlignRight)
	fmt.Fprintln(w, "Case\tTime s\tMeasured J\tPredicted J\tError %\tConst %\t")
	for _, c := range f5.Cases {
		fmt.Fprintf(w, "%s-%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.1f\t\n",
			c.SettingID, c.Input.ID, c.Time, c.MeasuredEnergy, c.PredictedEnergy,
			c.RelErr*100, c.ConstantFraction()*100)
	}
	w.Flush()
	fmt.Fprintf(out, "\nError summary (%%): mean %.2f  stddev %.2f  min %.2f  max %.2f   (paper: 6.17 / 4.65 / 0.09 / 14.89)\n",
		f5.Summary.Mean*100, f5.Summary.Stddev*100, f5.Summary.Min*100, f5.Summary.Max*100)

	fmt.Fprintln(out, "\nFIGURE 6: energy breakdown by type at max frequency (852/924 MHz)")
	w = table(out, tabwriter.AlignRight)
	fmt.Fprintln(w, "Input\tFMA %\tAdd %\tMul %\tInt %\tSM %\tL2 %\tDRAM %\tInt/compute %\tDRAM/data %\t")
	s1 := dvfs.MaxSetting()
	for _, run := range runs {
		sched := run.Schedule(dev, s1)
		parts := model.PredictParts(run.TotalProfile(), s1, sched.Duration())
		dyn := parts.Compute() + parts.Data()
		p := run.Result.Profiles.Total()
		dp := p.DPFMA + p.DPAdd + p.DPMul
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
			run.Input.ID,
			// The model charges all DP flavors at the DP cost; split the
			// DP bar by instruction share for display, as the paper does.
			100*float64(parts.DP)/float64(dyn)*p.DPFMA/dp,
			100*float64(parts.DP)/float64(dyn)*p.DPAdd/dp,
			100*float64(parts.DP)/float64(dyn)*p.DPMul/dp,
			100*parts.Int/dyn, 100*parts.SM/dyn, 100*parts.L2/dyn, 100*parts.DRAM/dyn,
			100*parts.Int/parts.Compute(),
			100*parts.DRAM/parts.Data())
	}
	w.Flush()
	fmt.Fprintln(out, "(paper: integers ~23% of computation energy; DRAM up to ~50% of data energy)")

	fmt.Fprintln(out, "\nFIGURE 7: computation / data / constant-power energy split (%)")
	w = table(out, tabwriter.AlignRight)
	fmt.Fprintln(w, "Case\tComputation\tData\tConstant\t")
	for _, c := range f5.Cases {
		tot := c.PredictedParts.Total()
		fmt.Fprintf(w, "%s-%s\t%.1f\t%.1f\t%.1f\t\n", c.SettingID, c.Input.ID,
			100*c.PredictedParts.Compute()/tot, 100*c.PredictedParts.Data()/tot,
			100*c.PredictedParts.Constant/tot)
	}
	w.Flush()

	fmt.Fprintf(out, "\nConstant power dominates the FMM (paper: 75–95%% of total energy), while a\n")
	fmt.Fprintf(out, "saturating microbenchmark spends only %.0f%% on constant power (paper: ~30%%).\n", mb*100)
	fmt.Fprintln(out, "Hence, for the FMM, the energy-optimal DVFS setting coincides with the")
	fmt.Fprintln(out, "time-optimal one (§IV-C).")
}

func roofline(out io.Writer, model *core.Model) {
	classes := []struct {
		name        string
		class       core.OpClass
		opsPerCycle units.PerCycle
	}{
		{"SP", core.ClassSP, tegra.SPPerCycle},
		{"DP", core.ClassDP, tegra.DPPerCycle},
		{"Int", core.ClassInt, tegra.IntPerCycle},
	}
	settings := []dvfs.Setting{
		dvfs.MaxSetting(),
		dvfs.MustSetting(540, 528),
		dvfs.MustSetting(180, 204),
	}
	intensities := []units.OpsPerWord{0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256}

	for _, cl := range classes {
		for _, s := range settings {
			mach := core.MachineFor(cl.opsPerCycle, tegra.DRAMWordsPerCycle, s)
			fmt.Fprintf(out, "%s roofline at %v\n", cl.name, s)
			fmt.Fprintf(out, "  time balance %.2f ops/word, energy balance %.2f ops/word",
				mach.TimeBalance(), model.EnergyBalance(cl.class, s))
			eff := model.EffectiveEnergyBalance(cl.class, mach, s)
			if math.IsInf(float64(eff), 1) {
				fmt.Fprintf(out, ", effective balance: unreachable (constant power exceeds ε at peak)\n")
			} else {
				fmt.Fprintf(out, ", effective balance %.2f ops/word\n", eff)
			}
			w := table(out, tabwriter.AlignRight)
			fmt.Fprintln(w, "I ops/word\tGops/s\tGops/J\tW\t")
			for _, pt := range model.Roofline(cl.class, mach, s, intensities) {
				fmt.Fprintf(w, "%.3f\t%.2f\t%.3f\t%.2f\t\n",
					pt.Intensity, pt.OpsPerSec/1e9, pt.OpsPerJoule/1e9, pt.Power)
			}
			w.Flush()
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintln(out, "Reading: below the time balance a kernel is bandwidth-bound; below the")
	fmt.Fprintln(out, "energy balance its dynamic energy is data-movement-dominated; when the")
	fmt.Fprintln(out, "effective balance is unreachable, constant power dominates at every")
	fmt.Fprintln(out, "intensity — the regime the paper's FMM occupies (§IV-C).")
}
