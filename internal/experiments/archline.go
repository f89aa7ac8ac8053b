package experiments

import (
	"fmt"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// Measured rooflines: the authors' "archline" microbenchmark suite
// (paper §II-C, footnote 2) exists to trace out the measured performance
// and power of a platform as functions of arithmetic intensity — the
// empirical counterpart of the model's closed-form roofline curves. This
// experiment runs the intensity sweep at one DVFS setting and reports
// both the measurements and the model's predictions, so the two can be
// compared point by point.

// RooflinePoint is one measured point of the intensity sweep, with the
// model's prediction alongside.
type RooflinePoint struct {
	Intensity units.OpsPerWord // target ops per DRAM word

	// Measured through the device + PowerMon path.
	OpsPerSec   units.OpsPerSecond
	Power       units.Watt
	OpsPerJoule units.OpsPerJoule

	// Model predictions from the fitted constants and the machine peaks.
	Predicted core.RooflinePoint
}

// MeasuredRoofline sweeps a microbenchmark family's intensities at one
// setting, measuring each kernel and predicting it with the model.
func MeasuredRoofline(dev *tegra.Device, model *core.Model, cfg Config, kind microbench.Kind, s dvfs.Setting) ([]RooflinePoint, error) {
	runner := &microbench.Runner{
		Device:      dev,
		MeterConfig: cfg.Meter,
		Seed:        cfg.Seed + 31,
		TargetTime:  cfg.BenchTargetTime,
	}
	var class core.OpClass
	var opsPerCycle units.PerCycle
	switch kind {
	case microbench.Single, microbench.DRAM:
		class, opsPerCycle = core.ClassSP, tegra.SPPerCycle
	case microbench.Double:
		class, opsPerCycle = core.ClassDP, tegra.DPPerCycle
	case microbench.Integer:
		class, opsPerCycle = core.ClassInt, tegra.IntPerCycle
	default:
		return nil, fmt.Errorf("experiments: roofline sweep undefined for %v (cache families have no single op class)", kind)
	}
	mach := core.MachineFor(opsPerCycle, tegra.DRAMWordsPerCycle, s)

	var out []RooflinePoint
	for _, ai := range kind.Intensities() {
		b := microbench.Benchmark{Kind: kind, Intensity: ai}
		smp, err := runner.Run(b, s)
		if err != nil {
			return nil, err
		}
		ops := ai * smp.Workload.Profile.DRAMWords
		out = append(out, RooflinePoint{
			Intensity:   units.OpsPerWord(ai),
			OpsPerSec:   units.OpsPerSecond(ops / float64(smp.Time)),
			Power:       smp.Power,
			OpsPerJoule: units.OpsPerJoule(ops / float64(smp.Energy)),
			Predicted:   model.RooflineAt(class, mach, s, units.OpsPerWord(ai)),
		})
	}
	return out, nil
}
