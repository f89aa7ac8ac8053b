// Package cli factors out the scaffolding the cmd/* binaries share: the
// uniform flag set (-seed, -workers, -csv, -cache, -faults,
// -min-coverage), logger and device construction, the calibration cache
// on top of internal/export, and fatal-error plumbing.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/export"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/tegra"
)

// App carries the flag values shared by every experiment command.
type App struct {
	Name        string
	Seed        int64
	Workers     int
	CSVDir      string
	Cache       string
	FaultSpec   string
	MinCoverage float64

	faultPlan faults.Plan // parsed from FaultSpec by Validate
	lastPct   int         // progress milestone tracker
}

// New registers the uniform flags on the default flag set and configures
// the standard logger. Commands add their own flags afterwards and then
// call Parse.
func New(name string) *App {
	return NewOn(name, flag.CommandLine)
}

// NewOn registers the uniform flags on an explicit flag set, for
// commands with subcommands (each subcommand owns a flag.FlagSet but
// shares the uniform -seed/-workers/-faults/... vocabulary). The caller
// parses the set itself and then calls Validate.
func NewOn(name string, fs *flag.FlagSet) *App {
	a := &App{Name: name, lastPct: -1}
	fs.Int64Var(&a.Seed, "seed", 42, "seed for measurement noise and experiment randomness")
	fs.IntVar(&a.Workers, "workers", 0, "experiment pipeline parallelism (0 = GOMAXPROCS)")
	fs.StringVar(&a.CSVDir, "csv", "", "directory to write CSV artifacts (empty disables)")
	fs.StringVar(&a.Cache, "cache", "", "calibration sample cache file: loaded when present, written after a fresh calibration")
	fs.StringVar(&a.FaultSpec, "faults", "", "fault-injection plan, e.g. \"disconnect=0.1,spike=0.02,seed=7\" (see internal/faults)")
	fs.Float64Var(&a.MinCoverage, "min-coverage", 1.0, "calibration sample coverage floor in (0,1]; below 1 quarantines failing samples instead of aborting")
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	return a
}

// Parse parses the command line and validates the uniform flags,
// exiting with usage on a bad value.
func (a *App) Parse() {
	flag.Parse()
	if err := a.Validate(); err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "%s: %v\n", a.Name, err)
		flag.Usage()
		os.Exit(2)
	}
}

// Validate checks the uniform flag values without exiting (exposed for
// tests; Parse calls it).
func (a *App) Validate() error {
	if a.Workers < 0 {
		return fmt.Errorf("invalid -workers %d: must be >= 0 (0 = GOMAXPROCS)", a.Workers)
	}
	if a.Seed <= 0 {
		return fmt.Errorf("invalid -seed %d: must be positive", a.Seed)
	}
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(a.MinCoverage > 0 && a.MinCoverage <= 1) {
		return fmt.Errorf("invalid -min-coverage %g: must be in (0, 1]", a.MinCoverage)
	}
	plan, err := faults.ParsePlan(a.FaultSpec)
	if err != nil {
		return fmt.Errorf("invalid -faults: %w", err)
	}
	a.faultPlan = plan
	return nil
}

// Device returns the simulated Jetson TK1 every command runs against.
func (a *App) Device() *tegra.Device { return tegra.NewDevice() }

// Config builds the experiment configuration from the parsed flags,
// wiring pipeline progress to stderr at quarter milestones.
func (a *App) Config() experiments.Config {
	return experiments.Config{
		Seed:        a.Seed,
		Workers:     a.Workers,
		OnProgress:  a.reportProgress,
		Faults:      a.faultPlan,
		MinCoverage: a.MinCoverage,
	}
}

// reportProgress logs long-running pipeline stages at 25% steps.
func (a *App) reportProgress(p experiments.Progress) {
	if p.Total < 100 {
		return
	}
	pct := 100 * p.Done / p.Total
	if pct/25 > a.lastPct/25 || p.Done == p.Total && a.lastPct != 100 {
		a.lastPct = pct
		log.Printf("%s: %d/%d", p.Stage, p.Done, p.Total)
	}
	if p.Done == p.Total {
		a.lastPct = -1
	}
}

// Check aborts the command on a non-nil error.
func (a *App) Check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Calibrate returns the model calibration, going through the -cache file
// when one is configured: an existing cache is loaded and refitted
// (skipping the measurement campaign entirely); otherwise a fresh
// campaign runs and its samples are written back to the cache path. A
// stale or malformed cache is reported and ignored.
func (a *App) Calibrate(ctx context.Context, dev *tegra.Device) (*experiments.Calibration, error) {
	if a.Cache != "" {
		cal, err := LoadCalibration(a.Cache)
		switch {
		case err == nil:
			log.Printf("refitted from %d cached samples in %s", len(cal.Samples), a.Cache)
			return cal, nil
		case !errors.Is(err, fs.ErrNotExist):
			log.Printf("ignoring cache %s: %v", a.Cache, err)
		}
	}
	cal, err := experiments.Calibrate(ctx, dev, a.Config())
	if err != nil {
		return nil, err
	}
	if !cal.Coverage.Complete() {
		log.Printf("degraded calibration: %d/%d samples measured (%.1f%% coverage), %d quarantined, %d retries",
			cal.Coverage.Measured, cal.Coverage.Total, 100*cal.Coverage.Fraction(),
			len(cal.Coverage.Quarantined), cal.Coverage.Retried)
	}
	if a.Cache != "" {
		if !cal.Coverage.Complete() {
			// A partial campaign holds zeroed samples in quarantined
			// slots; caching it would silently poison later refits.
			log.Printf("not caching partial calibration to %s", a.Cache)
		} else if err := SaveSamples(a.Cache, cal.Samples); err != nil {
			log.Printf("could not write cache %s: %v", a.Cache, err)
		} else {
			log.Printf("cached %d calibration samples to %s", len(cal.Samples), a.Cache)
		}
	}
	return cal, nil
}

// LoadCalibration reads a calibration sample CSV (as written by
// export.WriteSamples, the -csv flag of cmd/paper, or a previous -cache
// run) and rebuilds the full calibration from it.
func LoadCalibration(path string) (*experiments.Calibration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := export.ReadSamples(f)
	if err != nil {
		return nil, fmt.Errorf("cli: reading %s: %w", path, err)
	}
	return experiments.CalibrateFromSamples(samples)
}

// SaveSamples writes calibration samples as CSV to path.
func SaveSamples(path string, samples []core.Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export.WriteSamples(f, samples); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
