// Package bench is the repository's end-to-end benchmark: four
// in-process workloads over energyd and the paper pipeline, each timed
// for a fixed stretch, with its outputs checked, plus a separate traced
// run that breaks each workload's cost down layer by layer. It reaches
// the program only through public functions of its packages. See
// README.md for the workloads, the metrics and how to compare commits.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The workloads.
const (
	ServeWarm = "serve-warm"
	ServeCold = "serve-cold"
	Calibrate = "calibrate"
	FMM       = "fmm"
)

// Workloads lists every workload in BENCHMARK.json order.
var Workloads = []string{ServeWarm, ServeCold, Calibrate, FMM}

// Sizes fix how much input a workload builds and how much a traced run
// samples; they are the same on every commit.
type Sizes struct {
	TraceS       float64 // trace-time length of the soak trace request bodies come from
	WarmBlocks   int     // 276-request blocks in the warm pool serve-warm cycles through
	ColdBlocks   int     // 52-request blocks in the cold pool serve-cold cycles through
	FMMScale     int     // divisor of the Table IV point counts
	SetupRuns    int     // set-ups timed per run; the median is reported
	TracedPasses int     // calibrate passes per traced run (fmm runs one fewer)
	// StandIn is how many requests of each (op, grid) class a traced
	// run probes from a serving mix that is not its own, and how many
	// cache-saved sweeps per class it probes in a warm mix.
	StandIn int
}

// Full is the size every benchmark run uses.
var Full = Sizes{TraceS: 60, WarmBlocks: 9, ColdBlocks: 79, FMMScale: 8, SetupRuns: 9, TracedPasses: 3, StandIn: 24}

// smoke is a miniature for tests: same code paths, seconds not minutes.
var smoke = Sizes{TraceS: 4, WarmBlocks: 1, ColdBlocks: 5, FMMScale: 64, SetupRuns: 2, TracedPasses: 2, StandIn: 4}

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the measured phase
	Trace    bool    // run the traced pass and report per-layer metrics instead
	Root     string  // repository root, for the checked-in calibration
	// SpansPath receives a traced run's spans as JSONL; empty skips it.
	SpansPath string
	Sizes     Sizes
	// Digests are reference output digests for one seed (see
	// LoadDigests); nil skips the check.
	Digests *Digests
}

func (c Config) duration() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// calibrationPath is the checked-in calibration energyd boots from.
func (c Config) calibrationPath() string {
	return filepath.Join(c.Root, "cmd", "energyd", "testdata", "samples.csv")
}

// Digests are the SHA-256 digests of each workload's reference outputs
// at one seed: a change that alters answers consistently across a run
// still fails against them.
type Digests struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]string `json:"workloads"`
}

// LoadDigests reads a digests file.
func LoadDigests(path string) (*Digests, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var d Digests
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &d, nil
}

// Run executes one benchmark run.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Seed <= 0 {
		return nil, fmt.Errorf("bench: seed %d must be positive", cfg.Seed)
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds %g must be positive", cfg.Seconds)
	}
	var (
		rep *Report
		err error
	)
	switch {
	case cfg.Workload != ServeWarm && cfg.Workload != ServeCold && cfg.Workload != Calibrate && cfg.Workload != FMM:
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", cfg.Workload, Workloads)
	case cfg.Trace:
		rep, err = runTraced(ctx, cfg)
	case cfg.Workload == Calibrate:
		rep, err = runCalibrate(ctx, cfg)
	case cfg.Workload == FMM:
		rep, err = runFMM(ctx, cfg)
	default:
		rep, err = runServe(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	return rep, rep.complete()
}
