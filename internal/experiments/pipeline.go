package experiments

import (
	"context"
	"sync"

	"dvfsroofline/internal/par"
)

// This file is the experiment layer's concurrency substrate. Every
// pipelined experiment (Calibrate, Autotune, Figure5, RunFMMInputs and
// the sweeps) fans its independent units of work out through
// forEach, a progress-reporting wrapper around par.For, and writes
// results into pre-indexed slots, so the outcome is byte-identical for
// any worker count; par.For's lowest-index rule makes a failing run's
// error identical too. Randomness stays deterministic because every
// unit derives its own seed from the unit's identity (stats.MixSeed,
// microbench.SampleSeed) rather than from a shared stream.

// Progress is one pipeline progress update.
type Progress struct {
	Stage string // e.g. "calibrate", "autotune", "fmm", "figure5"
	Done  int    // units completed so far
	Total int    // total units in this stage
}

// progress invokes the OnProgress callback, if any. Callers serialize
// invocations.
func (c Config) progress(stage string, done, total int) {
	if c.OnProgress != nil {
		c.OnProgress(Progress{Stage: stage, Done: done, Total: total})
	}
}

// forEach runs n indexed tasks through par.For, bounded by cfg.Workers,
// and reports completions through cfg.OnProgress (serialized). Tasks
// must be independent and write only to their own result slot. A
// failing run returns the lowest-index task error, so the error — like
// the results — is the same at any worker count.
func forEach(ctx context.Context, cfg Config, stage string, n int, task func(i int) error) error {
	var (
		mu   sync.Mutex // serializes OnProgress calls
		done int        // guarded by mu
	)
	return par.For(ctx, cfg.Workers, n, func(i int) error {
		if err := task(i); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		cfg.progress(stage, done, n)
		return nil
	})
}
