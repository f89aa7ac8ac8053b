// Command energyload generates and replays deterministic request
// traces against energyd (see internal/workload):
//
//	energyload gen    -seed 7 -duration 30 -out trace.jsonl
//	energyload replay -trace trace.jsonl -addr http://127.0.0.1:8080
//	energyload replay -trace trace.jsonl -inprocess -report report.json
//
// gen expands the standard soak spec (diurnal predict/autotune/fleet
// mixes with burst episodes) into a JSONL trace; the same seed and
// duration always produce the same bytes.
//
// replay drives every request of a trace at a target and writes a
// machine-readable report: per-endpoint latency percentiles and status
// counts, cache hit rate, breaker trips, degraded serves, per-device
// request share, and energy answered per joule of sweep work. The
// target is a live daemon (-addr) or an in-process fleet built from
// -fleet (default: the standard 3-device heterogeneous fleet), which
// needs no network and — in the default sync mode, where the replayer
// and server share one virtual step clock — produces byte-identical
// reports across runs. -mode open paces requests open-loop at the
// recorded offsets (scaled by -speed) instead; its latencies are
// wall-clock. -faults injects the usual sweep fault plan into the
// in-process fleet, for soak tests that exercise breakers and degraded
// serves.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dvfsroofline/internal/cli"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: energyload <gen|replay> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "replay":
		err = runReplay(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "energyload: unknown subcommand %q (want gen or replay)\n", os.Args[1])
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "energyload: %v\n", err)
		os.Exit(1)
	}
}

// runGen expands the default soak spec into a trace file.
func runGen(args []string) error {
	fs := flag.NewFlagSet("energyload gen", flag.ExitOnError)
	app := cli.NewOn("energyload", fs)
	duration := fs.Float64("duration", 30, "trace length in seconds of trace time")
	name := fs.String("name", "", "trace name recorded in the header (default: the spec's)")
	out := fs.String("out", "-", "output trace path (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := app.Validate(); err != nil {
		return err
	}
	spec := workload.DefaultSpec(app.Seed, *duration)
	if *name != "" {
		spec.Name = *name
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	w, closeW, err := openOut(*out)
	if err != nil {
		return err
	}
	if err := tr.Write(w); err != nil {
		closeW()
		return err
	}
	return closeW()
}

// runReplay drives a trace at a live daemon or an in-process fleet and
// writes the report.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("energyload replay", flag.ExitOnError)
	app := cli.NewOn("energyload", fs)
	tracePath := fs.String("trace", "", "trace file to replay (required)")
	addr := fs.String("addr", "", "base URL of a live energyd, e.g. http://127.0.0.1:8080")
	inprocess := fs.Bool("inprocess", false, "replay against an in-process fleet instead of a live daemon")
	fleetPath := fs.String("fleet", "", "fleet config JSON for -inprocess (empty = built-in 3-device fleet)")
	mode := fs.String("mode", "sync", "replay mode: sync (sequential, deterministic) or open (paced open-loop)")
	speed := fs.Float64("speed", 1, "open-mode rate multiplier: 2 replays a 60s trace in 30s")
	route := fs.String("route", "", "fleet_predict routing selector, e.g. least_loaded")
	report := fs.String("report", "-", "report output path (- = stdout)")
	step := fs.Duration("step", time.Millisecond, "virtual clock step per read in -inprocess sync mode")
	cacheCap := fs.Int("cachecap", 64, "autotune sweep cache capacity per in-process device")
	sweepTimeout := fs.Duration("sweep-timeout", 30*time.Second, "server-side cap on one in-process autotune sweep")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive sweep failures that open an in-process breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", 30*time.Second, "open period before an in-process breaker allows a probe")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := app.Validate(); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	if (*addr == "") == !*inprocess {
		return fmt.Errorf("exactly one of -addr and -inprocess is required")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	tr, err := workload.Read(f)
	f.Close()
	if err != nil {
		return err
	}

	opts := workload.ReplayOptions{
		Mode:  workload.Mode(*mode),
		Speed: *speed,
		Route: *route,
		//energylint:allow determinism(replay pacing against a live daemon is wall-clock by nature; the deterministic path injects a StepClock below)
		Now:   time.Now,
		Sleep: time.Sleep,
	}
	var target workload.Target
	if *inprocess {
		srvOpts := serve.Options{
			CacheSize:        *cacheCap,
			SweepTimeout:     *sweepTimeout,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		}
		if opts.Mode == workload.ModeSync {
			// One virtual clock on both sides makes latency a count of
			// clock reads along the request path — the byte-identical
			// report contract.
			clk := workload.NewStepClock(*step)
			opts.Now = clk.Now
			srvOpts.Clock = clk.Now
		}
		cfg := app.Config()
		// Request sweeps run concurrently and must not share the App's
		// milestone tracker (same rule as cmd/energyd).
		cfg.OnProgress = nil
		srv, err := buildFleet(*fleetPath, cfg, srvOpts)
		if err != nil {
			return err
		}
		target = workload.HandlerTarget{Handler: srv.Handler()}
	} else {
		target = workload.HTTPTarget{Base: *addr}
	}

	rep, err := workload.Replay(context.Background(), tr, target, opts)
	if err != nil {
		return err
	}
	w, closeW, err := openOut(*report)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(w); err != nil {
		closeW()
		return err
	}
	return closeW()
}

// defaultFleetConfig is the built-in 3-device heterogeneous fleet: the
// TK1 reference, a hot leaky bin, and a frequency-capped low-power SKU.
// It is the benchmark's serving fleet, the same three specs as
// fleetConfig in bench/serving.go: no fleet seed, and only the few
// params that set the devices apart (cmd/energyd/testdata/fleet.json
// names the same devices with a seed and many more params). Synthetic
// noiseless calibrations boot each device instantly and
// deterministically.
func defaultFleetConfig() fleet.FleetConfig {
	return fleet.FleetConfig{Devices: []fleet.Spec{
		{ID: "tk1-reference"},
		{ID: "tk1-binned-hot", Params: fleet.ParamsJSON{LeakProcWpV: 3.55, MiscW: 0.32}},
		{ID: "tk1-lowpower-sku", Params: fleet.ParamsJSON{SPpJ: 22.1, DRAMpJ: 318.5}, MaxCoreMHz: 612},
	}}
}

// buildFleet assembles the in-process registry: the built-in fleet, or
// a -fleet config through the same loader cmd/energyd uses.
func buildFleet(path string, cfg experiments.Config, opts serve.Options) (*serve.Server, error) {
	fc := defaultFleetConfig()
	if path != "" {
		var err error
		fc, err = fleet.LoadConfig(path)
		if err != nil {
			return nil, err
		}
	}
	reg, err := fleet.Build(fc, cfg, cli.LoadCalibration, opts.NodeOptions())
	if err != nil {
		return nil, err
	}
	return serve.NewFleet(reg, opts), nil
}

// openOut opens an output sink; "-" is stdout (whose close is a no-op,
// so a report can pipe into a shell without double-close errors).
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
