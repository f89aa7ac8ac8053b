// Command energyd serves the DVFS-aware energy model over HTTP. Where
// cmd/paper recalibrates per process, energyd calibrates
// once at startup — or loads a -cache sample CSV and skips the
// measurement campaign entirely — and then answers prediction and
// autotuning queries until terminated:
//
//	POST /v1/predict       — Eq. 9 energy + parts for an op profile
//	POST /v1/autotune      — best (f_core, f_mem) vs the time oracle,
//	                         served from a keyed LRU + single-flight cache
//	GET  /v1/calibration   — Table I, model constants, CV statistics
//	POST /v1/fleet/predict — predict routed across the device fleet
//	POST /v1/fleet/place   — cheapest (device, setting) across the fleet
//	GET  /v1/fleet/devices — fleet inventory with per-device health
//	GET  /healthz          — liveness (stays 200 in degraded mode)
//	GET  /readyz           — readiness (503 once no device can sweep)
//	GET  /metrics          — Prometheus text format
//
// With -fleet fleet.json the daemon serves a heterogeneous multi-device
// fleet: each declared device gets its own simulator, calibration
// (loaded from its calibration_cache CSV, or synthesized instantly from
// its declared parameters), seed lineage, sweep cache and circuit
// breaker, and traffic shards across devices by consistent hashing.
// Without -fleet it serves the single local device exactly as before —
// the degenerate one-device fleet, byte-identical on the wire.
//
// Per-device circuit breakers guard the autotune sweep paths: after
// -breaker-threshold consecutive sweep failures a device's breaker
// opens for -breaker-cooldown, during which its autotunes serve stale
// cached sweeps flagged "degraded": true and fresh sweep traffic fails
// over along the hash ring. -force-degraded pins every breaker open for
// drills. SIGINT/SIGTERM drain in-flight requests before the process
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dvfsroofline/internal/cli"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/units"
)

func main() {
	app := cli.New("energyd")
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	fleetPath := flag.String("fleet", "", "fleet config JSON (list of device specs); empty = single local device")
	cacheCap := flag.Int("cachecap", 64, "autotune sweep cache capacity per device (entries)")
	sweepTimeout := flag.Duration("sweep-timeout", 30*time.Second, "server-side cap on one autotune sweep")
	drain := flag.Duration("drain", 30*time.Second, "grace period for in-flight requests on shutdown")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive sweep failures that open a device's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "open period before a breaker allows a probe sweep")
	forceDegraded := flag.Bool("force-degraded", false, "pin the sweep breakers open at startup (degraded-mode drill)")
	admin := flag.Bool("admin", true, "enable the fleet membership API (POST/DELETE /v1/fleet/devices; fleet mode only)")
	drainDeadline := flag.Duration("drain-deadline", 30*time.Second, "default deadline a DELETE ?mode=drain waits for a device's in-flight requests")
	healthInterval := flag.Duration("health-interval", 15*time.Second, "health loop tick period (quarantine + probe; fleet mode only); 0 disables")
	quarantineAfter := flag.Int("quarantine-after", 2, "consecutive health ticks with an open breaker before a device is quarantined")
	probeBackoff := flag.Duration("probe-backoff", 30*time.Second, "base wait before a quarantined device's first recovery probe (doubles per failure)")
	driftThreshold := flag.Float64("drift-threshold", 0.75, "CUSUM threshold on accumulated relative residual before recalibration; 0 disables the drift watchdog")
	driftSlack := flag.Float64("drift-slack", 0.05, "per-observation relative residual absorbed before drift accumulates")
	driftWindow := flag.Int("drift-window", 32, "sweep candidates folded into the drift statistic per observation")
	app.Parse()
	drift, err := driftConfig(*driftWindow, *driftSlack, *driftThreshold)
	if err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "energyd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := serve.Options{
		CacheSize:        *cacheCap,
		SweepTimeout:     *sweepTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}
	// The serving config drops the CLI progress callback: request sweeps
	// run concurrently and must not share the App's milestone tracker.
	cfg := app.Config()
	cfg.OnProgress = nil

	var s *serve.Server
	var reg *fleet.Registry
	if *fleetPath != "" {
		fc, err := fleet.LoadConfig(*fleetPath)
		app.Check(err)
		reg, err = fleet.Build(fc, cfg, cli.LoadCalibration, opts.NodeOptions())
		app.Check(err)
		for _, n := range reg.Nodes() {
			log.Printf("device %q ready: %d samples, seed %d, grids cal=%d full=%d",
				n.ID, len(n.Cal().Samples), n.Cfg.Seed, len(n.Grids["calibration"]), len(n.Grids["full"]))
		}
		fleetSeed := fleet.ResolveSeed(fc, cfg)
		if *admin {
			opts.Admin = &fleet.Admin{
				FleetSeed: fleetSeed,
				Base:      cfg,
				Load:      cli.LoadCalibration,
				Node:      opts.NodeOptions(),
			}
			opts.DrainDeadline = *drainDeadline
		}
		opts.Drift = drift
		s = serve.NewFleet(reg, opts)
		log.Printf("fleet ready: %d devices (admin=%v, drift=%v)", len(reg.Nodes()), *admin, drift != nil)
		if *healthInterval > 0 {
			health := fleet.NewHealth(reg, fleet.HealthConfig{
				QuarantineAfter: *quarantineAfter,
				ProbeBackoff:    *probeBackoff,
				Seed:            fleetSeed,
			}, nil)
			go func() {
				t := time.NewTicker(*healthInterval)
				defer t.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case now := <-t.C:
						health.Tick(ctx, now)
					}
				}
			}()
		}
	} else {
		dev := app.Device()
		cal, err := app.Calibrate(ctx, dev)
		app.Check(err)
		log.Printf("calibration ready: %d samples, 16-fold CV mean %.2f%%",
			len(cal.Samples), cal.KFold.Percent().Mean)
		s = serve.New(dev, cal, cfg, opts)
	}
	if *forceDegraded {
		s.ForceBreakerOpen(true)
		log.Printf("sweep breakers forced open: autotune serves cached results only")
	}
	l, err := net.Listen("tcp", *addr)
	app.Check(err)
	log.Printf("listening on http://%s (endpoints: /v1/predict /v1/autotune /v1/calibration /v1/fleet/predict /v1/fleet/place /v1/fleet/devices /healthz /readyz /metrics)", l.Addr())

	app.Check(serve.Run(ctx, l, s.Handler(), *drain))
	if reg != nil {
		// The listener is closed and its handlers have finished; drain
		// the whole fleet so device-level in-flight work (background
		// recalibrations aside) is accounted for before exit.
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		if reg.DrainAll(dctx) {
			log.Printf("fleet drained")
		} else {
			log.Printf("fleet drain deadline expired with requests in flight")
		}
		cancel()
	}
	log.Printf("drained, bye")
}

// driftConfig builds the drift watchdog's tuning from the -drift-* flags.
// It returns nil when -drift-threshold is 0, which disables the
// watchdog, and an error naming the first flag that fails
// fleet.DriftConfig.Validate.
func driftConfig(window int, slack, threshold float64) (*fleet.DriftConfig, error) {
	cfg := fleet.DriftConfig{Window: window, Slack: units.Ratio(slack), Threshold: units.Ratio(threshold)}
	for _, f := range []struct {
		flag string
		cfg  fleet.DriftConfig
	}{
		{"-drift-window", fleet.DriftConfig{Window: cfg.Window}},
		{"-drift-slack", fleet.DriftConfig{Slack: cfg.Slack}},
		{"-drift-threshold", fleet.DriftConfig{Threshold: cfg.Threshold}},
	} {
		if err := f.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("invalid %s: %w", f.flag, err)
		}
	}
	if threshold == 0 {
		return nil, nil
	}
	return &cfg, nil
}
