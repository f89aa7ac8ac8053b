// Package serve turns calibrated DVFS-aware energy models into a
// long-lived prediction service: energyd. The paper's pipeline
// recalibrates per process — 1856 measurements before the first
// prediction — which caps it at one-shot experiment runs. This package
// serves one device (the legacy mode) or a heterogeneous fleet of them
// (see internal/fleet) behind one HTTP surface:
//
//	POST /v1/predict       — Eq. 9 energy + per-component parts for an
//	                         operation profile at a DVFS setting
//	POST /v1/autotune      — best (f_core, f_mem) over a setting grid vs
//	                         the race-to-halt time oracle, backed by a
//	                         per-device keyed LRU + single-flight cache
//	GET  /v1/calibration   — Table I rows, model constants, CV statistics
//	POST /v1/fleet/predict — predict routed across the fleet; the answer
//	                         names the device that served it
//	POST /v1/fleet/place   — cheapest placement: sweep every device and
//	                         argmin measured energy across the fleet
//	GET  /v1/fleet/devices — fleet inventory with per-device health
//	GET  /healthz          — liveness
//	GET  /readyz           — readiness; 503 while no device can sweep
//	GET  /metrics          — Prometheus text format (hand-rolled)
//	GET  /v1/stats         — the same counters as JSON: per-device
//	                         breaker/cache/energy ledgers, per-endpoint
//	                         status counts (machine-readable, for the
//	                         energyload replay report)
//
// Request routing is deterministic: predict and autotune traffic lands
// on a device by consistent hash of the workload identity (cache
// affinity), failing over in ring order around open breakers; placement
// shards every device's sweep onto one worker pool with
// identity-derived seeds. Fleet answers are therefore byte-identical at
// any worker count and for any routing history.
//
// Single-device mode is the degenerate one-node fleet: the node carries
// the reserved empty ID, which keeps device labels off every legacy
// wire format, so existing clients see byte-identical responses.
//
// Request deadlines propagate as context.Context into the experiment
// pipelines, and Run drains in-flight requests on shutdown.
//
// A per-device circuit breaker guards each sweep path: consecutive
// sweep failures open it, after which that device answers autotunes
// from its stale sweep cache with "degraded": true (or 503 on a cache
// miss) instead of queueing more doomed sweeps, and /readyz reports 503
// once no device can accept fresh sweeps while /healthz stays 200.
package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/tegra"
)

// Options tune the server; the zero value selects sensible defaults.
type Options struct {
	// CacheSize bounds each device's autotune sweep cache (entries);
	// zero = 64.
	CacheSize int
	// SweepTimeout caps the time one autotune sweep may run, independent
	// of any client-supplied deadline; zero = 30 s.
	SweepTimeout time.Duration
	// BreakerThreshold is the number of consecutive sweep failures that
	// open a device's circuit breaker; zero = 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before allowing
	// a half-open probe sweep; zero = 30 s.
	BreakerCooldown time.Duration
	// Clock overrides the server's time source — breaker cooldowns and
	// request-latency metrics (tests); nil = time.Now.
	Clock func() time.Time
	// Admin enables the fleet membership API (POST and DELETE on
	// /v1/fleet/devices): nil disables it, and legacy single-device
	// servers never enable it regardless.
	Admin *fleet.Admin
	// DrainDeadline bounds how long a DELETE ?mode=drain waits for a
	// device's in-flight requests before removing it anyway; zero = 30 s.
	DrainDeadline time.Duration
	// Drift enables the calibration drift watchdog over fresh sweep
	// results; nil disables it.
	Drift *fleet.DriftConfig
	// Recalibrate re-fits a drifted device's constants; nil selects
	// fleet.DefaultRecalibrator. Only consulted when Drift is set.
	Recalibrate fleet.Recalibrator
	// SyncRecalibrate runs drift recalibrations on the request goroutine
	// that detected the drift instead of in the background — for
	// deterministic tests; production leaves it false.
	SyncRecalibrate bool
}

func (o Options) withDefaults() Options {
	if o.SweepTimeout <= 0 {
		o.SweepTimeout = 30 * time.Second
	}
	if o.DrainDeadline <= 0 {
		o.DrainDeadline = 30 * time.Second
	}
	if o.Clock == nil {
		//energylint:allow determinism(the clock is injected via Options.Clock; wall time is the production default and tests override it)
		o.Clock = time.Now
	}
	if o.Recalibrate == nil {
		o.Recalibrate = fleet.DefaultRecalibrator
	}
	return o
}

// NodeOptions projects the server options onto the per-device knobs
// fleet.Build expects, so cmd/energyd configures both layers from one
// flag set.
func (o Options) NodeOptions() fleet.NodeOptions {
	return fleet.NodeOptions{
		CacheSize:        o.CacheSize,
		BreakerThreshold: o.BreakerThreshold,
		BreakerCooldown:  o.BreakerCooldown,
		Clock:            o.Clock,
	}
}

// Server answers model queries against a registry of calibrated
// devices. It is safe for concurrent use: the registry is read-only
// after construction, and each node's cache, breaker and the metrics
// synchronize internally.
type Server struct {
	reg *fleet.Registry
	// legacy marks single-device mode: one node with the reserved empty
	// ID, no device labels on any wire format, responses byte-identical
	// to the pre-fleet daemon.
	legacy  bool
	metrics *metrics
	// opts are the Options with defaults applied; a legacy server's
	// Admin is cleared, since one device has no membership to administer.
	opts Options
}

// New builds a single-device server around a fitted calibration: the
// degenerate one-node fleet. The node carries the reserved empty ID, so
// every response and metric line is byte-identical to the pre-fleet
// daemon.
func New(dev *tegra.Device, cal *experiments.Calibration, cfg experiments.Config, opts Options) *Server {
	// The zero spec has no DVFS bounds: "calibration" is the paper's 16
	// measured settings, "full" all 105 permutations.
	grids, err := fleet.Spec{}.Grids()
	if err != nil {
		panic(err) // unreachable: an unbounded spec never empties a grid
	}
	reg, err := fleet.NewRegistry([]*fleet.Node{fleet.NewNode("", dev, cal, cfg, grids, opts.NodeOptions())}, 0)
	if err != nil {
		panic(err) // unreachable: one node, no duplicate IDs
	}
	return NewFleet(reg, opts)
}

// NewFleet builds a server over an assembled registry (see
// fleet.Build). A registry whose only member carries the reserved empty
// ID is single-device mode.
func NewFleet(reg *fleet.Registry, opts Options) *Server {
	opts = opts.withDefaults()
	nodes := reg.Nodes()
	legacy := len(nodes) == 1 && nodes[0].ID == ""
	if legacy {
		opts.Admin = nil
	}
	return &Server{reg: reg, legacy: legacy, metrics: newMetrics(), opts: opts}
}

// Registry exposes the fleet behind the server.
func (s *Server) Registry() *fleet.Registry { return s.reg }

// ForceBreakerOpen pins every device's sweep breaker open (degraded-mode
// drill) or releases the pins. See the -force-degraded flag of
// cmd/energyd.
func (s *Server) ForceBreakerOpen(v bool) {
	for _, n := range s.reg.Nodes() {
		n.Breaker.ForceOpen(v)
	}
}

// Handler returns the daemon's routing table with every endpoint
// instrumented for /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/predict", s.instrument("/v1/predict", s.handlePredict))
	mux.Handle("/v1/autotune", s.instrument("/v1/autotune", s.handleAutotune))
	mux.Handle("/v1/calibration", s.instrument("/v1/calibration", s.handleCalibration))
	mux.Handle("/v1/fleet/predict", s.instrument("/v1/fleet/predict", s.handleFleetPredict))
	mux.Handle("/v1/fleet/place", s.instrument("/v1/fleet/place", s.handleFleetPlace))
	mux.Handle("/v1/fleet/devices", s.instrument("/v1/fleet/devices", s.handleFleetDevices))
	// The per-device subtree carries the membership verbs:
	// DELETE /v1/fleet/devices/{id}?mode=drain|evict.
	mux.Handle("/v1/fleet/devices/", s.instrument("/v1/fleet/devices/{id}", s.handleFleetDevice))
	mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("/readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("/metrics", s.handleMetrics)
	// /v1/stats is deliberately uninstrumented, like /metrics: reading
	// the counters must not move them, or a replay report could never
	// reconcile its request totals against the server's.
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// maxBodyBytes bounds request bodies; profiles are a handful of numbers.
const maxBodyBytes = 1 << 20

// reply is one instrumented handler's answer: the status, the value to
// encode as the JSON body, and the device it names ("" for none).
type reply struct {
	code   int
	body   any
	device string
}

// fail builds an error reply. The device goes into both places a client
// may look for it, the body's device_id and the X-Energyd-Device header,
// so the two can never disagree; "" leaves both out, as legacy mode
// (the empty ID) always does.
func fail(code int, msg, device string) reply {
	return reply{code, ErrorJSON{Error: msg, DeviceID: device}, device}
}

// instrument wraps each instrumented endpoint: it caps the body, runs
// the handler, writes the reply through writeJSON (which names the
// reply's device in a header, so success bodies stay the same for one
// device or fifty), and records in-flight, count and latency under the
// status writeJSON sent.
func (s *Server) instrument(endpoint string, h func(*http.Request) reply) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.addInflight(1)
		defer s.metrics.addInflight(-1)
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		start := s.opts.Clock()
		code := writeJSON(w, h(r))
		s.metrics.observe(endpoint, code, s.opts.Clock().Sub(start).Seconds())
	})
}

// Run serves h on l until ctx is cancelled, then shuts the server down
// gracefully: the listener closes immediately, in-flight requests drain,
// and Run returns once every handler has finished (or drainTimeout
// elapses, whichever is first). This is the SIGINT/SIGTERM path of
// cmd/energyd.
func Run(ctx context.Context, l net.Listener, h http.Handler, drainTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}
