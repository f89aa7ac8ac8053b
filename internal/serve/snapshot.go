package serve

import (
	"fmt"
	"net/http"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/units"
)

// snapshot is everything the read endpoints render, taken at one
// instant from two reads: one registry view (epoch, members and the
// state each had in that epoch) and one copy of the counters under the
// metrics lock. /healthz, /readyz, /metrics, /v1/stats and
// /v1/fleet/devices are pure renderers of it, so no body mixes two
// epochs and no response is written while the metrics lock is held.
type snapshot struct {
	epoch   uint64
	states  map[string]int // device count per lifecycle state
	devices []deviceSnap   // the epoch's members, sorted by ID
	counts  countersSnapshot
}

// deviceSnap is one member as the snapshot saw it: every live field of
// the node is read exactly once, straight into its inventory row.
type deviceSnap struct {
	DeviceInfo
	state   fleet.NodeState // as the epoch published it
	breaker fleet.BreakerState
	opens   uint64
	cal     *experiments.Calibration // nil while a runtime add calibrates
}

// snapshot takes the one registry view and the one counters copy the
// read endpoints render from.
func (s *Server) snapshot() *snapshot {
	epoch, nodes, states := s.reg.Members()
	snap := &snapshot{epoch: epoch, states: make(map[string]int), devices: make([]deviceSnap, len(nodes))}
	for i, n := range nodes {
		d := &snap.devices[i]
		d.state, d.cal = states[i], n.Cal()
		d.breaker, d.opens = n.Breaker.Snapshot()
		d.DeviceInfo = DeviceInfo{
			DeviceID: n.ID, Seed: n.Cfg.Seed, State: d.state.String(), Breaker: d.breaker.String(),
			CalGeneration: n.CalGeneration(), Recalibrations: n.Recalibrations(), Quarantines: n.Quarantines(),
			CacheEntries: n.Cache.Len(), Inflight: n.Load(), Grids: make(map[string]int, len(n.Grids)),
		}
		if d.cal != nil {
			d.Samples, d.Coverage = len(d.cal.Samples), units.Ratio(d.cal.Coverage.Fraction())
		}
		for name, g := range n.Grids {
			d.Grids[name] = len(g)
		}
		snap.states[d.State]++
	}
	snap.counts = s.metrics.snapshot()
	return snap
}

// handleHealthz is liveness only: the process is up and holds
// calibrations. It stays 200 in degraded mode so orchestrators do not
// restart a daemon that is usefully serving stale answers.
func (s *Server) handleHealthz(*http.Request) reply {
	snap := s.snapshot()
	samples := 0
	for i := range snap.devices {
		samples += snap.devices[i].Samples
	}
	body := map[string]any{"status": "ok", "samples": samples}
	if !s.legacy {
		body["devices"] = len(snap.devices)
	}
	return reply{http.StatusOK, body, ""}
}

// handleReadyz is readiness. Legacy mode keeps its historic contract:
// 503 while the single device's breaker is open. Fleet mode reports
// per-state device counts and fails readiness only when zero devices
// are active — a fleet with one healthy member out of fifty is still a
// fleet worth routing to, and open breakers alone mean degraded cached
// serving, not unreadiness.
func (s *Server) handleReadyz(*http.Request) reply {
	snap := s.snapshot()
	if s.legacy {
		d := &snap.devices[0]
		code, status := http.StatusOK, "ready"
		if d.breaker == fleet.BreakerOpen {
			code, status = http.StatusServiceUnavailable, "degraded"
		}
		return reply{code, map[string]any{
			"status": status, "breaker": d.Breaker, "samples": d.Samples, "coverage": d.Coverage,
		}, ""}
	}
	open := 0
	devices := make([]deviceReadiness, len(snap.devices))
	for i := range snap.devices {
		d := &snap.devices[i]
		if d.breaker == fleet.BreakerOpen {
			open++
		}
		devices[i] = deviceReadiness{DeviceID: d.DeviceID, State: d.State, Breaker: d.Breaker, Samples: d.Samples, Coverage: d.Coverage}
	}
	active := snap.states[fleet.StateActive.String()]
	code, status := http.StatusOK, "ready"
	if active == 0 {
		code, status = http.StatusServiceUnavailable, "no-active-devices"
	}
	return reply{code, map[string]any{
		"status":  status,
		"epoch":   snap.epoch,
		"active":  active,
		"open":    open,
		"states":  snap.states,
		"devices": devices,
	}, ""}
}

// deviceReadiness is one device's row in the fleet /readyz body.
type deviceReadiness struct {
	DeviceID string      `json:"device_id"`
	State    string      `json:"state"`
	Breaker  string      `json:"breaker"`
	Samples  int         `json:"samples"`
	Coverage units.Ratio `json:"coverage"`
}

// handleMetrics renders the snapshot in the Prometheus text format, with
// deterministic ordering so the output is diffable. The counter families
// iterate the counters' own keys, not the members, so a removed device's
// totals keep printing: a Prometheus counter must never go backwards.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	family := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	c := &snap.counts
	family("energyd_requests_total", "counter", "Completed HTTP requests by endpoint and status code.")
	eps := sortedKeys(c.endpoints)
	for _, ep := range eps {
		e := c.endpoints[ep]
		for _, code := range sortedKeys(e.codes) {
			fmt.Fprintf(w, "energyd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, code, e.codes[code])
		}
	}

	family("energyd_request_duration_seconds", "histogram", "Request latency by endpoint.")
	for _, ep := range eps {
		e := c.endpoints[ep]
		for i, le := range latencyBuckets {
			fmt.Fprintf(w, "energyd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, fmt.Sprintf("%g", le), e.buckets[i])
		}
		fmt.Fprintf(w, "energyd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, e.count)
		fmt.Fprintf(w, "energyd_request_duration_seconds_sum{endpoint=%q} %g\n", ep, e.sum)
		fmt.Fprintf(w, "energyd_request_duration_seconds_count{endpoint=%q} %d\n", ep, e.count)
	}

	// Cache counters: the fleet-wide total first (the pre-fleet line, so
	// single-device scrapes are byte-identical), then per named device.
	counter := func(name, help string, m map[string]uint64) {
		family(name, "counter", help)
		fmt.Fprintf(w, "%s %d\n", name, sumCounter(m))
		for _, d := range sortedKeys(m) {
			if d != "" {
				fmt.Fprintf(w, "%s{device=%q} %d\n", name, d, m[d])
			}
		}
	}
	counter("energyd_autotune_cache_hits_total",
		"Autotune requests answered from the sweep cache (including joined in-flight sweeps).", c.hits)
	counter("energyd_autotune_cache_misses_total",
		"Autotune requests that ran a fresh sweep.", c.misses)
	counter("energyd_autotune_degraded_total",
		"Autotune requests served stale from cache while the breaker was open.", c.degraded)

	family("energyd_inflight_requests", "gauge", "Requests currently being served.")
	fmt.Fprintf(w, "energyd_inflight_requests %d\n", c.inflight)

	// perDevice prints one metric family with a line per device; value
	// returns nil to skip one. The legacy device's empty ID prints the
	// historic unlabeled line, so single-device scrape output is
	// byte-identical.
	perDevice := func(name, typ, help string, value func(d *deviceSnap) any) {
		family(name, typ, help)
		for i := range snap.devices {
			d := &snap.devices[i]
			switch v := value(d); {
			case v == nil:
			case d.DeviceID == "":
				fmt.Fprintf(w, "%s %v\n", name, v)
			default:
				fmt.Fprintf(w, "%s{device=%q} %v\n", name, d.DeviceID, v)
			}
		}
	}
	// Calibration metrics skip a runtime add still calibrating: it has
	// no coverage to report yet.
	perCal := func(name, typ, help string, value func(c experiments.Coverage) any) {
		perDevice(name, typ, help, func(d *deviceSnap) any {
			if d.cal == nil {
				return nil
			}
			return value(d.cal.Coverage)
		})
	}

	perDevice("energyd_breaker_state", "gauge", "Sweep circuit breaker state (0=closed, 1=half-open, 2=open).",
		func(d *deviceSnap) any { return int(d.breaker) })
	perDevice("energyd_breaker_opens_total", "counter", "Times the sweep breaker has opened.",
		func(d *deviceSnap) any { return d.opens })
	perCal("energyd_calibration_coverage_fraction", "gauge", "Fraction of calibration samples measured (1 = complete).",
		func(c experiments.Coverage) any { return c.Fraction() })
	perCal("energyd_calibration_retries_total", "counter", "Calibration measurement retries after transient faults.",
		func(c experiments.Coverage) any { return c.Retried })
	perCal("energyd_calibration_quarantined_total", "counter", "Calibration samples quarantined after permanent faults.",
		func(c experiments.Coverage) any { return len(c.Quarantined) })
	perCal("energyd_calibration_screened_outliers_total", "counter", "Calibration samples excluded from the fit by the robust outlier screen.",
		func(c experiments.Coverage) any { return c.ScreenedOutliers })
	if s.legacy {
		return
	}
	family("energyd_fleet_devices", "gauge", "Devices in the serving fleet.")
	fmt.Fprintf(w, "energyd_fleet_devices %d\n", len(snap.devices))
	family("energyd_fleet_epoch", "counter", "Registry membership generation; moves on every add, remove, and state change.")
	fmt.Fprintf(w, "energyd_fleet_epoch %d\n", snap.epoch)
	perDevice("energyd_device_inflight_requests", "gauge", "Requests currently holding each device.",
		func(d *deviceSnap) any { return d.Inflight })
	perDevice("energyd_device_state", "gauge", "Membership lifecycle state (0=active, 1=calibrating, 2=draining, 3=drained, 4=quarantined, 5=probing, 6=removed).",
		func(d *deviceSnap) any { return int(d.state) })
	perDevice("energyd_device_cal_generation", "counter", "Calibration generation: 1 from boot, +1 per drift recalibration.",
		func(d *deviceSnap) any { return d.CalGeneration })
	perDevice("energyd_device_quarantines_total", "counter", "Times the health loop has quarantined each device.",
		func(d *deviceSnap) any { return d.Quarantines })
	perDevice("energyd_device_recalibrations_total", "counter", "Completed drift recalibrations per device.",
		func(d *deviceSnap) any { return d.Recalibrations })
}
