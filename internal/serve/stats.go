package serve

import (
	"fmt"
	"net/http"

	"dvfsroofline/internal/units"
)

// This file is the machine-readable counterpart of /metrics: a JSON
// snapshot of the serving counters, added so the energyload replayer
// (cmd/energyload) can reconcile its client-side report against the
// server's view without parsing Prometheus text exposition. The
// response marshals deterministically — device rows sort by ID and
// encoding/json sorts map keys — so two identically-seeded runs that
// served identical traffic produce byte-identical snapshots.

// DeviceStats is one device's counter row in a /v1/stats snapshot.
// SweepJ integrates the measured energy of every candidate the device's
// fresh sweeps burned through; AnsweredJ integrates the energy of the
// picks it returned to clients. AnsweredJ/SweepJ — energy answered per
// joule of sweep work — is the cache's leverage: answers served from
// cache or joined flights grow the numerator at zero sweep cost.
type DeviceStats struct {
	DeviceID       string      `json:"device_id"`
	State          string      `json:"state"`
	Breaker        string      `json:"breaker"`
	BreakerOpens   uint64      `json:"breaker_opens"`
	CalGeneration  uint64      `json:"cal_generation"`
	Recalibrations uint64      `json:"recalibrations"`
	Quarantines    uint64      `json:"quarantines"`
	CacheHits      uint64      `json:"cache_hits"`
	CacheMisses    uint64      `json:"cache_misses"`
	DegradedServes uint64      `json:"degraded_serves"`
	SweepJ         units.Joule `json:"sweep_j"`
	AnsweredJ      units.Joule `json:"answered_j"`
	Inflight       int64       `json:"inflight"`
}

// EndpointStats is one endpoint's request counters, split by HTTP
// status code (keys are the decimal codes, e.g. "200").
type EndpointStats struct {
	Requests uint64            `json:"requests"`
	ByCode   map[string]uint64 `json:"by_code"`
}

// StatsResponse is the answer to GET /v1/stats. Epoch and States track
// fleet membership: the registry generation and the per-lifecycle-state
// device counts (active/draining/quarantined/...).
type StatsResponse struct {
	Epoch     uint64                   `json:"epoch"`
	States    map[string]int           `json:"states"`
	Devices   []DeviceStats            `json:"devices"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, fail(http.StatusMethodNotAllowed, "GET only", ""))
		return
	}
	snap := s.snapshot()
	c := &snap.counts
	resp := StatsResponse{
		Epoch:     snap.epoch,
		States:    snap.states,
		Devices:   make([]DeviceStats, len(snap.devices)),
		Endpoints: make(map[string]EndpointStats, len(c.endpoints)),
	}
	// Every member gets a row, zero counters included, so a report can
	// always find the device it routed to; members sort by ID, which
	// keeps the array order deterministic.
	for i := range snap.devices {
		d := &snap.devices[i]
		resp.Devices[i] = DeviceStats{
			DeviceID: d.DeviceID, State: d.State, Breaker: d.Breaker, BreakerOpens: d.opens,
			CalGeneration: d.CalGeneration, Recalibrations: d.Recalibrations, Quarantines: d.Quarantines,
			CacheHits: c.hits[d.DeviceID], CacheMisses: c.misses[d.DeviceID], DegradedServes: c.degraded[d.DeviceID],
			SweepJ: units.Joule(c.sweepJ[d.DeviceID]), AnsweredJ: units.Joule(c.answeredJ[d.DeviceID]),
			Inflight: d.Inflight,
		}
	}
	for ep, m := range c.endpoints {
		e := EndpointStats{ByCode: make(map[string]uint64, len(m.codes))}
		for code, count := range m.codes {
			e.ByCode[fmt.Sprintf("%d", code)] = count
			e.Requests += count
		}
		resp.Endpoints[ep] = e
	}
	writeJSON(w, reply{http.StatusOK, resp, ""})
}
