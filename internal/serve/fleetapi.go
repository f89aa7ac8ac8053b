package serve

import (
	"context"
	"fmt"
	"net/http"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/units"
)

// FleetPredictRequest is a predict request routed across the fleet.
// device pins the answer to one named device; otherwise the request's
// consistent hash picks its deterministic home.
type FleetPredictRequest struct {
	PredictRequest
	Device string `json:"device,omitempty"`
}

// FleetPredictResponse names the device whose simulator and calibration
// produced the embedded prediction.
type FleetPredictResponse struct {
	DeviceID string `json:"device_id,omitempty"`
	PredictResponse
}

func (s *Server) handleFleetPredict(r *http.Request) reply {
	var req FleetPredictRequest
	if rep, ok := decodeJSON(r, &req); !ok {
		return rep
	}
	// ?route= selects the placement policy: "hash" (the default) is the
	// consistent-hash home with its cache affinity and deterministic
	// answers; "least_loaded" sheds bursts onto the idlest device at the
	// cost of affinity. A pinned device overrides either.
	route := r.URL.Query().Get("route")
	switch route {
	case "", "hash", "least_loaded":
	default:
		return fail(http.StatusBadRequest, fmt.Sprintf("unknown route %q (want \"hash\" or \"least_loaded\")", route), "")
	}
	var node *fleet.Node
	switch {
	case req.Device != "":
		n, _, rep, ok := s.calibrated(req.Device)
		if !ok {
			return rep
		}
		node = n
	case route == "least_loaded":
		node = s.reg.LeastLoaded()
	default:
		node = s.reg.Route(predictKey(req.PredictRequest))
	}
	return s.predict(node, req.PredictRequest, true)
}

// DevicePlacement is one device's sweep outcome inside a /v1/fleet/place
// answer: the three §II-E picks over that device's own grid slice.
type DevicePlacement struct {
	DeviceID   string `json:"device_id"`
	Candidates int    `json:"candidates"`
	Picks
}

// PlaceSkip records a device that could not contribute to a placement
// and why (open breaker, sweep failure).
type PlaceSkip struct {
	DeviceID string `json:"device_id"`
	Reason   string `json:"reason"`
}

// PlaceResponse is the answer to a /v1/fleet/place request: every
// device's sweep outcome sorted by device ID, and the winner — the
// argmin of measured sweep energy across the fleet, ties broken by ID.
// The body carries no cache or degraded flags: a placement is a pure
// function of the workload and the fleet, so repeated calls return
// byte-identical answers.
type PlaceResponse struct {
	Grid       string            `json:"grid"`
	Devices    []DevicePlacement `json:"devices"`
	Skipped    []PlaceSkip       `json:"skipped,omitempty"`
	Winner     string            `json:"winner"`
	WinnerPick PickJSON          `json:"winner_pick"`
}

// handleFleetPlace answers "which device runs this workload cheapest,
// and at which DVFS setting?" Each active device is admitted through
// its sweep protocol (fleet.Node.Admit), the admitted devices' sweeps
// shard as (device, setting) units onto one worker pool
// (experiments.SweepTargets), and each device settles its own outcome.
// Devices whose breaker refuses a cold cache are skipped, not failed —
// a placement over the surviving fleet is still useful, and the skip
// list says what it omits. A degraded hit counts as a plain hit: the
// body has no degraded flag to carry it.
func (s *Server) handleFleetPlace(r *http.Request) reply {
	var req AutotuneRequest
	if rep, ok := decodeJSON(r, &req); !ok {
		return rep
	}
	gridName, wl, timeout := s.sweepRequest(req)
	if err := wl.Validate(); err != nil {
		return fail(http.StatusBadRequest, err.Error(), "")
	}
	// Placement considers active devices only: draining and quarantined
	// members keep their in-flight work but take no new sweeps.
	nodes := s.reg.Active()
	if len(nodes) == 0 {
		return fail(http.StatusServiceUnavailable, "no active device in the fleet", "")
	}
	if _, ok := nodes[0].Grids[gridName]; !ok {
		return fail(http.StatusBadRequest, unknownGrid(gridName), "")
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// sweeps holds each node's candidates, indexed like nodes; nil marks
	// a skipped device. swept maps each target back to its node.
	sweeps := make([][]core.Candidate, len(nodes))
	var skips []PlaceSkip
	var targets []experiments.SweepTarget
	var swept []int
	for i, n := range nodes {
		cands, out := n.Admit(autotuneKey(gridName, wl, n.Cfg.Seed))
		s.charge(n, out, cands)
		switch out {
		case fleet.SweepCached:
			sweeps[i] = cands
		case fleet.SweepSkipped:
			skips = append(skips, PlaceSkip{DeviceID: n.ID, Reason: "sweep breaker open and no cached sweep"})
		case fleet.SweepAdmitted:
			// Held until the reply, as autotune holds its device, so a
			// drain waits for this sweep.
			release := n.Acquire()
			defer release()
			targets = append(targets, experiments.SweepTarget{Dev: n.Dev, Cfg: n.Cfg, Grid: n.Grids[gridName]})
			swept = append(swept, i)
		}
	}
	if len(targets) > 0 {
		results, err := experiments.SweepTargets(ctx, nodes[0].Cfg, wl, targets)
		if err != nil {
			// The fan-out as a whole was cancelled or timed out: no
			// device has an outcome of its own.
			for _, i := range swept {
				nodes[i].Abandon()
				s.charge(nodes[i], fleet.SweepFailed, nil)
			}
			code, msg := sweepStatus(err)
			return fail(code, msg, "")
		}
		for t, res := range results {
			i := swept[t]
			n := nodes[i]
			n.Settle(autotuneKey(gridName, wl, n.Cfg.Seed), res.Candidates, res.Err)
			if res.Err != nil {
				s.charge(n, fleet.SweepFailed, nil)
				skips = append(skips, PlaceSkip{DeviceID: n.ID, Reason: res.Err.Error()})
				continue
			}
			s.charge(n, fleet.SweepFresh, res.Candidates)
			sweeps[i] = res.Candidates
		}
	}
	// Score per device and take the fleet argmin. Iterating nodes in
	// sorted-ID order makes the strict < tie-break deterministic.
	resp := PlaceResponse{Grid: gridName, Devices: make([]DevicePlacement, 0, len(nodes)), Skipped: skips}
	winner := -1
	for i, n := range nodes {
		if sweeps[i] == nil {
			continue
		}
		row := DevicePlacement{DeviceID: n.ID, Candidates: len(sweeps[i]), Picks: scoreSweep(n.Cal().Model, sweeps[i])}
		if winner < 0 || row.MeasuredMin.MeasuredJ < resp.Devices[winner].MeasuredMin.MeasuredJ {
			winner = len(resp.Devices)
		}
		resp.Devices = append(resp.Devices, row)
	}
	if winner < 0 {
		return fail(http.StatusServiceUnavailable, "no device could sweep this workload", "")
	}
	resp.Winner = resp.Devices[winner].DeviceID
	resp.WinnerPick = resp.Devices[winner].MeasuredMin
	s.metrics.addAnsweredJoules(resp.Winner, float64(resp.WinnerPick.MeasuredJ))
	return reply{http.StatusOK, resp, ""}
}

// DeviceInfo is one device's row in the fleet inventory. Samples and
// Coverage are zero while a runtime-added device is still calibrating.
type DeviceInfo struct {
	DeviceID string `json:"device_id"`
	Seed     int64  `json:"seed"`
	// State is the membership lifecycle state (active, calibrating,
	// draining, quarantined, probing).
	State   string `json:"state"`
	Breaker string `json:"breaker"`
	// CalGeneration counts calibration swaps: 1 from boot, +1 per drift
	// recalibration.
	CalGeneration  uint64         `json:"cal_generation"`
	Recalibrations uint64         `json:"recalibrations"`
	Quarantines    uint64         `json:"quarantines"`
	Samples        int            `json:"samples"`
	Coverage       units.Ratio    `json:"coverage"`
	CacheEntries   int            `json:"cache_entries"`
	Inflight       int64          `json:"inflight"`
	Grids          map[string]int `json:"grids"`
}

// DevicesResponse is the answer to GET /v1/fleet/devices, sorted by
// device ID. Epoch is the registry's membership generation — it moves
// on every add, remove, and state change.
type DevicesResponse struct {
	Epoch   uint64         `json:"epoch"`
	States  map[string]int `json:"states"`
	Devices []DeviceInfo   `json:"devices"`
}

// handleFleetDevices dispatches the collection endpoint: GET lists the
// inventory, POST (admin) adds a device.
func (s *Server) handleFleetDevices(r *http.Request) reply {
	switch r.Method {
	case http.MethodGet:
		snap := s.snapshot()
		resp := DevicesResponse{Epoch: snap.epoch, States: snap.states, Devices: make([]DeviceInfo, len(snap.devices))}
		for i := range snap.devices {
			resp.Devices[i] = snap.devices[i].DeviceInfo
		}
		return reply{http.StatusOK, resp, ""}
	case http.MethodPost:
		return s.handleFleetDeviceAdd(r)
	default:
		return fail(http.StatusMethodNotAllowed, "GET or POST only", "")
	}
}
