package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/fleet"
)

// Fleet membership admin API.
//
//	POST   /v1/fleet/devices              — add a device (body: fleet.Spec JSON)
//	DELETE /v1/fleet/devices/{id}         — remove one (?mode=drain|evict)
//
// Adding runs calibration off the request path: the device joins in the
// calibrating state (visible on the inventory, owning no ring keys) and
// activates only once its calibration lands, so a slow measured
// campaign never blocks the admin call or routes traffic to an
// unserveable node. ?wait=1 turns the call synchronous for scripts that
// want the device serving when curl returns. Draining stops new
// placements first, waits out in-flight work up to the deadline, then
// removes the device; evicting removes it immediately. Either way the
// device's ring keys re-home deterministically on the survivors and its
// single-flight waiters settle with fleet.ErrDeviceRemoved.

// AddDeviceResponse answers POST /v1/fleet/devices.
type AddDeviceResponse struct {
	DeviceID string `json:"device_id"`
	// State is the device's lifecycle state when the response was
	// written: "active" for ?wait=1, usually "calibrating" otherwise.
	State string `json:"state"`
	Seed  int64  `json:"seed"`
}

// RemoveDeviceResponse answers DELETE /v1/fleet/devices/{id}.
type RemoveDeviceResponse struct {
	DeviceID string `json:"device_id"`
	Mode     string `json:"mode"`
	State    string `json:"state"`
	// Graceful reports whether a drain saw the device idle before its
	// deadline; evictions report false.
	Graceful bool `json:"graceful"`
}

// adminGate refuses the membership verbs on fleets built without an
// Admin, which includes every legacy single-device server.
func (s *Server) adminGate() (rep reply, ok bool) {
	if s.opts.Admin == nil {
		return fail(http.StatusForbidden, "fleet membership admin is disabled", ""), false
	}
	return reply{}, true
}

// handleFleetDeviceAdd admits a new device from a spec body: 202 with
// calibration running in the background, or 201 once it serves under
// ?wait=1.
func (s *Server) handleFleetDeviceAdd(r *http.Request) reply {
	if rep, ok := s.adminGate(); !ok {
		return rep
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return fail(http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err), "")
	}
	spec, err := fleet.ParseSpec(body)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error(), "")
	}
	if _, ok := s.reg.Get(spec.ID); ok {
		return fail(http.StatusConflict, fmt.Sprintf("device %q already in the fleet", spec.ID), spec.ID)
	}
	node, err := s.opts.Admin.BuildNode(spec)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error(), "")
	}
	if err := s.reg.Add(node, fleet.StateCalibrating); err != nil {
		// A concurrent add of the same ID won the race.
		return fail(http.StatusConflict, err.Error(), spec.ID)
	}
	code := http.StatusCreated
	if r.URL.Query().Get("wait") == "" {
		code = http.StatusAccepted
		go func() { _ = s.calibrateAndActivate(node) }()
	} else if err := s.calibrateAndActivate(node); err != nil {
		return fail(http.StatusInternalServerError, err.Error(), spec.ID)
	}
	return reply{code, AddDeviceResponse{
		DeviceID: node.ID, State: node.State().String(), Seed: node.Cfg.Seed,
	}, node.ID}
}

// calibrateAndActivate lands a newly added device's calibration and puts
// it on the ring; on failure the device leaves the fleet again — a node
// that cannot calibrate must not linger in limbo holding its ID.
func (s *Server) calibrateAndActivate(node *fleet.Node) error {
	cal, err := s.opts.Admin.Calibrate(node.Spec)
	if err != nil {
		_ = s.reg.Evict(node.ID)
		return fmt.Errorf("calibrating device %q: %w", node.ID, err)
	}
	node.SetCalibration(cal)
	if err := s.reg.SetState(node.ID, fleet.StateActive); err != nil {
		// Drained or evicted while calibrating; it is already gone.
		return err
	}
	return nil
}

// handleFleetDevice serves the /v1/fleet/devices/{id} subtree.
func (s *Server) handleFleetDevice(r *http.Request) reply {
	id := strings.TrimPrefix(r.URL.Path, "/v1/fleet/devices/")
	if id == "" || strings.Contains(id, "/") {
		return fail(http.StatusNotFound, "want /v1/fleet/devices/{id}", "")
	}
	if r.Method != http.MethodDelete {
		return fail(http.StatusMethodNotAllowed, "DELETE only", "")
	}
	if rep, ok := s.adminGate(); !ok {
		return rep
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "drain"
	}
	if _, ok := s.reg.Get(id); !ok {
		return fail(http.StatusNotFound, fmt.Sprintf("unknown device %q", id), id)
	}
	var graceful bool
	var err error
	switch mode {
	case "evict":
		err = s.reg.Evict(id)
	case "drain":
		deadline := s.opts.DrainDeadline
		if ds := r.URL.Query().Get("deadline_s"); ds != "" {
			sec, perr := strconv.ParseFloat(ds, 64)
			d, ok := clientDuration(sec)
			if perr != nil || !ok {
				return fail(http.StatusBadRequest, fmt.Sprintf("bad deadline_s %q", ds), "")
			}
			deadline = d
		}
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()
		graceful, err = s.reg.Drain(ctx, id)
	default:
		return fail(http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want \"drain\" or \"evict\")", mode), "")
	}
	if err != nil {
		return fail(http.StatusNotFound, err.Error(), id)
	}
	return reply{http.StatusOK, RemoveDeviceResponse{
		DeviceID: id, Mode: mode, State: fleet.StateRemoved.String(), Graceful: graceful,
	}, id}
}

// observeSweep feeds one fresh sweep's candidates to the drift watchdog
// and, when it fires, runs the recalibration — inline when
// SyncRecalibrate is set, in the background otherwise. The busy flag on
// the node guarantees one campaign per device at a time; the constants
// swap atomically on success, so serving never pauses.
func (s *Server) observeSweep(n *fleet.Node, cands []core.Candidate) {
	if s.opts.Drift == nil {
		return
	}
	if !n.ObserveSweep(*s.opts.Drift, cands) || !n.BeginRecalibration() {
		return
	}
	run := func() {
		cal, err := s.opts.Recalibrate(context.Background(), n)
		n.FinishRecalibration(cal, err)
	}
	if s.opts.SyncRecalibrate {
		run()
		return
	}
	go run()
}
