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

// adminEnabled gates the membership verbs; the legacy single-device
// server and fleets built without an Admin reject them.
func (s *Server) adminEnabled(w http.ResponseWriter) bool {
	if s.legacy || s.admin == nil {
		writeError(w, http.StatusForbidden, "fleet membership admin is disabled")
		return false
	}
	return true
}

// handleFleetDeviceAdd admits a new device from a spec body.
func (s *Server) handleFleetDeviceAdd(w http.ResponseWriter, r *http.Request) {
	if !s.adminEnabled(w) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	spec, err := fleet.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, ok := s.reg.Get(spec.ID); ok {
		writeErrorDev(w, http.StatusConflict, fmt.Sprintf("device %q already in the fleet", spec.ID), spec.ID)
		return
	}
	node, err := s.admin.BuildNode(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.reg.Add(node, fleet.StateCalibrating); err != nil {
		// A concurrent add of the same ID won the race.
		writeErrorDev(w, http.StatusConflict, err.Error(), spec.ID)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if err := s.calibrateAndActivate(node); err != nil {
			writeErrorDev(w, http.StatusInternalServerError, err.Error(), spec.ID)
			return
		}
		markDevice(w, node.ID)
		writeJSON(w, http.StatusCreated, AddDeviceResponse{
			DeviceID: node.ID, State: node.State().String(), Seed: node.Cfg.Seed,
		})
		return
	}
	go func() { _ = s.calibrateAndActivate(node) }()
	markDevice(w, node.ID)
	writeJSON(w, http.StatusAccepted, AddDeviceResponse{
		DeviceID: node.ID, State: node.State().String(), Seed: node.Cfg.Seed,
	})
}

// calibrateAndActivate lands a newly added device's calibration and puts
// it on the ring; on failure the device leaves the fleet again — a node
// that cannot calibrate must not linger in limbo holding its ID.
func (s *Server) calibrateAndActivate(node *fleet.Node) error {
	cal, err := s.admin.Calibrate(node.Spec)
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
func (s *Server) handleFleetDevice(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/fleet/devices/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "want /v1/fleet/devices/{id}")
		return
	}
	if r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "DELETE only")
		return
	}
	if !s.adminEnabled(w) {
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "drain"
	}
	if _, ok := s.reg.Get(id); !ok {
		writeErrorDev(w, http.StatusNotFound, fmt.Sprintf("unknown device %q", id), id)
		return
	}
	var graceful bool
	var err error
	switch mode {
	case "evict":
		err = s.reg.Evict(id)
	case "drain":
		deadline := s.drainDeadline
		if ds := r.URL.Query().Get("deadline_s"); ds != "" {
			sec, perr := strconv.ParseFloat(ds, 64)
			d, ok := clientDuration(sec)
			if perr != nil || !ok {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("bad deadline_s %q", ds))
				return
			}
			deadline = d
		}
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()
		graceful, err = s.reg.Drain(ctx, id)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want \"drain\" or \"evict\")", mode))
		return
	}
	if err != nil {
		writeErrorDev(w, http.StatusNotFound, err.Error(), id)
		return
	}
	markDevice(w, id)
	writeJSON(w, http.StatusOK, RemoveDeviceResponse{
		DeviceID: id, Mode: mode, State: fleet.StateRemoved.String(), Graceful: graceful,
	})
}

// observeSweep feeds one fresh sweep's candidates to the drift watchdog
// and, when it fires, runs the recalibration — inline when
// SyncRecalibrate is set, in the background otherwise. The busy flag on
// the node guarantees one campaign per device at a time; the constants
// swap atomically on success, so serving never pauses.
func (s *Server) observeSweep(n *fleet.Node, cands []core.Candidate) {
	if s.drift == nil {
		return
	}
	if !n.ObserveSweep(*s.drift, cands) || !n.BeginRecalibration() {
		return
	}
	run := func() {
		cal, err := s.recal(context.Background(), n)
		n.FinishRecalibration(cal, err)
	}
	if s.syncRecal {
		run()
		return
	}
	go run()
}
