package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

func del(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodDelete, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// epochOf reads the registry's current membership generation.
func epochOf(reg *fleet.Registry) uint64 {
	epoch, _, _ := reg.Members()
	return epoch
}

// adminFleet builds a 2-device fleet with the membership admin wired,
// mirroring what cmd/energyd assembles under -fleet -admin.
func adminFleet(tb testing.TB, extra serve.Options) (*serve.Server, *fleet.Registry) {
	tb.Helper()
	fc := fleet.FleetConfig{Seed: 42, Devices: []fleet.Spec{{ID: "tk1-a"}, {ID: "tk1-b"}}}
	base := experiments.Config{Seed: 42}
	reg, err := fleet.Build(fc, base, nil, fleet.NodeOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	opts := extra
	opts.Admin = &fleet.Admin{FleetSeed: fleet.ResolveSeed(fc, base), Base: base, Node: fleet.NodeOptions{}}
	if opts.DrainDeadline == 0 {
		opts.DrainDeadline = 2 * time.Second
	}
	return serve.NewFleet(reg, opts), reg
}

func TestAdminDisabledWithoutAdminWiring(t *testing.T) {
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	legacy := serve.New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, serve.Options{}).Handler()
	adminless := heterogeneousFleet(t, 0, serve.Options{}).Handler()
	for name, h := range map[string]http.Handler{"legacy": legacy, "fleet-no-admin": adminless} {
		if w := post(t, h, "/v1/fleet/devices", `{"id": "x"}`); w.Code != http.StatusForbidden {
			t.Errorf("%s: add = %d, want 403", name, w.Code)
		}
		if w := del(t, h, "/v1/fleet/devices/x?mode=evict"); w.Code != http.StatusForbidden {
			t.Errorf("%s: remove = %d, want 403", name, w.Code)
		}
	}
}

func TestAdminAddDevice(t *testing.T) {
	srv, reg := adminFleet(t, serve.Options{})
	h := srv.Handler()
	epoch := epochOf(reg)

	for name, body := range map[string]string{
		"not json":      `{`,
		"unknown field": `{"id": "x", "capacitance": 1}`,
		"empty id":      `{"id": ""}`,
		"bad bounds":    `{"id": "x", "min_core_mhz": 9000}`,
		"bad params":    `{"id": "x", "params": {"sp_pj_v2": -1}}`,
	} {
		if w := post(t, h, "/v1/fleet/devices?wait=1", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: add = %d, want 400", name, w.Code)
		}
	}
	if epochOf(reg) != epoch || len(reg.Nodes()) != 2 {
		t.Fatalf("rejected specs mutated the registry: epoch %d -> %d, len %d",
			epoch, epochOf(reg), len(reg.Nodes()))
	}

	// A synchronous add returns 201 with the device serving.
	w := post(t, h, "/v1/fleet/devices?wait=1", `{"id": "tk1-added", "params": {"misc_w": 0.3}}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("add = %d: %s", w.Code, w.Body)
	}
	var resp serve.AddDeviceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DeviceID != "tk1-added" || resp.State != "active" {
		t.Fatalf("add response = %+v, want tk1-added/active", resp)
	}
	if resp.Seed == 0 || resp.Seed == 42 {
		t.Errorf("added device seed %d not identity-derived", resp.Seed)
	}
	n, ok := reg.Get("tk1-added")
	if !ok || n.State() != fleet.StateActive || n.Cal() == nil {
		t.Fatal("added device not active and calibrated in the registry")
	}
	// It answers pinned traffic at once.
	pw := post(t, h, "/v1/fleet/predict",
		`{"profile": {"sp": 1e9, "dram_words": 2e8}, "setting_id": "max", "device": "tk1-added"}`)
	if pw.Code != http.StatusOK {
		t.Fatalf("predict on added device = %d: %s", pw.Code, pw.Body)
	}
	// The inventory reflects the new member.
	var list serve.DevicesResponse
	if err := json.Unmarshal(get(t, h, "/v1/fleet/devices").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Devices) != 3 || list.States["active"] != 3 || list.Epoch <= epoch {
		t.Errorf("inventory after add: %d devices, states %v, epoch %d", len(list.Devices), list.States, list.Epoch)
	}

	if w := post(t, h, "/v1/fleet/devices?wait=1", `{"id": "tk1-added"}`); w.Code != http.StatusConflict {
		t.Errorf("duplicate add = %d, want 409", w.Code)
	}
}

func TestAdminAddDeviceAsync(t *testing.T) {
	srv, reg := adminFleet(t, serve.Options{})
	h := srv.Handler()
	w := post(t, h, "/v1/fleet/devices", `{"id": "tk1-async"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async add = %d: %s", w.Code, w.Body)
	}
	var resp serve.AddDeviceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The 202 is written before calibration lands; the device must be
	// visible immediately and active soon after.
	if _, ok := reg.Get("tk1-async"); !ok {
		t.Fatal("202'd device not in the registry")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, ok := reg.Get("tk1-async")
		if ok && n.State() == fleet.StateActive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async-added device never activated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdminRemoveDevice(t *testing.T) {
	srv, reg := adminFleet(t, serve.Options{})
	h := srv.Handler()

	if w := del(t, h, "/v1/fleet/devices/"); w.Code != http.StatusNotFound {
		t.Errorf("empty id = %d, want 404", w.Code)
	}
	if w := get(t, h, "/v1/fleet/devices/tk1-a"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET on device = %d, want 405", w.Code)
	}
	if w := del(t, h, "/v1/fleet/devices/nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown device = %d, want 404", w.Code)
	}
	if w := del(t, h, "/v1/fleet/devices/tk1-a?mode=explode"); w.Code != http.StatusBadRequest {
		t.Errorf("bad mode = %d, want 400", w.Code)
	}
	// Non-finite deadlines and ones too large for a time.Duration would
	// otherwise wrap into a garbage (possibly already expired) deadline.
	for _, ds := range []string{"bogus", "0", "-1", "NaN", "Inf", "-Inf", "1e10", "1e300"} {
		if w := del(t, h, "/v1/fleet/devices/tk1-a?mode=drain&deadline_s="+ds); w.Code != http.StatusBadRequest {
			t.Errorf("deadline_s=%s = %d, want 400", ds, w.Code)
		}
	}

	w := del(t, h, "/v1/fleet/devices/tk1-a?mode=drain&deadline_s=2")
	if w.Code != http.StatusOK {
		t.Fatalf("drain = %d: %s", w.Code, w.Body)
	}
	var resp serve.RemoveDeviceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "drain" || resp.State != "removed" || !resp.Graceful {
		t.Fatalf("drain response = %+v", resp)
	}
	if _, ok := reg.Get("tk1-a"); ok {
		t.Fatal("drained device still in the registry")
	}
	// Pinned traffic to the departed device is a clean 404.
	pw := post(t, h, "/v1/fleet/predict",
		`{"profile": {"sp": 1e9}, "setting_id": "max", "device": "tk1-a"}`)
	if pw.Code != http.StatusNotFound {
		t.Errorf("predict on removed device = %d, want 404", pw.Code)
	}

	if w := del(t, h, "/v1/fleet/devices/tk1-b?mode=evict"); w.Code != http.StatusOK {
		t.Fatalf("evict = %d: %s", w.Code, w.Body)
	}
	// The fleet is empty: unpinned traffic degrades to 503, the readiness
	// probe fails, but the process stays up.
	if w := post(t, h, "/v1/fleet/predict", `{"profile": {"sp": 1e9}, "setting_id": "max"}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("predict on empty fleet = %d, want 503", w.Code)
	}
	if w := get(t, h, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz on empty fleet = %d, want 503", w.Code)
	}
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz on empty fleet = %d, want 200", w.Code)
	}
}

// TestDriftRecalibrationViaServe injects sustained thermal throttling on
// one device and drives a fresh sweep through /v1/fleet/place: the
// watchdog must fire on the throttled device only and swap in the
// recalibrated constants synchronously.
func TestDriftRecalibrationViaServe(t *testing.T) {
	recals := 0
	var recalDev string
	srv, reg := adminFleet(t, serve.Options{
		Drift:           &fleet.DriftConfig{Window: 32, Slack: 0.05, Threshold: units.Ratio(0.75)},
		SyncRecalibrate: true,
		Recalibrate: func(ctx context.Context, n *fleet.Node) (*experiments.Calibration, error) {
			recals++
			recalDev = n.ID
			return fleet.SyntheticCalibration(fleet.DeclaredModel(n.Spec.DeviceParams()))
		},
	})
	h := srv.Handler()

	// A clean fleet sweeps without firing anything.
	w := post(t, h, "/v1/fleet/place", `{"profile": {"sp": 2e9, "dram_words": 1e8}, "occupancy": 0.8}`)
	if w.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", w.Code, w.Body)
	}
	if recals != 0 {
		t.Fatalf("clean sweep triggered %d recalibrations", recals)
	}

	// Throttle tk1-b's hardware and sweep a previously unseen workload so
	// the fleet runs fresh measurements rather than serving cache.
	// A permanent deep throttle: dynamic power depressed to 5% for the
	// whole run, so measured energies sit far below the calibrated
	// prediction and the negative CUSUM side accumulates fast.
	nb, _ := reg.Get("tk1-b")
	nb.Cfg.Faults = faults.Plan{Throttle: 1, ThrottleFactor: 0.05, ThrottleFraction: 1, Seed: 5}
	genBefore := nb.CalGeneration()
	w = post(t, h, "/v1/fleet/place", `{"profile": {"sp": 3e9, "int": 1e9, "dram_words": 3e8}, "occupancy": 0.6}`)
	if w.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", w.Code, w.Body)
	}
	if recals != 1 || recalDev != "tk1-b" {
		t.Fatalf("throttled sweep ran %d recalibrations on %q, want 1 on tk1-b", recals, recalDev)
	}
	if nb.CalGeneration() != genBefore+1 || nb.Recalibrations() != 1 {
		t.Fatalf("constants did not swap: gen %d->%d, recals %d",
			genBefore, nb.CalGeneration(), nb.Recalibrations())
	}
	na, _ := reg.Get("tk1-a")
	if na.Recalibrations() != 0 {
		t.Error("healthy device was recalibrated")
	}
}

// FuzzFleetSpec holds the admin add-device decoder to the fuzz
// contract: no panic on any body, no 2xx for a body the spec decoder
// rejects, and a rejected spec never mutates the registry (same length,
// same epoch). Accepted specs are evicted again so the fleet returns to
// its baseline for the next input.
func FuzzFleetSpec(f *testing.F) {
	srv, reg := adminFleet(f, serve.Options{})
	h := srv.Handler()
	for _, body := range []string{
		`{"id": "tk1-new"}`,
		`{"id": "tk1-new", "params": {"sp_pj_v2": 19.5, "misc_w": 0.3}, "seed": 7}`,
		`{"id": "tk1-new", "min_core_mhz": 300, "max_core_mhz": 612}`,
		`{"id": "tk1-new", "ideal": true}`,
		`{"id": ""}`,
		`{"id": "x", "capacitance": 1}`,
		`{"id": "x", "params": {"sp_pj": 1}}`,
		`{"id": "x", "min_core_mhz": 9000}`,
		`{"id": "x", "seed": -4}`,
		`{"id": "tk1-a"}`,
		`{"id": "x", "calibration_cache": "/nope.csv"}`,
		`[{"id": "x"}]`,
		`{"id": "tk1-new"} trailing`,
		`{"id": "tk1-new"}{"id": "tk1-other"}`,
		`{"id"`,
		`null`,
		``,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		lenBefore, epochBefore := len(reg.Nodes()), epochOf(reg)
		req := httptest.NewRequest(http.MethodPost, "/v1/fleet/devices?wait=1", strings.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)

		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("add returned non-JSON for %q: %q", body, rr.Body.String())
		}
		if rr.Code >= 200 && rr.Code < 300 {
			if _, err := fleet.ParseSpec([]byte(body)); err != nil {
				t.Fatalf("add answered %d to a spec its decoder rejects (%v): %q", rr.Code, err, body)
			}
			var resp serve.AddDeviceResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatalf("2xx add response not an AddDeviceResponse: %q", rr.Body.String())
			}
			if len(reg.Nodes()) != lenBefore+1 {
				t.Fatalf("accepted add grew the fleet %d -> %d, want +1", lenBefore, len(reg.Nodes()))
			}
			// Restore the baseline for the next fuzz input. Evict through
			// the registry: fuzzed device IDs need not survive a URL path.
			if err := reg.Evict(resp.DeviceID); err != nil {
				t.Fatalf("cleanup evict of %q: %v", resp.DeviceID, err)
			}
			return
		}
		if rr.Code >= 500 {
			// A spec that parsed but failed calibration joined and was
			// evicted again: membership restored, epoch legitimately moved.
			if len(reg.Nodes()) != lenBefore {
				t.Fatalf("failed add (%d) changed the fleet size %d -> %d for %q",
					rr.Code, lenBefore, len(reg.Nodes()), body)
			}
			return
		}
		// Rejected specs must leave the registry untouched.
		if len(reg.Nodes()) != lenBefore || epochOf(reg) != epochBefore {
			t.Fatalf("rejected add (%d) mutated the registry: len %d->%d epoch %d->%d for %q",
				rr.Code, lenBefore, len(reg.Nodes()), epochBefore, epochOf(reg), body)
		}
	})
}
