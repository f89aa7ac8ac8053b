package serve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
)

// replyTranscript records every reply path of the instrumented
// endpoints: status, Content-Type, X-Energyd-Device and the body, in
// request order.
type replyTranscript struct {
	t   *testing.T
	h   http.Handler
	buf bytes.Buffer
}

// do sends one request and appends its reply under a header naming the
// request.
func (r *replyTranscript) do(method, path, body string) {
	r.t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	r.h.ServeHTTP(w, req)
	fmt.Fprintf(&r.buf, "=== %s %s %s -> %d %s device=%q\n", method, path, body,
		w.Code, w.Header().Get("Content-Type"), w.Header().Get("X-Energyd-Device"))
	r.buf.Write(w.Body.Bytes())
}

// requestPaths drives the reply paths every server shares, whatever its
// membership: successes, 405s, bad bodies and the client errors of each
// POST endpoint.
func (r *replyTranscript) requestPaths() {
	r.t.Helper()
	for _, path := range []string{"/v1/predict", "/v1/autotune", "/v1/fleet/predict", "/v1/fleet/place"} {
		r.do(http.MethodGet, path, "")
		r.do(http.MethodPost, path, `{`)
		r.do(http.MethodPost, path, `{"profiel": {}}`)
	}
	r.do(http.MethodPost, "/v1/predict", goldenPredict)
	r.do(http.MethodPost, "/v1/predict", `{"profile": {"dp_fma": 1e9}, "setting_id": "S9"}`)
	r.do(http.MethodPost, "/v1/predict", `{"profile": {"dp_fma": 1e9}}`)
	r.do(http.MethodPost, "/v1/predict", `{"profile": {"dp_fma": 1e9}, "setting_id": "max", "setting": {"core_mhz": 564, "mem_mhz": 792}}`)
	r.do(http.MethodPost, "/v1/predict", `{"profile": {"dp_fma": 1e9}, "setting": {"core_mhz": 1, "mem_mhz": 792}}`)
	r.do(http.MethodPost, "/v1/predict", `{"profile": {"dp_fma": 1e9}, "setting_id": "max", "time_s": -1}`)
	r.do(http.MethodPost, "/v1/predict", `{"profile": {}, "setting_id": "max"}`)

	r.do(http.MethodPost, "/v1/fleet/predict", `{"profile": {"sp": 4e9}, "setting_id": "S2"}`)
	r.do(http.MethodPost, "/v1/fleet/predict?route=least_loaded", `{"profile": {"sp": 4e9}, "setting_id": "S2"}`)
	r.do(http.MethodPost, "/v1/fleet/predict?route=random", `{"profile": {"sp": 4e9}, "setting_id": "S2"}`)
	r.do(http.MethodPost, "/v1/fleet/predict", `{"profile": {"sp": 4e9}, "setting_id": "S2", "device": "nope"}`)
	r.do(http.MethodPost, "/v1/fleet/predict", `{"profile": {}, "setting_id": "S2"}`)

	r.do(http.MethodPost, "/v1/autotune", goldenAutotune) // miss
	r.do(http.MethodPost, "/v1/autotune", goldenAutotune) // hit
	r.do(http.MethodPost, "/v1/autotune", `{"profile": {"dp_fma": 1e9}, "grid": "nonsense"}`)
	r.do(http.MethodPost, "/v1/autotune", `{"profile": {}}`)

	r.do(http.MethodPost, "/v1/fleet/place", goldenPlace)
	r.do(http.MethodPost, "/v1/fleet/place", `{"profile": {"sp": 4e8}, "grid": "nonsense"}`)
	r.do(http.MethodPost, "/v1/fleet/place", `{"profile": {}}`)

	r.do(http.MethodGet, "/v1/calibration", "")
	r.do(http.MethodGet, "/v1/calibration?device=nope", "")
	r.do(http.MethodPost, "/v1/calibration", "")
	r.do(http.MethodGet, "/v1/fleet/devices", "")
	r.do(http.MethodPut, "/v1/fleet/devices", "")
	r.do(http.MethodGet, "/v1/fleet/devices/x", "")
	r.do(http.MethodDelete, "/v1/fleet/devices/", "")
	r.do(http.MethodDelete, "/v1/fleet/devices/a/b", "")
	r.do(http.MethodGet, "/healthz", "")
	r.do(http.MethodGet, "/readyz", "")
}

// breakerPaths forces every breaker open and drives the degraded
// replies: a cached autotune (200, degraded), an uncached one (503) and
// a placement no device can sweep (503).
func (r *replyTranscript) breakerPaths(srv *serve.Server) {
	r.t.Helper()
	srv.ForceBreakerOpen(true)
	r.do(http.MethodPost, "/v1/autotune", goldenAutotune)
	r.do(http.MethodPost, "/v1/autotune", goldenUncached)
	r.do(http.MethodPost, "/v1/fleet/place", goldenUncached)
	r.do(http.MethodGet, "/readyz", "")
	srv.ForceBreakerOpen(false)
}

// TestRepliesGoldenLegacy pins every reply of the single-device server
// byte for byte, admin-disabled 403s included: legacy replies carry no
// device header unless the client named a device.
func TestRepliesGoldenLegacy(t *testing.T) {
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(tegra.NewDevice(), cal, experiments.Config{Seed: 42, Workers: 1}, serve.Options{})
	r := &replyTranscript{t: t, h: srv.Handler()}

	r.requestPaths()
	r.do(http.MethodPost, "/v1/fleet/devices", `{"id": "x"}`)
	r.do(http.MethodDelete, "/v1/fleet/devices/x?mode=evict", "")
	r.breakerPaths(srv)

	checkGolden(t, "replies_legacy.golden", r.buf.Bytes())
}

// TestRepliesGoldenFleet pins every reply of the 3-device fleet with the
// membership admin wired: the request paths, each admin verb's
// outcomes, a device still calibrating (its loader blocks until the
// test releases it, so the 202 deterministically says "calibrating"),
// the degraded replies, and a fleet with no active device.
func TestRepliesGoldenFleet(t *testing.T) {
	release := make(chan struct{})
	load := func(string) (*experiments.Calibration, error) {
		<-release
		return serve.FixtureCalibration()
	}
	srv := heterogeneousFleet(t, 1, serve.Options{
		Admin:         &fleet.Admin{FleetSeed: 42, Base: experiments.Config{Seed: 42, Workers: 1}, Load: load},
		DrainDeadline: 2 * time.Second,
	})
	reg := srv.Registry()
	r := &replyTranscript{t: t, h: srv.Handler()}

	r.requestPaths()
	r.do(http.MethodPost, "/v1/fleet/predict", `{"profile": {"sp": 4e9}, "setting_id": "S2", "device": "tk1-binned-hot"}`)
	r.do(http.MethodGet, "/v1/calibration?device=tk1-lowpower-sku", "")

	// Add: rejected specs, a duplicate, an async add left calibrating and
	// a synchronous one.
	r.do(http.MethodPost, "/v1/fleet/devices", `{`)
	r.do(http.MethodPost, "/v1/fleet/devices", `{"id": ""}`)
	r.do(http.MethodPost, "/v1/fleet/devices?wait=1", `{"id": "tk1-reference"}`)
	r.do(http.MethodPost, "/v1/fleet/devices", `{"id": "tk1-late", "calibration_cache": "late.csv"}`)
	r.do(http.MethodPost, "/v1/fleet/predict", `{"profile": {"sp": 4e9}, "setting_id": "S2", "device": "tk1-late"}`)
	r.do(http.MethodGet, "/v1/calibration?device=tk1-late", "")
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n, ok := reg.Get("tk1-late"); ok && n.State() == fleet.StateActive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tk1-late never activated")
		}
		time.Sleep(time.Millisecond)
	}
	r.do(http.MethodPost, "/v1/fleet/devices?wait=1", `{"id": "tk1-sync", "params": {"misc_w": 0.3}}`)

	// Remove: the unknown device, bad parameters, then an evict and a
	// drain.
	r.do(http.MethodDelete, "/v1/fleet/devices/nope", "")
	r.do(http.MethodDelete, "/v1/fleet/devices/tk1-sync?mode=zap", "")
	r.do(http.MethodDelete, "/v1/fleet/devices/tk1-sync?deadline_s=-1", "")
	r.do(http.MethodDelete, "/v1/fleet/devices/tk1-sync?mode=evict", "")
	r.do(http.MethodDelete, "/v1/fleet/devices/tk1-late?mode=drain&deadline_s=1", "")

	r.breakerPaths(srv)

	// No active device: every routed request answers 503.
	for _, n := range reg.Nodes() {
		if err := reg.SetState(n.ID, fleet.StateQuarantined); err != nil {
			t.Fatal(err)
		}
	}
	r.do(http.MethodPost, "/v1/predict", goldenPredict)
	r.do(http.MethodPost, "/v1/fleet/predict", `{"profile": {"sp": 4e9}, "setting_id": "S2"}`)
	r.do(http.MethodPost, "/v1/autotune", goldenAutotune)
	r.do(http.MethodPost, "/v1/fleet/place", goldenPlace)
	r.do(http.MethodGet, "/readyz", "")

	checkGolden(t, "replies_fleet.golden", r.buf.Bytes())
}
