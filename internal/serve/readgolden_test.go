package serve_test

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden read-endpoint and reply transcripts under testdata/")

// readEndpoints are the uninstrumented and instrumented GET surfaces an
// operator or the replay harness polls; their bodies are pinned byte for
// byte at every scripted point.
var readEndpoints = []string{"/healthz", "/readyz", "/metrics", "/v1/stats", "/v1/fleet/devices"}

// readTranscript accumulates the read-endpoint bodies captured at each
// scripted point.
type readTranscript struct {
	t   *testing.T
	h   http.Handler
	buf bytes.Buffer
}

// capture reads every endpoint once and appends status, content type
// and body under a header naming the phase.
func (r *readTranscript) capture(phase string) {
	r.t.Helper()
	for _, path := range readEndpoints {
		w := get(r.t, r.h, path)
		fmt.Fprintf(&r.buf, "=== %s GET %s -> %d %s\n", phase, path, w.Code, w.Header().Get("Content-Type"))
		r.buf.Write(w.Body.Bytes())
	}
}

// expect drives one request and fails the test unless it answers code.
func (r *readTranscript) expect(code int, path, body string) {
	r.t.Helper()
	if w := post(r.t, r.h, path, body); w.Code != code {
		r.t.Fatalf("POST %s %s = %d, want %d: %s", path, body, w.Code, code, w.Body)
	}
}

// checkGolden compares a transcript against its checked-in golden
// file, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run %s -update)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bodies differ from %s (regenerate with -update only for an intended change):\n--- got\n%s", path, got)
	}
}

const (
	goldenPredict  = `{"profile": {"dp_fma": 1e9, "int": 5e8, "dram_words": 2e8}, "setting_id": "S1", "time_s": 0.5}`
	goldenAutotune = `{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9}`
	goldenPlace    = `{"profile": {"sp": 4e8, "dram_words": 1e8}, "occupancy": 0.7}`
	goldenUncached = `{"profile": {"sp": 9e8}, "occupancy": 0.5}`
)

// TestReadEndpointsGoldenLegacy pins the single-device read bodies:
// fresh, after traffic, and with the breaker forced open (legacy
// /readyz answers 503 "degraded" and the degraded counter moves). A
// stepping clock makes every request's latency one clock step, so the
// histogram sums are byte-stable.
func TestReadEndpointsGoldenLegacy(t *testing.T) {
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	clk := workload.NewStepClock(time.Millisecond)
	srv := serve.New(tegra.NewDevice(), cal, experiments.Config{Seed: 42, Workers: 1}, serve.Options{Clock: clk.Now})
	r := &readTranscript{t: t, h: srv.Handler()}

	r.capture("fresh")

	r.expect(http.StatusOK, "/v1/predict", goldenPredict)
	r.expect(http.StatusBadRequest, "/v1/predict", `{"profile": {}}`)
	r.expect(http.StatusOK, "/v1/autotune", goldenAutotune) // miss
	r.expect(http.StatusOK, "/v1/autotune", goldenAutotune) // hit
	r.expect(http.StatusOK, "/v1/fleet/place", goldenPlace)
	r.capture("traffic")

	srv.ForceBreakerOpen(true)
	r.expect(http.StatusOK, "/v1/autotune", goldenAutotune) // degraded hit
	r.expect(http.StatusServiceUnavailable, "/v1/autotune", goldenUncached)
	r.capture("breaker-open")

	checkGolden(t, "read_legacy.golden", r.buf.Bytes())
}

// TestReadEndpointsGoldenFleet pins the same bodies for the 3-device
// heterogeneous fleet, adding two membership points: one device
// quarantined while a runtime add is still calibrating, and an evict
// after which the removed device's cache counters keep printing in
// /metrics (a Prometheus counter total must never go backwards).
func TestReadEndpointsGoldenFleet(t *testing.T) {
	clk := workload.NewStepClock(time.Millisecond)
	srv := heterogeneousFleet(t, 1, serve.Options{Clock: clk.Now})
	reg := srv.Registry()
	r := &readTranscript{t: t, h: srv.Handler()}

	r.capture("fresh")

	r.expect(http.StatusOK, "/v1/predict", goldenPredict)
	r.expect(http.StatusOK, "/v1/fleet/predict", `{"profile": {"sp": 4e9}, "setting_id": "S2"}`)
	r.expect(http.StatusOK, "/v1/autotune", goldenAutotune) // miss
	r.expect(http.StatusOK, "/v1/autotune", goldenAutotune) // hit
	r.expect(http.StatusOK, "/v1/fleet/place", goldenPlace)
	r.capture("traffic")

	srv.ForceBreakerOpen(true)
	r.expect(http.StatusOK, "/v1/autotune", goldenAutotune) // degraded hit
	r.expect(http.StatusServiceUnavailable, "/v1/autotune", goldenUncached)
	r.capture("breaker-open")
	srv.ForceBreakerOpen(false)

	if err := reg.SetState("tk1-binned-hot", fleet.StateQuarantined); err != nil {
		t.Fatal(err)
	}
	late := fleet.NewNode("tk1-late", tegra.NewDevice(), nil, experiments.Config{Seed: 7}, fullGrids(t), fleet.NodeOptions{})
	if err := reg.Add(late, fleet.StateCalibrating); err != nil {
		t.Fatal(err)
	}
	r.capture("quarantined+calibrating")

	if err := reg.Evict("tk1-reference"); err != nil {
		t.Fatal(err)
	}
	r.capture("evicted")

	checkGolden(t, "read_fleet.golden", r.buf.Bytes())
}
