package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/tegra"
)

// TestDegradedModeServesFromCache is the acceptance scenario: with the
// breaker forced open, a previously swept workload is still answered —
// from cache, flagged degraded — while /readyz flips to 503 and
// /healthz stays 200.
func TestDegradedModeServesFromCache(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	body := `{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9}`

	// Populate the cache while healthy.
	if w := postJSON(t, h, "/v1/autotune", body); w.Code != http.StatusOK {
		t.Fatalf("warm-up autotune = %d: %s", w.Code, w.Body)
	}
	var fresh AutotuneResponse
	json.Unmarshal(postJSON(t, h, "/v1/autotune", body).Body.Bytes(), &fresh)
	if fresh.Degraded {
		t.Fatal("healthy answer flagged degraded")
	}

	s.ForceBreakerOpen(true)

	w := postJSON(t, h, "/v1/autotune", body)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded autotune = %d: %s", w.Code, w.Body)
	}
	var stale AutotuneResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stale); err != nil {
		t.Fatal(err)
	}
	if !stale.Degraded || !stale.Cached {
		t.Errorf("degraded answer flags: degraded=%v cached=%v, want both true", stale.Degraded, stale.Cached)
	}
	stale.Degraded, stale.Cached = fresh.Degraded, fresh.Cached
	if stale != fresh {
		t.Errorf("degraded answer drifted from the cached sweep: %+v vs %+v", stale, fresh)
	}

	// A workload never swept has no safe answer while the breaker is open.
	miss := postJSON(t, h, "/v1/autotune", `{"profile": {"sp": 9e8}, "occupancy": 0.5}`)
	if miss.Code != http.StatusServiceUnavailable {
		t.Errorf("uncached degraded autotune = %d, want 503", miss.Code)
	}

	if w := getPath(t, h, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d while degraded, want 503", w.Code)
	} else if !strings.Contains(w.Body.String(), `"degraded"`) {
		t.Errorf("/readyz body %s does not report degraded", w.Body)
	}
	if w := getPath(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("/healthz = %d while degraded, want 200", w.Code)
	}

	metrics := getPath(t, h, "/metrics").Body.String()
	for _, want := range []string{
		"energyd_breaker_state 2",
		"energyd_autotune_degraded_total 1",
		"energyd_calibration_coverage_fraction 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	s.ForceBreakerOpen(false)
	if w := getPath(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("/readyz = %d after recovery, want 200", w.Code)
	}
	var again AutotuneResponse
	json.Unmarshal(postJSON(t, h, "/v1/autotune", body).Body.Bytes(), &again)
	if again.Degraded {
		t.Error("recovered answer still flagged degraded")
	}
}

// TestAutotuneHugeTimeoutUsesServerCap: a timeout_s too large for a
// time.Duration used to wrap into an already expired deadline, so every
// such sweep answered 504 and the fifth opened the breaker for every
// legitimate request after it. It must fall back to the server's cap.
func TestAutotuneHugeTimeoutUsesServerCap(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"profile": {"sp": %de8}, "occupancy": 0.9, "timeout_s": 1e10}`, i+1)
		if w := postJSON(t, h, "/v1/autotune", body); w.Code != http.StatusOK {
			t.Fatalf("autotune %d with timeout_s 1e10 = %d: %s", i, w.Code, w.Body)
		}
	}
	if state, _ := node0(s).Breaker.Snapshot(); state != fleet.BreakerClosed {
		t.Fatalf("breaker %v after five healthy sweeps, want closed", state)
	}
	if d, ok := clientDuration(1e300); ok {
		t.Errorf("clientDuration(1e300) = %v, want rejected", d)
	}
}

// TestAutotuneOnRemovedDevice: a sweep on a device whose cache an evict
// or drain closed answers 503 naming the device. The removal says
// nothing about the device's sweep path, so it records no breaker
// verdict and no cache miss — threshold-many such requests used to
// answer 500 and open the breaker.
func TestAutotuneOnRemovedDevice(t *testing.T) {
	s := testFleet(t, 1, Options{BreakerThreshold: 2})
	h := s.Handler()
	n := node0(s)
	n.Cache.Close(fleet.ErrDeviceRemoved)
	for i := 0; i < 2; i++ {
		w := postJSON(t, h, "/v1/autotune", `{"profile": {"sp": 5e8}, "occupancy": 0.5}`)
		var body ErrorJSON
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if w.Code != http.StatusServiceUnavailable || body.DeviceID != n.ID {
			t.Fatalf("autotune %d on a removed device = %d %+v, want 503 naming %s", i, w.Code, body, n.ID)
		}
	}
	if state, _ := n.Breaker.Snapshot(); state != fleet.BreakerClosed {
		t.Errorf("breaker %v after removed-device sweeps, want closed", state)
	}
	if c := s.snapshot().counts; sumCounter(c.hits) != 0 || sumCounter(c.misses) != 0 {
		t.Errorf("cache counters %v hits / %v misses, want 0/0", c.hits, c.misses)
	}
}

// TestBreakerOpensAfterConsecutiveSweepFailures drives the organic trip
// path: a sweep timeout small enough that every sweep 504s must open
// the breaker after the configured threshold, after which requests get
// the 503 degraded rejection instead of queueing more doomed sweeps.
func TestBreakerOpensAfterConsecutiveSweepFailures(t *testing.T) {
	cal, err := FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	s := New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, Options{
		SweepTimeout:     time.Nanosecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		// Distinct profiles so every request runs (and fails) a fresh sweep.
		body := `{"profile": {"sp": ` + string(rune('1'+i)) + `e8}, "occupancy": 0.9}`
		if w := postJSON(t, h, "/v1/autotune", body); w.Code != http.StatusGatewayTimeout {
			t.Fatalf("sweep %d = %d, want 504", i, w.Code)
		}
	}
	if state, _ := node0(s).Breaker.Snapshot(); state != fleet.BreakerOpen {
		t.Fatalf("breaker %v after 3 consecutive failures, want open", state)
	}
	w := postJSON(t, h, "/v1/autotune", `{"profile": {"sp": 9e8}, "occupancy": 0.9}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("open-breaker autotune = %d, want 503 (not another 504 sweep)", w.Code)
	}
	if w := getPath(t, h, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with organically open breaker, want 503", w.Code)
	}
}
