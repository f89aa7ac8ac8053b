package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
)

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func fullGrids(t *testing.T) map[string][]dvfs.Setting {
	t.Helper()
	calGrid := make([]dvfs.Setting, 0, 16)
	for _, cs := range dvfs.CalibrationSettings() {
		calGrid = append(calGrid, cs.Setting)
	}
	return map[string][]dvfs.Setting{"calibration": calGrid, "full": dvfs.Grid()}
}

// identicalFleet builds a fleet of n clones of the legacy single
// device: same simulator, same fixture calibration, same seed, same
// grids — only the IDs differ.
func identicalFleet(t *testing.T, n int) *serve.Server {
	t.Helper()
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"node-a", "node-b", "node-c", "node-d", "node-e"}[:n]
	nodes := make([]*fleet.Node, n)
	for i, id := range ids {
		nodes[i] = fleet.NewNode(id, tegra.NewDevice(), cal,
			experiments.Config{Seed: 42}, fullGrids(t), fleet.NodeOptions{})
	}
	reg, err := fleet.NewRegistry(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewFleet(reg, serve.Options{})
}

// heterogeneousFleet builds the 3-device fleet from specs through the
// production path (fleet.Build + synthetic calibrations).
func heterogeneousFleet(t *testing.T, workers int, opts serve.Options) *serve.Server {
	t.Helper()
	fc := fleet.FleetConfig{Seed: 42, Devices: []fleet.Spec{
		{ID: "tk1-reference"},
		{ID: "tk1-binned-hot", Params: fleet.ParamsJSON{LeakProcWpV: 3.55, MiscW: 0.32}},
		{ID: "tk1-lowpower-sku", Params: fleet.ParamsJSON{SPpJ: 22.1, DRAMpJ: 318.5}, MaxCoreMHz: 612},
	}}
	reg, err := fleet.Build(fc, experiments.Config{Seed: 42, Workers: workers}, nil, opts.NodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewFleet(reg, opts)
}

// TestIdenticalFleetMatchesSingleDevice is the degenerate-fleet
// contract: a fleet of devices identical to the legacy single device
// (same simulator, calibration and seed) answers /v1/predict and
// /v1/autotune with byte-identical bodies — routing across clones must
// be invisible on the wire.
func TestIdenticalFleetMatchesSingleDevice(t *testing.T) {
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	single := serve.New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, serve.Options{}).Handler()
	fleetH := identicalFleet(t, 3).Handler()

	predictBodies := []string{
		`{"profile": {"dp_fma": 1e9, "int": 5e8, "dram_words": 2e8}, "setting_id": "S1", "time_s": 0.5}`,
		`{"profile": {"sp": 4e9, "dram_words": 5e7}, "setting": {"core_mhz": 756, "mem_mhz": 792}}`,
		`{"profile": {"l2_words": 1e9}, "setting_id": "max", "occupancy": 0.7}`,
	}
	for _, body := range predictBodies {
		sw, fw := post(t, single, "/v1/predict", body), post(t, fleetH, "/v1/predict", body)
		if sw.Code != http.StatusOK || fw.Code != http.StatusOK {
			t.Fatalf("predict %q: single=%d fleet=%d", body, sw.Code, fw.Code)
		}
		if sw.Body.String() != fw.Body.String() {
			t.Errorf("predict %q differs between single-device and identical fleet:\n single %s\n fleet  %s",
				body, sw.Body, fw.Body)
		}
	}

	autotuneBodies := []string{
		`{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9}`,
		`{"profile": {"sp": 4e8, "shared_words": 2e8}, "occupancy": 0.5}`,
	}
	for _, body := range autotuneBodies {
		sw, fw := post(t, single, "/v1/autotune", body), post(t, fleetH, "/v1/autotune", body)
		if sw.Code != http.StatusOK || fw.Code != http.StatusOK {
			t.Fatalf("autotune %q: single=%d fleet=%d", body, sw.Code, fw.Code)
		}
		if sw.Body.String() != fw.Body.String() {
			t.Errorf("autotune %q differs between single-device and identical fleet:\n single %s\n fleet  %s",
				body, sw.Body, fw.Body)
		}
	}

	// Error bodies too: in fleet mode the device travels in a header,
	// never in the legacy body.
	bad := `{"profile": {"sp": 1e9}}`
	sw, fw := post(t, single, "/v1/predict", bad), post(t, fleetH, "/v1/predict", bad)
	if sw.Code != fw.Code {
		t.Fatalf("error codes differ: single=%d fleet=%d", sw.Code, fw.Code)
	}
	if fw.Header().Get("X-Energyd-Device") == "" {
		t.Error("fleet error response missing the device header")
	}
	var ferr struct {
		Error    string `json:"error"`
		DeviceID string `json:"device_id"`
	}
	if err := json.Unmarshal(fw.Body.Bytes(), &ferr); err != nil {
		t.Fatal(err)
	}
	if ferr.Error == "" || ferr.DeviceID == "" {
		t.Errorf("fleet error body %s must carry error and device_id", fw.Body)
	}
	if strings.Contains(sw.Body.String(), "device_id") {
		t.Errorf("single-device error body grew a device_id: %s", sw.Body)
	}
}

// TestFleetPlaceDeterministic is the core acceptance test: the
// placement answer is byte-identical at any worker count, on repeat
// calls (cache-backed), and after unrelated traffic reshuffles each
// device's cache state.
func TestFleetPlaceDeterministic(t *testing.T) {
	body := `{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9}`

	h1 := heterogeneousFleet(t, 1, serve.Options{}).Handler()
	h8 := heterogeneousFleet(t, 8, serve.Options{}).Handler()

	w1 := post(t, h1, "/v1/fleet/place", body)
	if w1.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", w1.Code, w1.Body)
	}
	if w8 := post(t, h8, "/v1/fleet/place", body); w8.Body.String() != w1.Body.String() {
		t.Errorf("placement depends on worker count:\n w=1 %s\n w=8 %s", w1.Body, w8.Body)
	}

	// Warm one device's cache through /v1/autotune first, so the second
	// server answers the same placement from a mix of cached and fresh
	// sweeps — the bytes must not care.
	hWarm := heterogeneousFleet(t, 2, serve.Options{}).Handler()
	if w := post(t, hWarm, "/v1/autotune", body); w.Code != http.StatusOK {
		t.Fatalf("warm autotune = %d: %s", w.Code, w.Body)
	}
	if ww := post(t, hWarm, "/v1/fleet/place", body); ww.Body.String() != w1.Body.String() {
		t.Errorf("placement depends on cache history:\n cold %s\n warm %s", w1.Body, ww.Body)
	}

	// Repeat on the same server: fully cached now, still identical.
	if again := post(t, h1, "/v1/fleet/place", body); again.Body.String() != w1.Body.String() {
		t.Errorf("repeat placement drifted:\n first  %s\n second %s", w1.Body, again.Body)
	}

	var resp serve.PlaceResponse
	if err := json.Unmarshal(w1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Devices) != 3 || len(resp.Skipped) != 0 {
		t.Fatalf("place covered %d devices (%d skipped), want 3/0: %s", len(resp.Devices), len(resp.Skipped), w1.Body)
	}
	for i := 1; i < len(resp.Devices); i++ {
		if resp.Devices[i-1].DeviceID >= resp.Devices[i].DeviceID {
			t.Error("placements not sorted by device ID")
		}
	}
	if resp.Winner == "" || resp.WinnerPick.MeasuredJ <= 0 {
		t.Fatalf("no winner in %s", w1.Body)
	}
	for _, d := range resp.Devices {
		if d.MeasuredMin.MeasuredJ < resp.WinnerPick.MeasuredJ {
			t.Errorf("device %s beats the declared winner %s", d.DeviceID, resp.Winner)
		}
	}
}

// TestFleetAutotuneFailover: opening the primary's breaker moves sweep
// traffic to the next device on the hash ring; opening every breaker
// serves the warmed primary's cache flagged degraded.
func TestFleetAutotuneFailover(t *testing.T) {
	s := identicalFleet(t, 3)
	h := s.Handler()
	body := `{"profile": {"dp_fma": 2e8, "dram_words": 5e7}, "occupancy": 0.9}`

	first := post(t, h, "/v1/autotune", body)
	if first.Code != http.StatusOK {
		t.Fatalf("autotune = %d: %s", first.Code, first.Body)
	}
	primaryID := first.Header().Get("X-Energyd-Device")
	if primaryID == "" {
		t.Fatal("fleet autotune did not name its device")
	}
	primary, ok := s.Registry().Get(primaryID)
	if !ok {
		t.Fatalf("unknown primary %q", primaryID)
	}

	primary.Breaker.ForceOpen(true)
	over := post(t, h, "/v1/autotune", body)
	if over.Code != http.StatusOK {
		t.Fatalf("failover autotune = %d: %s", over.Code, over.Body)
	}
	backupID := over.Header().Get("X-Energyd-Device")
	if backupID == "" || backupID == primaryID {
		t.Fatalf("traffic did not fail over: served by %q", backupID)
	}
	// Identical clones with identical seeds: the failover answer matches
	// the primary's byte for byte.
	if over.Body.String() != first.Body.String() {
		t.Errorf("failover answer drifted:\n primary %s\n backup  %s", first.Body, over.Body)
	}
	// The failover target is stable while the outage lasts.
	for i := 0; i < 4; i++ {
		if w := post(t, h, "/v1/autotune", body); w.Header().Get("X-Energyd-Device") != backupID {
			t.Fatal("failover target changed between requests")
		}
	}

	// All breakers open: the primary's cached sweep serves degraded.
	s.ForceBreakerOpen(true)
	deg := post(t, h, "/v1/autotune", body)
	if deg.Code != http.StatusOK {
		t.Fatalf("degraded autotune = %d: %s", deg.Code, deg.Body)
	}
	var resp serve.AutotuneResponse
	if err := json.Unmarshal(deg.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !resp.Cached {
		t.Errorf("all-open fleet answer flags degraded=%v cached=%v, want both", resp.Degraded, resp.Cached)
	}
	if got := deg.Header().Get("X-Energyd-Device"); got != primaryID {
		t.Errorf("degraded answer served by %q, want the primary %q", got, primaryID)
	}

	// /readyz: open breakers alone no longer fail readiness — the fleet
	// still serves (degraded). Readiness fails only at zero active
	// devices; the body counts states so operators see the whole fleet
	// is breaker-open.
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("/readyz = %d with all breakers open but devices active, want 200", w.Code)
	} else {
		var body struct {
			Active int            `json:"active"`
			Open   int            `json:"open"`
			States map[string]int `json:"states"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Active != 3 || body.Open != 3 || body.States["active"] != 3 {
			t.Errorf("/readyz body active=%d open=%d states=%v, want 3/3/active:3", body.Active, body.Open, body.States)
		}
	}
	primary.Breaker.ForceOpen(false)
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("/readyz = %d with one device recovered, want 200", w.Code)
	}

	// Place skips open-breaker devices instead of failing.
	s.ForceBreakerOpen(true)
	primary.Breaker.ForceOpen(false)
	w := post(t, h, "/v1/fleet/place", body)
	if w.Code != http.StatusOK {
		t.Fatalf("partial-fleet place = %d: %s", w.Code, w.Body)
	}
	var place serve.PlaceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &place); err != nil {
		t.Fatal(err)
	}
	// The primary sweeps fresh; the two open devices have no cache for
	// this key only if they never served it — node-b may hold the
	// failover sweep, so just check accounting adds up.
	if len(place.Devices)+len(place.Skipped) != 3 {
		t.Errorf("place accounted for %d+%d devices, want 3: %s", len(place.Devices), len(place.Skipped), w.Body)
	}
	if len(place.Skipped) == 0 {
		t.Error("open-breaker devices with cold caches were not reported as skipped")
	}
}

// TestFleetEndpoints covers the inventory and pinned-device surfaces.
func TestFleetEndpoints(t *testing.T) {
	s := heterogeneousFleet(t, 2, serve.Options{})
	h := s.Handler()

	w := get(t, h, "/v1/fleet/devices")
	if w.Code != http.StatusOK {
		t.Fatalf("devices = %d: %s", w.Code, w.Body)
	}
	var inv serve.DevicesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Devices) != 3 {
		t.Fatalf("inventory has %d devices, want 3", len(inv.Devices))
	}
	wantIDs := []string{"tk1-binned-hot", "tk1-lowpower-sku", "tk1-reference"}
	for i, d := range inv.Devices {
		if d.DeviceID != wantIDs[i] {
			t.Errorf("inventory[%d] = %q, want %q (sorted)", i, d.DeviceID, wantIDs[i])
		}
		if d.Breaker != "closed" || d.Samples == 0 || d.Coverage != 1 {
			t.Errorf("device %q unhealthy at boot: %+v", d.DeviceID, d)
		}
	}
	// The DVFS-bounded SKU advertises a trimmed grid.
	if inv.Devices[1].Grids["full"] >= inv.Devices[2].Grids["full"] {
		t.Error("bounded device does not advertise a trimmed full grid")
	}

	// Pinned fleet predict.
	body := `{"profile": {"sp": 4e9, "dram_words": 5e7}, "setting_id": "max", "device": "tk1-lowpower-sku"}`
	pw := post(t, h, "/v1/fleet/predict", body)
	if pw.Code != http.StatusBadRequest {
		// max core (852) is outside the SKU's bounds only for sweeps;
		// predict answers any tabled setting.
		if pw.Code != http.StatusOK {
			t.Fatalf("pinned predict = %d: %s", pw.Code, pw.Body)
		}
	}
	var fp serve.FleetPredictResponse
	if err := json.Unmarshal(pw.Body.Bytes(), &fp); err != nil {
		t.Fatal(err)
	}
	if fp.DeviceID != "tk1-lowpower-sku" {
		t.Errorf("pinned predict served by %q", fp.DeviceID)
	}

	// Unrouted fleet predict is deterministic and names its device.
	free := `{"profile": {"sp": 4e9}, "setting_id": "S2"}`
	a, b := post(t, h, "/v1/fleet/predict", free), post(t, h, "/v1/fleet/predict", free)
	if a.Code != http.StatusOK {
		t.Fatalf("fleet predict = %d: %s", a.Code, a.Body)
	}
	if a.Body.String() != b.Body.String() {
		t.Error("fleet predict not deterministic across identical requests")
	}
	var fr serve.FleetPredictResponse
	json.Unmarshal(a.Body.Bytes(), &fr)
	if fr.DeviceID == "" {
		t.Error("fleet predict did not name its device")
	}

	// Unknown pinned device: 404 naming the device in the error body.
	uw := post(t, h, "/v1/fleet/predict", `{"profile": {"sp": 1e9}, "setting_id": "max", "device": "nope"}`)
	if uw.Code != http.StatusNotFound {
		t.Fatalf("unknown device = %d, want 404", uw.Code)
	}
	if !strings.Contains(uw.Body.String(), `"device_id": "nope"`) {
		t.Errorf("404 body %s does not name the device", uw.Body)
	}

	// Per-device calibration: ?device selects, default is the first ID,
	// unknown 404s.
	cw := get(t, h, "/v1/calibration?device=tk1-binned-hot")
	var cal serve.CalibrationResponse
	if err := json.Unmarshal(cw.Body.Bytes(), &cal); err != nil {
		t.Fatal(err)
	}
	if cal.DeviceID != "tk1-binned-hot" {
		t.Errorf("calibration device_id = %q", cal.DeviceID)
	}
	var calDefault serve.CalibrationResponse
	json.Unmarshal(get(t, h, "/v1/calibration").Body.Bytes(), &calDefault)
	if calDefault.DeviceID != "tk1-binned-hot" {
		t.Errorf("default calibration device = %q, want first sorted ID", calDefault.DeviceID)
	}
	if w := get(t, h, "/v1/calibration?device=nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown calibration device = %d, want 404", w.Code)
	}

	// Fleet metrics carry device labels.
	post(t, h, "/v1/autotune", `{"profile": {"dp_fma": 2e8, "dram_words": 5e7}, "occupancy": 0.9}`)
	metrics := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		"energyd_fleet_devices 3",
		`energyd_breaker_state{device="tk1-reference"} 0`,
		`energyd_calibration_coverage_fraction{device="tk1-lowpower-sku"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, `energyd_autotune_cache_misses_total{device=`) {
		t.Error("/metrics missing per-device cache miss counters")
	}
}

// TestFleetPlaceHoldsSweptDevice checks that a placement holds each
// device it sweeps, as predict and autotune hold theirs: while the sweep
// is stalled in its retry backoff the device's in-flight gauge reads 1,
// and a drain with a short deadline cannot finish gracefully.
func TestFleetPlaceHoldsSweptDevice(t *testing.T) {
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	stalled, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cfg := experiments.Config{
		Seed:    42,
		Workers: 1,
		Faults:  faults.Plan{Seed: 1, MeterDisconnect: 1}, // every attempt fails
		Retry: faults.Retry{MaxAttempts: 2, Sleep: func(time.Duration) {
			once.Do(func() { close(stalled) })
			<-resume
		}},
	}
	node := fleet.NewNode("node-a", tegra.NewDevice(), cal, cfg, fullGrids(t), fleet.NodeOptions{})
	reg, err := fleet.NewRegistry([]*fleet.Node{node}, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := serve.NewFleet(reg, serve.Options{}).Handler()

	done := make(chan int)
	go func() {
		done <- post(t, h, "/v1/fleet/place", `{"profile": {"dp_fma": 2e8, "dram_words": 5e7}}`).Code
	}()
	<-stalled
	if got := node.Load(); got != 1 {
		t.Errorf("in-flight load of the device being swept = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	graceful, err := reg.Drain(ctx, "node-a")
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if graceful {
		t.Error("drain finished gracefully while a placement was sweeping the device")
	}
	close(resume)
	// Every attempt fails, so the lone device is skipped and the
	// placement has no answer.
	if code := <-done; code != http.StatusServiceUnavailable {
		t.Errorf("placement = %d, want 503", code)
	}
	if got := node.Load(); got != 0 {
		t.Errorf("in-flight load after the placement = %d, want 0", got)
	}
}

// TestFleetPlaceSkipOrder pins the order of a placement's skip list:
// devices the breaker refused come first, in node order, then devices
// whose sweep failed. node-a sorts first but fails its sweep, so the
// refused node-b must still lead the list.
func TestFleetPlaceSkipOrder(t *testing.T) {
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	failing := experiments.Config{
		Seed:   42,
		Faults: faults.Plan{Seed: 1, MeterDisconnect: 1}, // every attempt fails
		Retry:  faults.Retry{MaxAttempts: 1},
	}
	nodes := []*fleet.Node{
		fleet.NewNode("node-a", tegra.NewDevice(), cal, failing, fullGrids(t), fleet.NodeOptions{}),
		fleet.NewNode("node-b", tegra.NewDevice(), cal, experiments.Config{Seed: 42}, fullGrids(t), fleet.NodeOptions{}),
		fleet.NewNode("node-c", tegra.NewDevice(), cal, experiments.Config{Seed: 42}, fullGrids(t), fleet.NodeOptions{}),
	}
	nodes[1].Breaker.ForceOpen(true)
	reg, err := fleet.NewRegistry(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, serve.NewFleet(reg, serve.Options{}).Handler(), "/v1/fleet/place",
		`{"profile": {"dp_fma": 2e8, "dram_words": 5e7}, "occupancy": 0.9}`)
	if w.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", w.Code, w.Body)
	}
	var resp serve.PlaceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Devices) != 1 || resp.Devices[0].DeviceID != "node-c" || resp.Winner != "node-c" {
		t.Fatalf("placed on %+v (winner %q), want node-c alone", resp.Devices, resp.Winner)
	}
	if len(resp.Skipped) != 2 {
		t.Fatalf("skipped %+v, want node-b then node-a", resp.Skipped)
	}
	if got := resp.Skipped[0]; got.DeviceID != "node-b" || got.Reason != "sweep breaker open and no cached sweep" {
		t.Errorf("first skip = %+v, want the breaker-refused node-b", got)
	}
	if got := resp.Skipped[1]; got.DeviceID != "node-a" || got.Reason == "" {
		t.Errorf("second skip = %+v, want the failed sweep of node-a", got)
	}
}
