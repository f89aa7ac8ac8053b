package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/tegra"
)

// node0 returns the single legacy node behind a test server.
func node0(s *Server) *fleet.Node { return s.reg.Nodes()[0] }

func newTestServer(t *testing.T) *Server {
	t.Helper()
	cal, err := FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	return New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, Options{})
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestFixtureRecoversReferenceModel(t *testing.T) {
	cal, err := FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	ref := fixtureModel()
	got := cal.Model
	pairs := [][2]float64{
		{float64(got.SPpJ), float64(ref.SPpJ)}, {float64(got.DPpJ), float64(ref.DPpJ)},
		{float64(got.IntpJ), float64(ref.IntpJ)}, {float64(got.SMpJ), float64(ref.SMpJ)},
		{float64(got.L2pJ), float64(ref.L2pJ)}, {float64(got.DRAMpJ), float64(ref.DRAMpJ)},
		{float64(got.C1Proc), float64(ref.C1Proc)}, {float64(got.C1Mem), float64(ref.C1Mem)},
		{float64(got.PMisc), float64(ref.PMisc)},
	}
	for i, p := range pairs {
		if math.Abs(p[0]-p[1]) > 1e-6*(1+math.Abs(p[1])) {
			t.Errorf("constant %d: fitted %v, want %v", i, p[0], p[1])
		}
	}
	if m := cal.KFold.Percent().Mean; m > 1e-6 {
		t.Errorf("noiseless fixture CV error %g%%, want ~0", m)
	}
}

func TestHealthz(t *testing.T) {
	h := newTestServer(t).Handler()
	w := getPath(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", w.Code)
	}
	var body struct {
		Status  string `json:"status"`
		Samples int    `json:"samples"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Samples != 128 {
		t.Errorf("healthz body = %+v", body)
	}
}

func TestPredictMatchesModel(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	w := postJSON(t, h, "/v1/predict",
		`{"profile": {"dp_fma": 1e9, "int": 5e8, "dram_words": 2e8}, "setting_id": "S1", "time_s": 0.5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	req := PredictRequest{Profile: ProfileJSON{DPFMA: 1e9, Int: 5e8, DRAMWords: 2e8}}
	want := node0(s).Cal().Model.Predict(req.Profile.profile(), dvfs.ValidationSettings()[0], 0.5)
	if math.Abs(float64(resp.PredictedJ-want)) > 1e-9*float64(want) {
		t.Errorf("predicted %v J, want %v J", resp.PredictedJ, want)
	}
	sum := resp.Parts.SP + resp.Parts.DP + resp.Parts.Int + resp.Parts.SM +
		resp.Parts.L2 + resp.Parts.DRAM + resp.Parts.Constant
	if math.Abs(float64(sum-resp.PredictedJ)) > 1e-9*float64(want) {
		t.Errorf("parts sum %v != total %v", sum, resp.PredictedJ)
	}
	if resp.Setting.CoreMHz != 852 || resp.Setting.MemMHz != 924 {
		t.Errorf("S1 resolved to %+v", resp.Setting)
	}
}

func TestPredictSimulatesTimeWhenAbsent(t *testing.T) {
	s := newTestServer(t)
	w := postJSON(t, s.Handler(), "/v1/predict",
		`{"profile": {"dp_fma": 1e9, "dram_words": 2e8}, "setting": {"core_mhz": 852, "mem_mhz": 924}, "occupancy": 0.25}`)
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	wl := tegra.Workload{Profile: ProfileJSON{DPFMA: 1e9, DRAMWords: 2e8}.profile(), Occupancy: 0.25}
	want := node0(s).Dev.Execute(wl, dvfs.MaxSetting()).Time
	if math.Abs(float64(resp.TimeS-want)) > 1e-12 {
		t.Errorf("simulated time %v, want %v", resp.TimeS, want)
	}
}

func TestPredictRejectsBadRequests(t *testing.T) {
	h := newTestServer(t).Handler()
	cases := []struct {
		name, body string
	}{
		{"no setting", `{"profile": {"sp": 1e9}}`},
		{"both settings", `{"profile": {"sp": 1e9}, "setting_id": "max", "setting": {"core_mhz": 852, "mem_mhz": 924}}`},
		{"unknown id", `{"profile": {"sp": 1e9}, "setting_id": "S99"}`},
		{"off-table frequency", `{"profile": {"sp": 1e9}, "setting": {"core_mhz": 333, "mem_mhz": 924}}`},
		{"unknown field", `{"profile": {"sp": 1e9}, "setting_id": "max", "wat": 1}`},
		{"negative time", `{"profile": {"sp": 1e9}, "setting_id": "max", "time_s": -1}`},
		{"empty profile", `{"profile": {}, "setting_id": "max"}`},
		{"negative count", `{"profile": {"sp": -5}, "setting_id": "max"}`},
	}
	for _, c := range cases {
		if w := postJSON(t, h, "/v1/predict", c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (%s)", c.name, w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/predict", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict = %d, want 405", w.Code)
	}
}

// setting_id resolves case-insensitively (with Unicode simple folding,
// so U+017F "ſ" matches "s") against S1..S8 and max, and nothing else.
func TestResolveSetting(t *testing.T) {
	val := dvfs.ValidationSettings()
	const unknown = `unknown setting_id %q (want S1..S8 or max)`
	cases := []struct {
		id      string
		want    dvfs.Setting
		wantErr string
	}{
		{id: "S1", want: val[0]},
		{id: "s8", want: val[7]},
		{id: "\u017f1", want: val[0]},
		{id: "max", want: dvfs.MaxSetting()},
		{id: "MAX", want: dvfs.MaxSetting()},
		{id: "S0", wantErr: fmt.Sprintf(unknown, "S0")},
		{id: "S9", wantErr: fmt.Sprintf(unknown, "S9")},
		{id: "S01", wantErr: fmt.Sprintf(unknown, "S01")},
		{id: "", wantErr: "missing setting or setting_id"},
	}
	s := &Server{}
	for _, c := range cases {
		got, err := s.resolveSetting(nil, c.id)
		switch {
		case c.wantErr != "" && (err == nil || err.Error() != c.wantErr):
			t.Errorf("resolveSetting(%q) = %v, %v; want error %q", c.id, got, err, c.wantErr)
		case c.wantErr == "" && (err != nil || got != c.want):
			t.Errorf("resolveSetting(%q) = %v, %v; want %v", c.id, got, err, c.want)
		}
	}
	for i := range val {
		if got, err := s.resolveSetting(nil, dvfs.ValidationID(i)); err != nil || got != val[i] {
			t.Errorf("resolveSetting(%q) = %v, %v; want %v", dvfs.ValidationID(i), got, err, val[i])
		}
	}
	explicit := &SettingJSON{CoreMHz: 852, MemMHz: 924}
	if _, err := s.resolveSetting(explicit, "S1"); err == nil || err.Error() != "give either setting or setting_id, not both" {
		t.Errorf("both selectors: err = %v", err)
	}
}

func TestConcurrentPredicts(t *testing.T) {
	// Acceptance bar: >= 64 concurrent /v1/predict requests, race-clean
	// (the suite runs under -race in CI).
	h := newTestServer(t).Handler()
	const n = 64
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"profile": {"dp_fma": %g, "dram_words": 1e8}, "setting_id": "S%d", "time_s": 0.25}`,
				1e9+float64(i)*1e7, i%8+1)
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: code %d", i, c)
		}
	}
}

// A recalibration swaps a node's calibration under live traffic. Every
// predict body must be one calibration's full answer — parts and
// const_power_w from the same constants — never a mix of two.
func TestPredictUnderRecalibrationIsOneGeneration(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	n := node0(s)
	calA := n.Cal()
	calB := *calA
	modelB := *calA.Model
	modelB.PMisc += 0.5
	calB.Model = &modelB

	const body = `{"profile": {"dp_fma": 1e9, "dram_words": 2e8}, "setting_id": "S1", "time_s": 0.5}`
	answer := func(cal *experiments.Calibration) string {
		n.SetCalibration(cal)
		w := postJSON(t, h, "/v1/predict", body)
		if w.Code != http.StatusOK {
			t.Fatalf("predict = %d: %s", w.Code, w.Body)
		}
		return w.Body.String()
	}
	wantA, wantB := answer(calA), answer(&calB)
	if wantA == wantB {
		t.Fatal("the two calibrations give the same answer")
	}

	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				n.SetCalibration(calA)
			} else {
				n.SetCalibration(&calB)
			}
		}
	}()
	const posters, posts = 2, 2000
	var wg sync.WaitGroup
	var mixed sync.Map
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if got := w.Body.String(); got != wantA && got != wantB {
					mixed.Store(got, w.Code)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapped
	mixed.Range(func(got, code any) bool {
		t.Errorf("status %d body mixes two calibrations:\n%s\nwant one of\n%s\n%s", code, got, wantA, wantB)
		return false
	})
}

func TestAutotunePicksAndCache(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	body := `{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9}`

	w := postJSON(t, h, "/v1/autotune", body)
	if w.Code != http.StatusOK {
		t.Fatalf("autotune = %d: %s", w.Code, w.Body)
	}
	var first AutotuneResponse
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first sweep reported cached")
	}
	if first.Candidates != 16 {
		t.Errorf("candidates = %d, want 16 (calibration grid)", first.Candidates)
	}
	if first.ModelExtraEnergyPct < 0 || first.OracleExtraEnergyPct < 0 {
		t.Errorf("extra-energy percentages negative: %+v", first)
	}
	// The time oracle must pick the fastest candidate; with both domains
	// maxed that is the 852/924 setting.
	if first.TimeOracle.Setting.CoreMHz != 852 || first.TimeOracle.Setting.MemMHz != 924 {
		t.Errorf("time oracle picked %+v, want 852/924", first.TimeOracle.Setting)
	}

	w = postJSON(t, h, "/v1/autotune", body)
	if w.Code != http.StatusOK {
		t.Fatalf("repeat autotune = %d: %s", w.Code, w.Body)
	}
	var second AutotuneResponse
	if err := json.Unmarshal(w.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical repeat sweep not served from cache")
	}
	second.Cached = first.Cached
	if first != second {
		t.Errorf("cached answer differs: %+v vs %+v", first, second)
	}

	counts := s.snapshot().counts
	if hits, misses := counts.hits[""], counts.misses[""]; hits != 1 || misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if !strings.Contains(getPath(t, h, "/metrics").Body.String(), "energyd_autotune_cache_hits_total 1") {
		t.Error("cache hit counter not visible in /metrics")
	}
}

func TestAutotuneSingleflight(t *testing.T) {
	// Concurrent identical sweeps must run the expensive sweep once: one
	// miss (the executor), everyone else a hit joining the flight or the
	// cache.
	s := newTestServer(t)
	h := s.Handler()
	body := `{"profile": {"sp": 4e8, "dram_words": 1e8}, "occupancy": 0.9, "grid": "full"}`
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postJSON(t, h, "/v1/autotune", body)
			if w.Code != http.StatusOK {
				t.Errorf("autotune = %d: %s", w.Code, w.Body)
			}
		}()
	}
	wg.Wait()
	counts := s.snapshot().counts
	hits, misses := counts.hits[""], counts.misses[""]
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 executed sweep", misses)
	}
	if hits != n-1 {
		t.Errorf("hits = %d, want %d", hits, n-1)
	}
}

func TestAutotuneDeadline(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	// A timeout far below any sweep duration must 504 without caching.
	w := postJSON(t, h, "/v1/autotune",
		`{"profile": {"dp_fma": 2e8, "dram_words": 5e7}, "occupancy": 0.9, "grid": "full", "timeout_s": 1e-9}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("autotune with 1ns deadline = %d: %s", w.Code, w.Body)
	}
	if got := node0(s).Cache.Len(); got != 0 {
		t.Errorf("failed sweep cached: %d entries", got)
	}
}

func TestAutotuneRejectsUnknownGrid(t *testing.T) {
	h := newTestServer(t).Handler()
	w := postJSON(t, h, "/v1/autotune", `{"profile": {"sp": 1e9}, "grid": "warp"}`)
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown grid = %d, want 400", w.Code)
	}
}

func TestCalibrationEndpoint(t *testing.T) {
	h := newTestServer(t).Handler()
	w := getPath(t, h, "/v1/calibration")
	if w.Code != http.StatusOK {
		t.Fatalf("calibration = %d", w.Code)
	}
	var resp CalibrationResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Samples != 128 || len(resp.TableI) != 16 {
		t.Errorf("samples %d / table rows %d, want 128 / 16", resp.Samples, len(resp.TableI))
	}
	if math.Abs(float64(resp.Model.DRAMpJ)-369.63) > 1e-6 {
		t.Errorf("DRAM constant %v, want 369.63", resp.Model.DRAMpJ)
	}
	if resp.Grids["calibration"] != 16 || resp.Grids["full"] != 105 {
		t.Errorf("grids = %v", resp.Grids)
	}
}

func TestMetricsFormat(t *testing.T) {
	h := newTestServer(t).Handler()
	postJSON(t, h, "/v1/predict", `{"profile": {"sp": 1e9}, "setting_id": "max", "time_s": 0.1}`)
	postJSON(t, h, "/v1/predict", `{"profile": {}}`) // 400
	body := getPath(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`energyd_requests_total{endpoint="/v1/predict",code="200"} 1`,
		`energyd_requests_total{endpoint="/v1/predict",code="400"} 1`,
		`energyd_request_duration_seconds_count{endpoint="/v1/predict"} 2`,
		"energyd_inflight_requests 0",
		"# TYPE energyd_request_duration_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
}

func TestRunDrainsInflightOnShutdown(t *testing.T) {
	// Run must keep serving an in-flight request after ctx cancellation
	// and only return once the handler finishes.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "drained")
	})
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- Run(ctx, l, h, 10*time.Second) }()

	type result struct {
		body []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + l.Addr().String() + "/")
		if err != nil {
			resc <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resc <- result{b, err}
	}()

	<-started
	cancel() // SIGTERM equivalent: shutdown begins with the request in flight
	select {
	case err := <-runDone:
		t.Fatalf("Run returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", res.err)
	}
	if !bytes.Equal(res.body, []byte("drained")) {
		t.Errorf("in-flight response = %q", res.body)
	}
}

func TestMalformedRequestsRejected(t *testing.T) {
	h := newTestServer(t).Handler()
	for _, path := range []string{"/v1/predict", "/v1/autotune"} {
		for _, body := range []string{
			`{`,                 // truncated JSON
			`not json at all`,   // not JSON
			`{"profile": "sp"}`, // wrong type
			`{"profiel": {}}`,   // unknown field
		} {
			if w := postJSON(t, h, path, body); w.Code != http.StatusBadRequest {
				t.Errorf("POST %s %q = %d, want 400 (%s)", path, body, w.Code, w.Body)
			}
		}
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, path, w.Code)
			}
		}
	}
}

func TestCancelledSweepNotCached(t *testing.T) {
	// A client disconnect mid-sweep must leave no partial result in the
	// LRU and must not count against the breaker.
	cal, err := FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := experiments.Config{Seed: 42, Workers: 1}
	cfg.OnProgress = func(experiments.Progress) { cancel() } // fires after the first unit of work
	s := New(tegra.NewDevice(), cal, cfg, Options{})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/autotune",
		strings.NewReader(`{"profile": {"sp": 4e8, "dram_words": 1e8}, "occupancy": 0.9}`))
	req = req.WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled sweep = %d, want 503 (%s)", w.Code, w.Body)
	}
	if n := node0(s).Cache.Len(); n != 0 {
		t.Errorf("partial sweep landed in the cache: %d entries", n)
	}
	if state, _ := node0(s).Breaker.Snapshot(); state != fleet.BreakerClosed {
		t.Errorf("client cancellation tripped the breaker to %v", state)
	}
}
