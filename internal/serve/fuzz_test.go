package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
)

// The fuzz targets drive raw bytes through the energyd JSON decoders and
// hold two invariants over /v1/predict and /v1/autotune:
//
//  1. the handler never panics, whatever the body;
//  2. a body the wire decoder rejects is never answered 2xx, and every
//     response — success or error — is itself valid JSON.
//
// The seed corpus mixes handwritten edge cases with request bodies
// derived from cmd/energyd/testdata/samples.csv, so the mutator starts
// from realistic calibration-shaped profiles.

// fuzzHandler builds one fixture-calibrated server for a fuzz target.
// The sweep timeout is tightened so mutated-but-valid autotune bodies
// cannot pin a fuzz worker to the full 30 s production default.
func fuzzHandler(f *testing.F) http.Handler {
	f.Helper()
	cal, err := serve.FixtureCalibration()
	if err != nil {
		f.Fatalf("fixture calibration: %v", err)
	}
	srv := serve.New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, serve.Options{
		SweepTimeout: 2 * time.Second,
	})
	return srv.Handler()
}

// csvSeedBodies turns the first few rows of the energyd sample fixture
// into request bodies: the profile columns map one-to-one onto the wire
// field names, which is exactly the correspondence ProfileJSON documents.
func csvSeedBodies(tb testing.TB, withSetting bool) []string {
	tb.Helper()
	raw, err := os.ReadFile("../../cmd/energyd/testdata/samples.csv")
	if err != nil {
		tb.Fatalf("reading sample fixture: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var bodies []string
	for _, line := range lines[1:] {
		if len(bodies) == 4 {
			break
		}
		c := strings.Split(line, ",")
		if len(c) != 15 {
			tb.Fatalf("sample fixture row has %d columns, want 15: %q", len(c), line)
		}
		profile := fmt.Sprintf(`{"sp": %s, "dp_fma": %s, "dp_add": %s, "dp_mul": %s, "int": %s, "shared_words": %s, "l1_words": %s, "l2_words": %s, "dram_words": %s}`,
			c[4], c[5], c[6], c[7], c[8], c[9], c[10], c[11], c[12])
		if withSetting {
			bodies = append(bodies, fmt.Sprintf(
				`{"profile": %s, "setting": {"core_mhz": %s, "mem_mhz": %s}, "time_s": %s}`,
				profile, c[0], c[2], c[13]))
		} else {
			bodies = append(bodies, fmt.Sprintf(`{"profile": %s}`, profile))
		}
	}
	return bodies
}

// checkInvariants posts body to path and enforces the fuzz contract.
// The decode mirror below reproduces the wire decoder's strictness
// (unknown fields rejected); the size cap is deliberately absent — an
// oversized body that decodes fine here must simply not be 2xx there.
func checkInvariants(t *testing.T, h http.Handler, path, body string, dst any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)

	if rr.Code < 100 || rr.Code > 599 {
		t.Fatalf("%s returned impossible status %d for body %q", path, rr.Code, body)
	}
	if !json.Valid(rr.Body.Bytes()) {
		t.Fatalf("%s returned non-JSON body for %q: %q", path, body, rr.Body.String())
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil && rr.Code >= 200 && rr.Code < 300 {
		t.Fatalf("%s answered %d to a body its decoder rejects (%v): %q", path, rr.Code, err, body)
	}
	if rr.Code >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s error status %d without an error body: %q", path, rr.Code, rr.Body.String())
		}
	}
}

// TestTrailingInputRejected holds every JSON endpoint to exactly one
// body value: stray text or a second value after the first is a 400
// "bad request body", never an answer to the first value alone, and a
// rejected add leaves the fleet as it was. Trailing whitespace is fine.
func TestTrailingInputRejected(t *testing.T) {
	srv, reg := adminFleet(t, serve.Options{})
	h := srv.Handler()
	bodies := map[string]string{
		"/v1/predict":       `{"profile": {"dp_fma": 1e9}, "setting_id": "max"}`,
		"/v1/fleet/predict": `{"profile": {"dp_fma": 1e9}, "setting_id": "max"}`,
		"/v1/autotune":      `{"profile": {"dp_fma": 1e9}}`,
		"/v1/fleet/place":   `{"profile": {"dp_fma": 1e9}}`,
		"/v1/fleet/devices": `{"id": "tk1-c"}`,
	}
	epoch := epochOf(reg)
	for path, body := range bodies {
		prefix := "bad request body:"
		if path == "/v1/fleet/devices" {
			prefix = "fleet: parsing device spec:"
		}
		for _, tail := range []string{` trailing`, " " + body, `]`, `0`} {
			w := post(t, h, path, body+tail)
			var e serve.ErrorJSON
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest || !strings.HasPrefix(e.Error, prefix) {
				t.Errorf("POST %s %q = %d %s, want 400 %q", path, body+tail, w.Code, w.Body, prefix)
			}
		}
	}
	if len(reg.Nodes()) != 2 || epochOf(reg) != epoch {
		t.Fatalf("rejected adds mutated the registry: %d devices, epoch %d -> %d", len(reg.Nodes()), epoch, epochOf(reg))
	}
	for _, path := range []string{"/v1/predict", "/v1/fleet/predict"} {
		if w := post(t, h, path, bodies[path]+" \n\t"); w.Code != http.StatusOK {
			t.Errorf("POST %s with trailing whitespace = %d: %s", path, w.Code, w.Body)
		}
	}
}

func FuzzPredictRequest(f *testing.F) {
	h := fuzzHandler(f)
	for _, body := range csvSeedBodies(f, true) {
		f.Add(body)
	}
	for _, body := range []string{
		`{"profile": {"dp_fma": 1e9, "dram_words": 2e8}, "setting_id": "max"}`,
		`{"profile": {"dp_fma": 1e9}, "setting_id": "S3", "occupancy": 0.5}`,
		`{"profile": {"dp_fma": 1e9}, "setting": {"core_mhz": 564, "mem_mhz": 792}}`,
		`{"profile": {"dp_fma": 1e9}, "setting_id": "max", "setting": {"core_mhz": 564, "mem_mhz": 792}}`,
		`{"profile": {"dp_fma": 1e9}, "setting_id": "max", "time_s": -1}`,
		`{"profile": {"dp_fma": -5}, "setting_id": "max"}`,
		`{"profile": {}, "setting_id": "max"}`,
		`{"profile": {"dp_fma": 1e9}, "setting_id": "nope"}`,
		`{"profile": {"dp_fma": 1e9}, "bogus_field": 1}`,
		`{"profile": {"dp_fma": 1e309}, "setting_id": "max"}`,
		`{"profile"`,
		`{"profile": {"dp_fma": 1e9}, "setting_id": "max"} trailing`,
		`{"profile": {"dp_fma": 1e9}, "setting_id": "max"}{"profile": {"sp": 1e9}, "setting_id": "S2"}`,
		`null`,
		``,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req serve.PredictRequest
		checkInvariants(t, h, "/v1/predict", body, &req)
	})
}

func FuzzAutotuneRequest(f *testing.F) {
	h := fuzzHandler(f)
	for _, body := range csvSeedBodies(f, false) {
		f.Add(body)
	}
	for _, body := range []string{
		`{"profile": {"dp_fma": 1e9, "dram_words": 2e8}}`,
		`{"profile": {"dp_fma": 1e9}, "grid": "full", "timeout_s": 0.5}`,
		`{"profile": {"dp_fma": 1e9}, "grid": "nonsense"}`,
		`{"profile": {"dp_fma": 1e9}, "occupancy": 2}`,
		`{"profile": {"int": 5e8, "l2_words": 1e8}, "timeout_s": 0.01}`,
		// Timeouts too large for a time.Duration must fall back to the
		// server cap, not wrap into an already expired deadline.
		`{"profile": {"dp_fma": 1e9}, "timeout_s": 1e10}`,
		`{"profile": {"dp_fma": 1e9}, "timeout_s": 1e300}`,
		`{"profile": {"dp_fma": 1e15}}`,
		`{"profile": {}}`,
		`{"profile": {"dp_fma": 1e9}, "unknown": true}`,
		`[1, 2, 3]`,
		`{`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req serve.AutotuneRequest
		checkInvariants(t, h, "/v1/autotune", body, &req)
	})
}
