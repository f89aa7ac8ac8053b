package workload

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
)

// bothTargets returns the in-process and the HTTP target for one
// handler, so a test can require they behave alike.
func bothTargets(t *testing.T, h http.Handler) map[string]AdminTarget {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return map[string]AdminTarget{
		"handler": HandlerTarget{Handler: h},
		"http":    HTTPTarget{Base: ts.URL, Client: ts.Client()},
	}
}

// A /v1/stats read that fails — a non-200 answer or a body that is not
// a stats snapshot — gives the same error through either target.
func TestStatsErrors(t *testing.T) {
	cases := []struct {
		name   string
		status int
		body   string
		want   string
	}{
		{"non-200", http.StatusServiceUnavailable, "draining\n", "workload: /v1/stats = 503: draining\n"},
		{"undecodable", http.StatusOK, `{"uptime_s": `, "workload: decoding /v1/stats: unexpected end of JSON input"},
		{"wrong type", http.StatusOK, `[]`, "workload: decoding /v1/stats: json: cannot unmarshal array into Go value of type serve.StatsResponse"},
	}
	for _, c := range cases {
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || r.URL.Path != "/v1/stats" {
				t.Errorf("stats read sent %s %s", r.Method, r.URL.Path)
			}
			w.WriteHeader(c.status)
			w.Write([]byte(c.body))
		})
		for name, tgt := range bothTargets(t, h) {
			stats, err := tgt.Stats(context.Background())
			if err == nil || err.Error() != c.want {
				t.Errorf("%s/%s: Stats() = %v, %v; want error %q", c.name, name, stats, err, c.want)
			}
		}
	}
}

// Admin sends a body as JSON and no body as none, and carries the
// status and reply back, through either target. A bodiless request
// reaches the handler with a readable empty body, as net/http's server
// delivers it.
func TestAdminRequestShape(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(r.Method + " " + r.URL.RequestURI() + " [" + r.Header.Get("Content-Type") + "] " + string(body)))
	})
	for name, tgt := range bothTargets(t, h) {
		for _, c := range []struct {
			method, path string
			body         []byte
			want         string
		}{
			{"POST", "/v1/fleet/devices?wait=1", []byte(`{"id":"x"}`), `POST /v1/fleet/devices?wait=1 [application/json] {"id":"x"}`},
			{"DELETE", "/v1/fleet/devices/x?mode=drain", nil, "DELETE /v1/fleet/devices/x?mode=drain [] "},
			{"GET", "/v1/fleet/devices", nil, "GET /v1/fleet/devices [] "},
		} {
			status, resp, err := tgt.Admin(context.Background(), c.method, c.path, c.body)
			if err != nil || status != http.StatusAccepted || string(resp) != c.want {
				t.Errorf("%s: Admin(%s %s) = %d %q %v; want 202 %q", name, c.method, c.path, status, resp, err, c.want)
			}
		}
	}
}

// BenchmarkHandlerTargetDo measures one warm fleet predict through the
// in-process target: request construction, the recorder, and the
// server's decode, route, Eq. 9 score and encode.
func BenchmarkHandlerTargetDo(b *testing.B) {
	fc := fleet.FleetConfig{Seed: 42, Devices: []fleet.Spec{
		{ID: "tk1-reference"},
		{ID: "tk1-binned-hot", Params: fleet.ParamsJSON{LeakProcWpV: 3.55, MiscW: 0.32}},
		{ID: "tk1-lowpower-sku", Params: fleet.ParamsJSON{SPpJ: 22.1, DRAMpJ: 318.5}, MaxCoreMHz: 612},
	}}
	opts := serve.Options{}
	reg, err := fleet.Build(fc, experiments.Config{Seed: 42}, nil, opts.NodeOptions())
	if err != nil {
		b.Fatal(err)
	}
	tgt := HandlerTarget{Handler: serve.NewFleet(reg, opts).Handler()}
	body := []byte(`{"profile": {"dp_fma": 174272, "dp_add": 64512, "int": 508704, "shared_words": 195776, "dram_words": 1536}, "setting_id": "S1", "occupancy": 0.32}`)
	ctx := context.Background()
	if status, _, resp, err := tgt.Do(ctx, OpFleetPredict, "", body); err != nil || status != http.StatusOK {
		b.Fatalf("warm-up fleet predict = %d %s %v", status, resp, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _, _, err := tgt.Do(ctx, OpFleetPredict, "", body); err != nil || status != http.StatusOK {
			b.Fatalf("fleet predict = %d %v", status, err)
		}
	}
}
