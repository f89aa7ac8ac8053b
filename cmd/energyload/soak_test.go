package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/workload"
)

func readSoakTrace(t *testing.T) *workload.Trace {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "soak.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := workload.Read(f)
	if err != nil {
		t.Fatalf("reading checked-in trace: %v", err)
	}
	return tr
}

// soakServer builds the faulted single-device server the soak replays
// against. disconnect=0.5 under plan seed 17 sits in the gap where
// every calibration-grid sweep succeeds and every full-grid sweep
// fails permanently (the fault stream keys on setting identity, so a
// grid's fate is uniform): full-grid autotunes trip the breaker while
// calibration keys warm the cache, and the warmed keys then serve
// degraded — deterministically.
func soakServer(t *testing.T, clk *workload.StepClock) *serve.Server {
	t.Helper()
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParsePlan("disconnect=0.5,seed=17")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: 42, Faults: plan}
	return serve.New(tegra.NewDevice(), cal, cfg, serve.Options{
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Minute,
		Clock:            clk.Now,
	})
}

func replaySoak(t *testing.T) []byte {
	t.Helper()
	return replaySoakVia(t, func(h http.Handler) workload.Target { return workload.HandlerTarget{Handler: h} })
}

// replaySoakVia replays the soak trace in sync mode against a fresh
// soak server, reached through the target that via builds around its
// handler, and returns the report.
func replaySoakVia(t *testing.T, via func(http.Handler) workload.Target) []byte {
	t.Helper()
	tr := readSoakTrace(t)
	clk := workload.NewStepClock(time.Millisecond)
	srv := soakServer(t, clk)
	rep, err := workload.Replay(context.Background(), tr, via(srv.Handler()),
		workload.ReplayOptions{Mode: workload.ModeSync, Now: clk.Now})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The acceptance contract: replaying the checked-in trace twice against
// identically-seeded servers yields byte-identical reports.
func TestSoakReplayByteIdentical(t *testing.T) {
	a, b := replaySoak(t), replaySoak(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two replays against identically-seeded servers differ:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestSoakReplayHTTPTarget replays the soak trace through HTTPTarget,
// over a real listener, and requires the in-process report byte for
// byte: the HTTP client must carry every status, device header and body
// the handler wrote, and the /v1/stats reconciliation must agree.
func TestSoakReplayHTTPTarget(t *testing.T) {
	got := replaySoakVia(t, func(h http.Handler) workload.Target {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return workload.HTTPTarget{Base: ts.URL, Client: ts.Client()}
	})
	if want := replaySoak(t); !bytes.Equal(got, want) {
		t.Fatalf("HTTP replay report differs from the in-process one:\n--- http\n%s\n--- in-process\n%s", got, want)
	}
}

var update = flag.Bool("update", false, "rewrite the golden soak reports under testdata/")

// checkGolden compares a report byte for byte against its checked-in
// golden file, or rewrites the file under -update. The goldens pin the
// serving path's every status, counter and ledger value across
// refactors, which run-to-run identity alone cannot.
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
		t.Fatalf("report differs from %s (regenerate with -update only for an intended change):\n--- got\n%s", path, got)
	}
}

func TestSoakReportGolden(t *testing.T) {
	checkGolden(t, "soak_report.golden.json", replaySoak(t))
}

func TestMembershipSoakReportGolden(t *testing.T) {
	raw, _ := replayMembershipSoak(t)
	checkGolden(t, "membership_soak_report.golden.json", raw)
}

// The soak must actually exercise the failure machinery — breaker
// trips, degraded serves — and the client-side report must reconcile
// exactly with the server's own counters.
func TestSoakReplayReconcilesWithServer(t *testing.T) {
	raw := replaySoak(t)
	var rep workload.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}

	tr := readSoakTrace(t)
	if rep.Requests != len(tr.Events) {
		t.Fatalf("report counts %d requests, trace has %d", rep.Requests, len(tr.Events))
	}
	if rep.TransportFailures != 0 {
		t.Fatalf("%d transport failures against an in-process handler", rep.TransportFailures)
	}
	srv := rep.Server
	if srv == nil {
		t.Fatalf("report carries no server snapshot")
	}
	if srv.BreakerTrips == 0 {
		t.Fatalf("soak never tripped a breaker; the fault plan has drifted out of its regime")
	}
	if srv.DegradedServes == 0 || rep.DegradedResponses == 0 {
		t.Fatalf("soak produced no degraded serves (server %d, client %d)", srv.DegradedServes, rep.DegradedResponses)
	}
	if uint64(rep.DegradedResponses) != srv.DegradedServes {
		t.Fatalf("client saw %d degraded responses, server counted %d", rep.DegradedResponses, srv.DegradedServes)
	}
	if srv.CacheHits == 0 {
		t.Fatalf("soak never hit the sweep cache")
	}
	if srv.SweepJ <= 0 || srv.AnsweredJ <= 0 || srv.AnsweredPerSweepJ <= 0 {
		t.Fatalf("energy ledgers empty: sweep %v answered %v ratio %v", srv.SweepJ, srv.AnsweredJ, srv.AnsweredPerSweepJ)
	}

	// Every endpoint's client-side status counts must match the server's
	// own request counters — /v1/stats reads must not move them.
	clk := workload.NewStepClock(time.Millisecond)
	target := workload.HandlerTarget{Handler: soakServer(t, clk).Handler()}
	rep2, err := workload.Replay(context.Background(), tr, target, workload.ReplayOptions{Mode: workload.ModeSync, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := target.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for path, ep := range rep2.Endpoints {
		srvEp, ok := stats.Endpoints[path]
		if !ok {
			t.Fatalf("server has no counters for %s", path)
		}
		if uint64(ep.Requests) != srvEp.Requests {
			t.Fatalf("%s: client sent %d, server counted %d", path, ep.Requests, srvEp.Requests)
		}
		for code, n := range ep.ByStatus {
			if uint64(n) != srvEp.ByCode[code] {
				t.Fatalf("%s status %s: client saw %d, server counted %d", path, code, n, srvEp.ByCode[code])
			}
		}
	}
}

// The CLI wrapper end to end: gen twice is byte-identical, and an
// in-process fleet replay through runReplay is too.
func TestCLIGenAndReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	genOut := func(name string) string {
		p := filepath.Join(dir, name)
		if err := runGen([]string{"-seed", "7", "-duration", "2", "-out", p}); err != nil {
			t.Fatalf("gen: %v", err)
		}
		return p
	}
	a, b := genOut("a.jsonl"), genOut("b.jsonl")
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("two gens with one seed differ")
	}

	replayOut := func(name string) []byte {
		p := filepath.Join(dir, name)
		if err := runReplay([]string{"-trace", a, "-inprocess", "-report", p}); err != nil {
			t.Fatalf("replay: %v", err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	ra, rb := replayOut("ra.json"), replayOut("rb.json")
	if !bytes.Equal(ra, rb) {
		t.Fatalf("two in-process replays differ:\n--- a\n%s\n--- b\n%s", ra, rb)
	}
	var rep workload.Report
	if err := json.Unmarshal(ra, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	// The built-in fleet has three devices; the hash ring should spread
	// the request keys across all of them.
	devs := 0
	for dev, share := range rep.DeviceShare {
		if dev != "" && share > 0 {
			devs++
		}
	}
	if devs != 3 {
		t.Fatalf("device share covers %d devices, want 3: %v", devs, rep.DeviceShare)
	}
}

// ---- Membership chaos soak ----------------------------------------------
//
// The same checked-in trace, replayed against a 3-device fleet whose
// membership churns mid-flight: a device is added live (and serves), a
// device sickens and is quarantined then probed back to health, a
// device's hardware drifts and is recalibrated by the watchdog, and the
// added device is drained out again. Everything — probe backoff jitter,
// drift firing, recalibration constants — derives from fixed seeds and
// a shared step clock, so two runs produce byte-identical reports.

// membershipHarness is one fully-wired chaos soak instance.
type membershipHarness struct {
	clk    *workload.StepClock
	reg    *fleet.Registry
	health *fleet.Health
	target workload.AdminTarget
	plan   *workload.ChurnPlan
	extras map[string]int // hook-issued requests per endpoint label
}

// newMembershipHarness wires a chaos soak instance whose trace traffic,
// churn calls and stats reads all go through the target that via builds
// around the fleet server's handler.
func newMembershipHarness(t *testing.T, via func(http.Handler) workload.AdminTarget) *membershipHarness {
	t.Helper()
	clk := workload.NewStepClock(time.Millisecond)
	fc := fleet.FleetConfig{Seed: 42, Devices: []fleet.Spec{
		{ID: "soak-a"},
		{ID: "soak-b", Params: fleet.ParamsJSON{LeakProcWpV: 3.55}},
		{ID: "soak-c", Params: fleet.ParamsJSON{SPpJ: 22.1}},
	}}
	base := experiments.Config{Seed: 42}
	opts := serve.Options{
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Minute,
		Clock:            clk.Now,
		DrainDeadline:    time.Second,
		Drift: &fleet.DriftConfig{
			// Slack sits above the healthy fleet's systematic residual
			// (the non-ideal simulator runs ~5% hot against the synthetic
			// fit) so only injected drift accumulates.
			Window: 32, Slack: 0.10, Threshold: 0.75,
		},
		SyncRecalibrate: true,
	}
	reg, err := fleet.Build(fc, base, nil, opts.NodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts.Admin = &fleet.Admin{
		FleetSeed: fleet.ResolveSeed(fc, base),
		Base:      base,
		Node:      opts.NodeOptions(),
	}
	srv := serve.NewFleet(reg, opts)
	h := &membershipHarness{
		clk:    clk,
		reg:    reg,
		target: via(srv.Handler()),
		extras: make(map[string]int),
	}
	// Probe backoffs are tiny because the step clock advances ~4 virtual
	// ms per replayed event: 10 ms keeps the whole quarantine -> probe ->
	// recovery arc inside the 400-event trace.
	h.health = fleet.NewHealth(reg, fleet.HealthConfig{
		QuarantineAfter: 2,
		ProbeBackoff:    10 * time.Millisecond,
		ProbeBackoffMax: 40 * time.Millisecond,
		Seed:            42,
	}, nil)
	h.plan = &workload.ChurnPlan{Steps: []workload.ChurnStep{
		// A fourth device joins live and starts serving ring keys.
		{Before: 20, Action: "add", Spec: json.RawMessage(`{"id": "soak-added", "params": {"misc_w": 0.3}}`)},
		// soak-b sickens: breaker pinned open (serving degrades but never
		// errors) and its meter drops off the bus so recovery probes fail.
		{Before: 40, Action: "call", Run: func(ctx context.Context) error {
			n, _ := reg.Get("soak-b")
			n.Breaker.ForceOpen(true)
			n.Cfg.Faults = faults.Plan{MeterDisconnect: 1, Seed: 9}
			return nil
		}},
		// soak-b heals: the next due probe measures a real sweep and
		// brings it back to active.
		{Before: 80, Action: "call", Run: func(ctx context.Context) error {
			n, _ := reg.Get("soak-b")
			n.Breaker.ForceOpen(false)
			n.Cfg.Faults = faults.Plan{}
			return nil
		}},
		// soak-c's hardware drifts under a sustained thermal event: the
		// clocks throttle deep and the heat-soaked sense path reads hot
		// (a gain error), so measured energy diverges decisively from the
		// calibrated model. A fresh placement sweep carries the signal to
		// the watchdog, which must recalibrate exactly once, synchronously,
		// mid-trace — the refit constants then describe the device as it
		// now behaves, so the watchdog quiets down again.
		{Before: 100, Action: "call", Run: func(ctx context.Context) error {
			n, _ := reg.Get("soak-c")
			n.Cfg.Faults = faults.Plan{Throttle: 1, ThrottleFactor: 0.05, ThrottleFraction: 1, MeterSpike: 1, SpikeFactor: 4, Seed: 5}
			h.extras["/v1/fleet/place"]++
			status, body, err := h.target.Admin(ctx, "POST", "/v1/fleet/place",
				[]byte(`{"profile": {"sp": 9.5e8, "int": 3.1e8, "dram_words": 1.7e8}, "occupancy": 0.55}`))
			if err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("drift-trigger place = %d: %s", status, body)
			}
			return nil
		}},
		// The live-added device drains back out.
		{Before: 160, Action: "drain", Device: "soak-added"},
	}}
	return h
}

// replayMembershipSoak runs the chaos soak once in-process and returns
// the report bytes plus the harness for post-mortem assertions.
func replayMembershipSoak(t *testing.T) ([]byte, *membershipHarness) {
	t.Helper()
	return replayMembershipSoakVia(t, func(h http.Handler) workload.AdminTarget { return workload.HandlerTarget{Handler: h} })
}

// replayMembershipSoakVia runs the chaos soak once through the target
// that via builds around the fleet server's handler.
func replayMembershipSoakVia(t *testing.T, via func(http.Handler) workload.AdminTarget) ([]byte, *membershipHarness) {
	t.Helper()
	tr := readSoakTrace(t)
	h := newMembershipHarness(t, via)
	ctx := context.Background()
	churn := h.plan.Hook(ctx, h.target)
	rep, err := workload.Replay(ctx, tr, h.target, workload.ReplayOptions{
		Mode: workload.ModeSync,
		Now:  h.clk.Now,
		BeforeEvent: func(i int) error {
			if i%10 == 0 {
				h.health.Tick(ctx, h.clk.Now())
			}
			return churn(i)
		},
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), h
}

// Determinism first: the full churn arc — add, quarantine, probe,
// recalibrate, drain — replays byte-identically under one seed set.
func TestMembershipSoakByteIdentical(t *testing.T) {
	a, _ := replayMembershipSoak(t)
	b, _ := replayMembershipSoak(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two chaos replays against identically-seeded fleets differ:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestMembershipSoakHTTPTarget replays the chaos soak, churn plan
// included, through HTTPTarget over a real listener and requires the
// in-process report byte for byte: the add, drain and drift-trigger
// calls go through HTTPTarget.Admin, and every status, device header
// and /v1/stats counter must survive the wire.
func TestMembershipSoakHTTPTarget(t *testing.T) {
	got, _ := replayMembershipSoakVia(t, func(h http.Handler) workload.AdminTarget {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return workload.HTTPTarget{Base: ts.URL, Client: ts.Client()}
	})
	if want, _ := replayMembershipSoak(t); !bytes.Equal(got, want) {
		t.Fatalf("HTTP chaos replay report differs from the in-process one:\n--- http\n%s\n--- in-process\n%s", got, want)
	}
}

// The chaos contract: mid-trace membership churn may degrade requests
// (503) or orphan pinned ones (404) but never surface any other
// failure, and the client report plus the hook's own admin traffic must
// reconcile exactly with the server's counters.
func TestMembershipSoakChaos(t *testing.T) {
	raw, h := replayMembershipSoak(t)
	var rep workload.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.TransportFailures != 0 {
		t.Fatalf("%d transport failures against an in-process handler", rep.TransportFailures)
	}
	allowed := map[string]bool{"200": true, "201": true, "202": true, "404": true, "503": true}
	for path, ep := range rep.Endpoints {
		for code, n := range ep.ByStatus {
			if !allowed[code] {
				t.Errorf("%s answered %d requests with disallowed status %s", path, n, code)
			}
		}
	}

	// The live-added device actually served trace traffic while it was a
	// member.
	if rep.DeviceShare["soak-added"] <= 0 {
		t.Errorf("live-added device served no requests: share %v", rep.DeviceShare)
	}

	// Exact reconciliation: every server-counted request is either a
	// trace event or a hook-issued admin call.
	stats, err := h.target.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hookIssued := map[string]int{
		"/v1/fleet/devices":      h.plan.Issued["/v1/fleet/devices"],
		"/v1/fleet/devices/{id}": h.plan.Issued["/v1/fleet/devices/{id}"],
	}
	for path, n := range h.extras {
		hookIssued[path] += n
	}
	for path, srvEp := range stats.Endpoints {
		if path == "/v1/stats" {
			continue // the reconciliation reads themselves
		}
		want := rep.Endpoints[path].Requests + hookIssued[path]
		if int(srvEp.Requests) != want {
			t.Errorf("%s: server counted %d, client sent %d trace + %d hook",
				path, srvEp.Requests, rep.Endpoints[path].Requests, hookIssued[path])
		}
	}
	if h.plan.Issued["/v1/fleet/devices"] != 1 || h.plan.Issued["/v1/fleet/devices/{id}"] != 1 {
		t.Errorf("churn plan issued %v, want one add and one remove", h.plan.Issued)
	}

	// Final membership: the added device is gone, the original three are
	// active again, and the registry epoch moved with the churn.
	if stats.States["active"] != 3 || len(stats.Devices) != 3 {
		t.Fatalf("final states %v over %d devices, want 3 active", stats.States, len(stats.Devices))
	}
	byID := make(map[string]serve.DeviceStats, len(stats.Devices))
	for _, d := range stats.Devices {
		byID[d.DeviceID] = d
	}
	if _, ok := byID["soak-added"]; ok {
		t.Error("drained device still in the final stats")
	}
	// soak-b went through exactly one quarantine spell and recovered.
	if b := byID["soak-b"]; b.Quarantines != 1 || b.State != "active" || b.Breaker != "closed" {
		t.Errorf("soak-b = %+v, want one quarantine, active, closed breaker", b)
	}
	// soak-c's drift fired exactly one recalibration; the constants
	// swapped under a new generation.
	if c := byID["soak-c"]; c.Recalibrations != 1 || c.CalGeneration != 2 {
		t.Errorf("soak-c = %+v, want exactly one recalibration at generation 2", c)
	}
	nc, _ := h.reg.Get("soak-c")
	if nc.RecalFailures() != 0 {
		t.Errorf("soak-c recorded %d recalibration failures", nc.RecalFailures())
	}
	// Untouched device: no lifecycle events at all.
	if a := byID["soak-a"]; a.Quarantines != 0 || a.Recalibrations != 0 || a.CalGeneration != 1 {
		t.Errorf("soak-a = %+v, want no lifecycle churn", a)
	}
}
