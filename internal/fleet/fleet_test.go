package fleet

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// buildTestFleet assembles a 3-device heterogeneous registry from specs
// alone (synthetic calibrations, no loader).
func buildTestFleet(t *testing.T, specs ...Spec) *Registry {
	t.Helper()
	if len(specs) == 0 {
		specs = []Spec{
			{ID: "tk1-a"},
			{ID: "tk1-hot", Params: ParamsJSON{LeakProcWpV: 3.6, MiscW: 0.25}},
			{ID: "tk1-lowpower", Params: ParamsJSON{SPpJ: 21.0, DRAMpJ: 310.0}, MaxCoreMHz: 612},
		}
	}
	reg, err := Build(FleetConfig{Devices: specs}, experiments.Config{Seed: 42}, nil, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestSyntheticCalibrationRecoversDeclaredModel: the synthetic campaign
// is noiseless, so fitting it must recover each device's declared
// constants to numerical precision — heterogeneous fleets boot with
// per-device models that match their specs.
func TestSyntheticCalibrationRecoversDeclaredModel(t *testing.T) {
	spec := Spec{ID: "x", Params: ParamsJSON{SPpJ: 19.5, DRAMpJ: 401.25, LeakProcWpV: 3.1, MiscW: 0.4}}
	declared := DeclaredModel(spec.DeviceParams())
	cal, err := SyntheticCalibration(declared)
	if err != nil {
		t.Fatal(err)
	}
	m := cal.Model
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"sp", float64(m.SPpJ), float64(declared.SPpJ)},
		{"dp", float64(m.DPpJ), float64(declared.DPpJ)},
		{"int", float64(m.IntpJ), float64(declared.IntpJ)},
		{"sm", float64(m.SMpJ), float64(declared.SMpJ)},
		{"l2", float64(m.L2pJ), float64(declared.L2pJ)},
		{"dram", float64(m.DRAMpJ), float64(declared.DRAMpJ)},
		{"c1proc", float64(m.C1Proc), float64(declared.C1Proc)},
		{"c1mem", float64(m.C1Mem), float64(declared.C1Mem)},
		{"pmisc", float64(m.PMisc), float64(declared.PMisc)},
	}
	for _, p := range pairs {
		if math.Abs(p.got-p.want) > 1e-6*math.Max(1, p.want) {
			t.Errorf("fitted %s = %v, declared %v", p.name, p.got, p.want)
		}
	}
}

func TestSpecParamsMergeFromTK1(t *testing.T) {
	base := tegra.TK1Params()
	p := Spec{ID: "x", Params: ParamsJSON{SPpJ: 11.5}}.DeviceParams()
	if p.SPpJ != 11.5 {
		t.Errorf("override SPpJ = %v, want 11.5", p.SPpJ)
	}
	if p.DPpJ != base.DPpJ || p.DRAMpJ != base.DRAMpJ || p.MiscW != base.MiscW {
		t.Error("unset fields did not inherit the TK1 baseline")
	}
	if p.ActivitySlope != base.ActivitySlope {
		t.Error("non-ideality knobs must inherit unless Ideal is set")
	}
	ideal := Spec{ID: "x", Ideal: true}.DeviceParams()
	if ideal.ActivitySlope != 0 || ideal.ThermalSlope != 0 || ideal.FreqSlope != 0 ||
		ideal.MixJitterAmp != 0 || ideal.StallWatts != 0 {
		t.Error("Ideal spec retained non-ideality knobs")
	}
	if ideal.SPpJ != base.SPpJ {
		t.Error("Ideal must not zero the physical coefficients")
	}
}

// TestSpecParamsKeys pins the wire names of a spec's params object: each
// key read through ParseSpec sets exactly its own field of DeviceParams,
// an absent key or -0 inherits the TK1 value, and "ideal" zeroes exactly
// the five non-ideality knobs unless one is declared.
func TestSpecParamsKeys(t *testing.T) {
	type setter = func(p *tegra.DeviceParams, v float64)
	keys := []struct {
		key  string
		knob bool
		set  setter
	}{
		{"sp_pj_v2", false, func(p *tegra.DeviceParams, v float64) { p.SPpJ = units.PicoJoulePerOpPerVoltSq(v) }},
		{"dp_pj_v2", false, func(p *tegra.DeviceParams, v float64) { p.DPpJ = units.PicoJoulePerOpPerVoltSq(v) }},
		{"int_pj_v2", false, func(p *tegra.DeviceParams, v float64) { p.IntpJ = units.PicoJoulePerOpPerVoltSq(v) }},
		{"shared_pj_v2", false, func(p *tegra.DeviceParams, v float64) { p.SharedpJ = units.PicoJoulePerOpPerVoltSq(v) }},
		{"l2_pj_v2", false, func(p *tegra.DeviceParams, v float64) { p.L2pJ = units.PicoJoulePerOpPerVoltSq(v) }},
		{"dram_pj_v2", false, func(p *tegra.DeviceParams, v float64) { p.DRAMpJ = units.PicoJoulePerOpPerVoltSq(v) }},
		{"leak_proc_w_v", false, func(p *tegra.DeviceParams, v float64) { p.LeakProcWpV = units.WattPerVolt(v) }},
		{"leak_mem_w_v", false, func(p *tegra.DeviceParams, v float64) { p.LeakMemWpV = units.WattPerVolt(v) }},
		{"misc_w", false, func(p *tegra.DeviceParams, v float64) { p.MiscW = units.Watt(v) }},
		{"activity_slope", true, func(p *tegra.DeviceParams, v float64) { p.ActivitySlope = units.Ratio(v) }},
		{"thermal_slope", true, func(p *tegra.DeviceParams, v float64) { p.ThermalSlope = units.Ratio(v) }},
		{"freq_slope", true, func(p *tegra.DeviceParams, v float64) { p.FreqSlope = units.Ratio(v) }},
		{"mix_jitter_amp", true, func(p *tegra.DeviceParams, v float64) { p.MixJitterAmp = units.Ratio(v) }},
		{"stall_watts", true, func(p *tegra.DeviceParams, v float64) { p.StallWatts = units.Watt(v) }},
	}
	params := func(body string) tegra.DeviceParams {
		t.Helper()
		s, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return s.DeviceParams()
	}
	tk1 := tegra.TK1Params()
	ideal := tk1
	for _, k := range keys {
		if k.knob {
			k.set(&ideal, 0)
		}
	}
	if got := params(`{"id":"x"}`); got != tk1 {
		t.Errorf("no params: got %+v, want TK1 %+v", got, tk1)
	}
	if got := params(`{"id":"x","ideal":true}`); got != ideal {
		t.Errorf("ideal: got %+v, want %+v", got, ideal)
	}
	const v = 0.875 // differs from every TK1 value and is valid for every field
	for _, k := range keys {
		want := tk1
		k.set(&want, v)
		body := fmt.Sprintf(`{"id":"x","params":{%q:%g}}`, k.key, v)
		if got := params(body); got != want {
			t.Errorf("%s: got %+v, want %+v", body, got, want)
		}
		body = fmt.Sprintf(`{"id":"x","params":{%q:-0}}`, k.key)
		if got := params(body); got != tk1 {
			t.Errorf("%s: -0 must inherit TK1, got %+v", body, got)
		}
		if k.knob {
			want := ideal
			k.set(&want, v)
			body := fmt.Sprintf(`{"id":"x","ideal":true,"params":{%q:%g}}`, k.key, v)
			if got := params(body); got != want {
				t.Errorf("%s: got %+v, want %+v", body, got, want)
			}
		}
	}
}

func TestSpecDVFSBoundsFilterGrids(t *testing.T) {
	s := Spec{ID: "trimmed", MinCoreMHz: 300, MaxCoreMHz: 612}
	grids, err := s.Grids()
	if err != nil {
		t.Fatal(err)
	}
	full, cal := grids["full"], grids["calibration"]
	if len(full) == 0 || len(cal) == 0 {
		t.Fatal("bounds emptied the grids")
	}
	for _, set := range full {
		if set.Core.FreqMHz < 300 || set.Core.FreqMHz > 612 {
			t.Fatalf("full grid leaked out-of-bounds setting %v", set)
		}
	}
	unbounded, err := Spec{ID: "all"}.Grids()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) >= len(unbounded["full"]) {
		t.Error("bounds did not shrink the full grid")
	}
	// Impossible bounds are a config error, not an empty fleet member.
	if _, err := (Spec{ID: "bad", MinCoreMHz: 5000}).Grids(); err == nil {
		t.Error("impossible bounds must error")
	}
}

func TestParseConfigRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"devices": [{"id": "a", "capacitance": 1}]}`,
		"no devices":      `{"devices": []}`,
		"empty id":        `{"devices": [{"id": ""}]}`,
		"duplicate id":    `{"devices": [{"id": "a"}, {"id": "a"}]}`,
		"negative seed":   `{"devices": [{"id": "a", "seed": -1}]}`,
		"empty grid":      `{"devices": [{"id": "a", "min_core_mhz": 9000}]}`,
		"typo in params":  `{"devices": [{"id": "a", "params": {"sp_pj": 1}}]}`,
		"negative params": `{"devices": [{"id": "a", "params": {"sp_pj_v2": -3}}]}`,
	}
	for name, body := range cases {
		if _, err := ParseConfig([]byte(body)); err == nil {
			t.Errorf("%s: ParseConfig accepted %s", name, body)
		}
	}
}

// TestParseRejectsTrailingInput holds both spec decoders to exactly one
// JSON value: stray text or a second value after the first is an error,
// not silently ignored, while trailing whitespace is fine.
func TestParseRejectsTrailingInput(t *testing.T) {
	const spec = `{"id": "a"}`
	const config = `{"devices": [{"id": "a"}]}`
	for name, tail := range map[string]string{
		"text":         ` trailing`,
		"second value": ` {"id": "b"}`,
		"number":       `1`,
		"closing":      `]`,
	} {
		if _, err := ParseSpec([]byte(spec + tail)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", name, spec+tail)
		}
		if _, err := ParseConfig([]byte(config + tail)); err == nil {
			t.Errorf("%s: ParseConfig accepted %s", name, config+tail)
		}
	}
	if _, err := ParseSpec([]byte(spec + " \n\t")); err != nil {
		t.Errorf("ParseSpec rejected trailing whitespace: %v", err)
	}
	if _, err := ParseConfig([]byte(config + "\n")); err != nil {
		t.Errorf("ParseConfig rejected trailing whitespace: %v", err)
	}
}

func TestLoadConfigResolvesRelativeCachePaths(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "fleet.json")
	body := `{"devices": [{"id": "a", "calibration_cache": "caches/a.csv"}, {"id": "b"}]}`
	if err := os.WriteFile(cfgPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	fc, err := LoadConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "caches", "a.csv")
	if fc.Devices[0].CalibrationCache != want {
		t.Errorf("cache path = %q, want %q", fc.Devices[0].CalibrationCache, want)
	}
	if fc.Devices[1].CalibrationCache != "" {
		t.Error("device without a cache gained one")
	}
}

// TestNodeSeedsIdentityDerived: seeds come from the fleet seed and the
// device ID, so they are distinct across devices, stable under fleet
// membership changes, and honor explicit pins.
func TestNodeSeedsIdentityDerived(t *testing.T) {
	a := NodeSeed(42, Spec{ID: "alpha"})
	b := NodeSeed(42, Spec{ID: "beta"})
	if a == b {
		t.Error("two devices derived the same seed")
	}
	if NodeSeed(42, Spec{ID: "alpha"}) != a {
		t.Error("seed derivation is not stable")
	}
	if NodeSeed(7, Spec{ID: "alpha"}) == a {
		t.Error("fleet seed does not flow into device seeds")
	}
	if NodeSeed(42, Spec{ID: "alpha", Seed: 1234}) != 1234 {
		t.Error("explicit seed pin ignored")
	}
}

func TestRegistryRoutingDeterministicAcrossBuilds(t *testing.T) {
	r1 := buildTestFleet(t)
	r2 := buildTestFleet(t)
	keys := []string{"wl-a", "wl-b", "wl-c", "wl-d", "wl-e", "wl-f"}
	distinct := make(map[string]bool)
	for _, k := range keys {
		n1, n2 := r1.Route(k), r2.Route(k)
		if n1.ID != n2.ID {
			t.Fatalf("key %q routed to %q then %q across identical builds", k, n1.ID, n2.ID)
		}
		distinct[n1.ID] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d keys landed on one device; ring looks degenerate", len(keys))
	}
}

// TestRouteHealthyFailsOverInRingOrder: an open breaker on the primary
// moves traffic to the next device in ring order — deterministically —
// and recovery moves it back.
func TestRouteHealthyFailsOverInRingOrder(t *testing.T) {
	reg := buildTestFleet(t)
	const key = "failover-workload"
	primary := reg.Route(key)
	n, failover := reg.RouteHealthy(key)
	if failover || n != primary {
		t.Fatalf("healthy fleet must serve from the primary %q, got %q", primary.ID, n.ID)
	}

	primary.Breaker.ForceOpen(true)
	n2, failover := reg.RouteHealthy(key)
	if !failover || n2 == primary {
		t.Fatalf("open primary not failed over: got %q (failover=%v)", n2.ID, failover)
	}
	// The backup is stable while the outage lasts.
	for i := 0; i < 8; i++ {
		if n, _ := reg.RouteHealthy(key); n != n2 {
			t.Fatal("failover target changed between requests")
		}
	}

	// With every breaker open the primary is returned (degraded path).
	for _, node := range reg.Nodes() {
		node.Breaker.ForceOpen(true)
	}
	if n, failover := reg.RouteHealthy(key); n != primary || failover {
		t.Errorf("all-open fleet must fall back to the primary, got %q (failover=%v)", n.ID, failover)
	}

	primary.Breaker.ForceOpen(false)
	if n, failover := reg.RouteHealthy(key); n != primary || failover {
		t.Errorf("recovered primary not restored: got %q", n.ID)
	}
}

func TestLeastLoadedTieBreaksByID(t *testing.T) {
	reg := buildTestFleet(t)
	if got := reg.LeastLoaded(); got != reg.Nodes()[0] {
		t.Fatalf("idle fleet least-loaded = %q, want lowest ID %q", got.ID, reg.Nodes()[0].ID)
	}
	release := reg.Nodes()[0].Acquire()
	if got := reg.LeastLoaded(); got != reg.Nodes()[1] {
		t.Fatalf("least-loaded = %q with node 0 busy, want %q", got.ID, reg.Nodes()[1].ID)
	}
	release()
	if reg.Nodes()[0].Load() != 0 {
		t.Error("release did not drop the load gauge")
	}
}

func TestBuildValidatesAndWiresNodes(t *testing.T) {
	reg := buildTestFleet(t)
	if len(reg.Nodes()) != 3 {
		t.Fatalf("fleet size %d, want 3", len(reg.Nodes()))
	}
	ids := []string{"tk1-a", "tk1-hot", "tk1-lowpower"}
	for i, n := range reg.Nodes() {
		if n.ID != ids[i] {
			t.Fatalf("nodes not sorted by ID: %q at %d", n.ID, i)
		}
		if n.Cal() == nil || n.Dev == nil || n.Cache == nil || n.Breaker == nil {
			t.Fatalf("node %q missing machinery", n.ID)
		}
		if n.Cfg.Seed == 42 {
			t.Errorf("node %q kept the raw fleet seed; want identity-derived", n.ID)
		}
	}
	lp, _ := reg.Get("tk1-lowpower")
	if len(lp.Grids["full"]) >= len(reg.Nodes()[0].Grids["full"]) {
		t.Error("DVFS-bounded device did not get a trimmed grid")
	}
	hot, _ := reg.Get("tk1-hot")
	if hot.Cal().Model.C1Proc == reg.Nodes()[0].Cal().Model.C1Proc {
		t.Error("heterogeneous leakage did not reach the fitted models")
	}
	// A declared cache path without a loader is a build error.
	_, err := Build(FleetConfig{Devices: []Spec{{ID: "a", CalibrationCache: "x.csv"}}},
		experiments.Config{Seed: 1}, nil, NodeOptions{})
	if err == nil {
		t.Error("Build accepted a calibration cache with no loader")
	}
}

func TestNodeOptionsDefaults(t *testing.T) {
	n := NewNode("x", nil, nil, experiments.Config{}, nil, NodeOptions{})
	if n.Cache == nil || n.Breaker == nil {
		t.Fatal("node machinery missing")
	}
	// Defaulted breaker: 5 failures trip it.
	now := time.Unix(0, 0)
	b := NewBreaker(0, 0, func() time.Time { return now })
	for i := 0; i < 4; i++ {
		b.Failure()
		if !b.Allow() {
			t.Fatalf("breaker tripped after %d failures; default threshold is 5", i+1)
		}
	}
	b.Failure()
	if b.Allow() {
		t.Error("default threshold breaker did not trip at 5")
	}
}
