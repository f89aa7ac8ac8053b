package serve_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// The unit-typed wire structs must be invisible on the wire: every field
// that became a units.* quantity marshals byte-for-byte like the raw
// float64 it replaced, tags, omitempty and all. The raw* mirrors below
// restate the wire types with plain float64 fields; the tests encode the
// same values through both and demand identical bytes.

type rawProfile struct {
	SP          float64 `json:"sp,omitempty"`
	DPFMA       float64 `json:"dp_fma,omitempty"`
	DPAdd       float64 `json:"dp_add,omitempty"`
	DPMul       float64 `json:"dp_mul,omitempty"`
	Int         float64 `json:"int,omitempty"`
	SharedWords float64 `json:"shared_words,omitempty"`
	L1Words     float64 `json:"l1_words,omitempty"`
	L2Words     float64 `json:"l2_words,omitempty"`
	DRAMWords   float64 `json:"dram_words,omitempty"`
}

type rawSetting struct {
	CoreMHz float64 `json:"core_mhz"`
	MemMHz  float64 `json:"mem_mhz"`
}

type rawPredictRequest struct {
	Profile   rawProfile  `json:"profile"`
	Setting   *rawSetting `json:"setting,omitempty"`
	SettingID string      `json:"setting_id,omitempty"`
	TimeS     float64     `json:"time_s,omitempty"`
	Occupancy float64     `json:"occupancy,omitempty"`
}

type rawAutotuneRequest struct {
	Profile   rawProfile `json:"profile"`
	Occupancy float64    `json:"occupancy,omitempty"`
	Grid      string     `json:"grid,omitempty"`
	TimeoutS  float64    `json:"timeout_s,omitempty"`
}

type rawSettingInfo struct {
	CoreMHz float64 `json:"core_mhz"`
	CoreMV  float64 `json:"core_mv"`
	MemMHz  float64 `json:"mem_mhz"`
	MemMV   float64 `json:"mem_mv"`
}

type rawParts struct {
	SP       float64 `json:"sp"`
	DP       float64 `json:"dp"`
	Int      float64 `json:"int"`
	SM       float64 `json:"sm"`
	L2       float64 `json:"l2"`
	DRAM     float64 `json:"dram"`
	Constant float64 `json:"constant"`
	Compute  float64 `json:"compute"`
	Data     float64 `json:"data"`
}

type rawPredictResponse struct {
	Setting     rawSettingInfo `json:"setting"`
	TimeS       float64        `json:"time_s"`
	PredictedJ  float64        `json:"predicted_j"`
	Parts       rawParts       `json:"parts"`
	ConstPowerW float64        `json:"const_power_w"`
}

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	return b
}

// TestWireEncodingMatchesRawFloats encodes hand-built typed and raw
// values — including zero fields, so omitempty parity is exercised —
// and compares the bytes.
func TestWireEncodingMatchesRawFloats(t *testing.T) {
	typedReq := serve.PredictRequest{
		Profile:   serve.ProfileJSON{DPFMA: 1.5e9, DPAdd: 3e8, DRAMWords: 5e7},
		Setting:   &serve.SettingJSON{CoreMHz: 564, MemMHz: 792},
		TimeS:     0.22,
		Occupancy: 0.25,
	}
	rawReq := rawPredictRequest{
		Profile:   rawProfile{DPFMA: 1.5e9, DPAdd: 3e8, DRAMWords: 5e7},
		Setting:   &rawSetting{CoreMHz: 564, MemMHz: 792},
		TimeS:     0.22,
		Occupancy: 0.25,
	}
	if got, want := mustJSON(t, typedReq), mustJSON(t, rawReq); !bytes.Equal(got, want) {
		t.Errorf("PredictRequest encoding drifted:\n typed %s\n raw   %s", got, want)
	}

	typedResp := serve.PredictResponse{
		Setting:     serve.SettingInfo{CoreMHz: 852, CoreMV: 1030, MemMHz: 924, MemMV: 1010},
		TimeS:       0.2,
		PredictedJ:  1.494,
		Parts:       serve.PartsJSON{DP: 0.8, DRAM: 0.3, Constant: 0.394, Compute: 0.8, Data: 0.3},
		ConstPowerW: units.Watt(1.97),
	}
	rawResp := rawPredictResponse{
		Setting:     rawSettingInfo{CoreMHz: 852, CoreMV: 1030, MemMHz: 924, MemMV: 1010},
		TimeS:       0.2,
		PredictedJ:  1.494,
		Parts:       rawParts{DP: 0.8, DRAM: 0.3, Constant: 0.394, Compute: 0.8, Data: 0.3},
		ConstPowerW: 1.97,
	}
	if got, want := mustJSON(t, typedResp), mustJSON(t, rawResp); !bytes.Equal(got, want) {
		t.Errorf("PredictResponse encoding drifted:\n typed %s\n raw   %s", got, want)
	}

	typedAt := serve.AutotuneRequest{
		Profile:  serve.ProfileJSON{Int: 5e8, L2Words: 1e8},
		Grid:     "full",
		TimeoutS: 0.5,
	}
	rawAt := rawAutotuneRequest{
		Profile:  rawProfile{Int: 5e8, L2Words: 1e8},
		Grid:     "full",
		TimeoutS: 0.5,
	}
	if got, want := mustJSON(t, typedAt), mustJSON(t, rawAt); !bytes.Equal(got, want) {
		t.Errorf("AutotuneRequest encoding drifted:\n typed %s\n raw   %s", got, want)
	}
}

type rawPick struct {
	Setting    rawSettingInfo `json:"setting"`
	TimeS      float64        `json:"time_s"`
	PredictedJ float64        `json:"predicted_j"`
	MeasuredJ  float64        `json:"measured_j"`
}

type rawAutotuneResponse struct {
	Grid                 string  `json:"grid"`
	Candidates           int     `json:"candidates"`
	Cached               bool    `json:"cached"`
	Degraded             bool    `json:"degraded"`
	Model                rawPick `json:"model"`
	TimeOracle           rawPick `json:"time_oracle"`
	MeasuredMin          rawPick `json:"measured_min"`
	ModelExtraEnergyPct  float64 `json:"model_extra_energy_pct"`
	OracleExtraEnergyPct float64 `json:"oracle_extra_energy_pct"`
}

type rawDevicePlacement struct {
	DeviceID             string  `json:"device_id"`
	Candidates           int     `json:"candidates"`
	Model                rawPick `json:"model"`
	TimeOracle           rawPick `json:"time_oracle"`
	MeasuredMin          rawPick `json:"measured_min"`
	ModelExtraEnergyPct  float64 `json:"model_extra_energy_pct"`
	OracleExtraEnergyPct float64 `json:"oracle_extra_energy_pct"`
}

// TestPicksWireShape pins the /v1/autotune body and the /v1/fleet/place
// device row field by field: both carry the three §II-E picks and the
// two extra-energy percentages, flat, after their own leading fields.
// The values are set through field selectors so the test reads the
// same however the two types compose the picks.
func TestPicksWireShape(t *testing.T) {
	picks := [3]serve.PickJSON{
		{Setting: serve.SettingInfo{CoreMHz: 852, CoreMV: 1030, MemMHz: 924, MemMV: 1010}, TimeS: 0.2, PredictedJ: 1.5, MeasuredJ: 1.6},
		{Setting: serve.SettingInfo{CoreMHz: 756, CoreMV: 960, MemMHz: 792, MemMV: 1000}, TimeS: 0.25, PredictedJ: 1.4, MeasuredJ: 1.45},
		{Setting: serve.SettingInfo{CoreMHz: 564, CoreMV: 880, MemMHz: 528, MemMV: 950}, TimeS: 0.3, PredictedJ: 1.3, MeasuredJ: 1.35},
	}
	raw := func(p serve.PickJSON) rawPick {
		s := p.Setting
		return rawPick{
			Setting: rawSettingInfo{CoreMHz: float64(s.CoreMHz), CoreMV: float64(s.CoreMV), MemMHz: float64(s.MemMHz), MemMV: float64(s.MemMV)},
			TimeS:   float64(p.TimeS), PredictedJ: float64(p.PredictedJ), MeasuredJ: float64(p.MeasuredJ),
		}
	}

	var at serve.AutotuneResponse
	at.Grid, at.Candidates, at.Cached, at.Degraded = "full", 105, true, true
	at.Model, at.TimeOracle, at.MeasuredMin = picks[0], picks[1], picks[2]
	at.ModelExtraEnergyPct, at.OracleExtraEnergyPct = 18.5, 7.25
	rawAt := rawAutotuneResponse{
		Grid: "full", Candidates: 105, Cached: true, Degraded: true,
		Model: raw(picks[0]), TimeOracle: raw(picks[1]), MeasuredMin: raw(picks[2]),
		ModelExtraEnergyPct: 18.5, OracleExtraEnergyPct: 7.25,
	}
	if got, want := mustJSON(t, at), mustJSON(t, rawAt); !bytes.Equal(got, want) {
		t.Errorf("AutotuneResponse encoding drifted:\n typed %s\n raw   %s", got, want)
	}

	var dp serve.DevicePlacement
	dp.DeviceID, dp.Candidates = "tk1-reference", 16
	dp.Model, dp.TimeOracle, dp.MeasuredMin = picks[0], picks[1], picks[2]
	dp.ModelExtraEnergyPct, dp.OracleExtraEnergyPct = 18.5, 7.25
	rawDp := rawDevicePlacement{
		DeviceID: "tk1-reference", Candidates: 16,
		Model: raw(picks[0]), TimeOracle: raw(picks[1]), MeasuredMin: raw(picks[2]),
		ModelExtraEnergyPct: 18.5, OracleExtraEnergyPct: 7.25,
	}
	if got, want := mustJSON(t, dp), mustJSON(t, rawDp); !bytes.Equal(got, want) {
		t.Errorf("DevicePlacement encoding drifted:\n typed %s\n raw   %s", got, want)
	}
}

// TestWireRoundTripMatchesRawFloats pushes the fuzz seed fixtures —
// bodies derived from cmd/energyd/testdata plus the handwritten valid
// cases — through decode→encode on both the typed and raw mirrors and
// demands byte-identical output, proving the unit-type migration left
// the wire format untouched in both directions.
func TestWireRoundTripMatchesRawFloats(t *testing.T) {
	decode := func(body string, dst any) error {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(dst)
	}
	predictBodies := append(csvSeedBodies(t, true),
		`{"profile": {"dp_fma": 1e9, "dram_words": 2e8}, "setting_id": "max"}`,
		`{"profile": {"dp_fma": 1e9}, "setting_id": "S3", "occupancy": 0.5}`,
	)
	for _, body := range predictBodies {
		var typed serve.PredictRequest
		var raw rawPredictRequest
		if err := decode(body, &typed); err != nil {
			t.Fatalf("typed decode of fixture %q: %v", body, err)
		}
		if err := decode(body, &raw); err != nil {
			t.Fatalf("raw decode of fixture %q: %v", body, err)
		}
		if got, want := mustJSON(t, typed), mustJSON(t, raw); !bytes.Equal(got, want) {
			t.Errorf("fixture %q round-trips differently:\n typed %s\n raw   %s", body, got, want)
		}
	}
	autotuneBodies := append(csvSeedBodies(t, false),
		`{"profile": {"dp_fma": 1e9, "dram_words": 2e8}}`,
		`{"profile": {"dp_fma": 1e9}, "grid": "full", "timeout_s": 0.5}`,
	)
	for _, body := range autotuneBodies {
		var typed serve.AutotuneRequest
		var raw rawAutotuneRequest
		if err := decode(body, &typed); err != nil {
			t.Fatalf("typed decode of fixture %q: %v", body, err)
		}
		if err := decode(body, &raw); err != nil {
			t.Fatalf("raw decode of fixture %q: %v", body, err)
		}
		if got, want := mustJSON(t, typed), mustJSON(t, raw); !bytes.Equal(got, want) {
			t.Errorf("fixture %q round-trips differently:\n typed %s\n raw   %s", body, got, want)
		}
	}
}

// The fleet refactor added device_id to the calibration response and
// error bodies, tagged omitempty. The mirrors below restate those wire
// types exactly as they were BEFORE the fleet existed — no device_id
// anywhere — and the tests prove a single-device server still emits
// those pre-fleet bytes.

type rawModelJSON struct {
	SPpJ   float64 `json:"sp_pj_v2"`
	DPpJ   float64 `json:"dp_pj_v2"`
	IntpJ  float64 `json:"int_pj_v2"`
	SMpJ   float64 `json:"sm_pj_v2"`
	L2pJ   float64 `json:"l2_pj_v2"`
	DRAMpJ float64 `json:"dram_pj_v2"`
	C1Proc float64 `json:"c1_proc_w_v"`
	C1Mem  float64 `json:"c1_mem_w_v"`
	PMisc  float64 `json:"p_misc_w"`
}

type rawTableIRow struct {
	Type    string         `json:"type"`
	Setting rawSettingInfo `json:"setting"`
	SPpJ    float64        `json:"sp_pj"`
	DPpJ    float64        `json:"dp_pj"`
	IntpJ   float64        `json:"int_pj"`
	SMpJ    float64        `json:"sm_pj"`
	L2pJ    float64        `json:"l2_pj"`
	DRAMpJ  float64        `json:"dram_pj"`
	ConstW  float64        `json:"const_w"`
}

type rawCVSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean_pct"`
	Stddev float64 `json:"stddev_pct"`
	Min    float64 `json:"min_pct"`
	Max    float64 `json:"max_pct"`
}

type rawLegacyCalibrationResponse struct {
	Samples int            `json:"samples"`
	Model   rawModelJSON   `json:"model"`
	TableI  []rawTableIRow `json:"table_i"`
	Holdout rawCVSummary   `json:"holdout"`
	KFold   rawCVSummary   `json:"kfold_16"`
	Grids   map[string]int `json:"grids"`
}

// indentJSON encodes v exactly the way the handlers do (2-space indent,
// trailing newline).
func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	return buf.Bytes()
}

// TestLegacyCalibrationWireUnchanged fetches a live single-device
// /v1/calibration body, decodes it into the pre-fleet mirror with
// unknown fields disallowed (so a leaked device_id fails loudly), and
// re-encodes the mirror: the bytes must match the live body exactly.
func TestLegacyCalibrationWireUnchanged(t *testing.T) {
	live := get(t, legacyServer(t).Handler(), "/v1/calibration").Body.Bytes()

	dec := json.NewDecoder(bytes.NewReader(live))
	dec.DisallowUnknownFields()
	var mirror rawLegacyCalibrationResponse
	if err := dec.Decode(&mirror); err != nil {
		t.Fatalf("legacy calibration body no longer decodes as the pre-fleet wire type: %v\nbody: %s", err, live)
	}
	if got := indentJSON(t, mirror); !bytes.Equal(got, live) {
		t.Errorf("legacy calibration bytes drifted:\n live   %s\n mirror %s", live, got)
	}
	if bytes.Contains(live, []byte("device_id")) {
		t.Error("single-device calibration body grew a device_id field")
	}
}

// TestErrorBodyWireUnchanged proves the typed ErrorJSON struct emits the
// same bytes as the pre-fleet map[string]string{"error": msg} in legacy
// mode, and that fleet errors add device_id without disturbing the error
// key.
func TestErrorBodyWireUnchanged(t *testing.T) {
	h := legacyServer(t).Handler()
	for path, body := range map[string]string{
		"/v1/predict":  `{"profile": {"sp": 1e9}}`,
		"/v1/autotune": `{"profile": {"sp": 1e9}, "grid": "nope"}`,
		"/v1/predict ": `not json`,
	} {
		w := post(t, h, strings.TrimSpace(path), body)
		if w.Code/100 != 4 {
			t.Fatalf("%s %q = %d, want 4xx", path, body, w.Code)
		}
		var probe struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &probe); err != nil || probe.Error == "" {
			t.Fatalf("%s error body %s unparseable: %v", path, w.Body, err)
		}
		oldBytes := indentJSON(t, map[string]string{"error": probe.Error})
		if !bytes.Equal(w.Body.Bytes(), oldBytes) {
			t.Errorf("%s error body drifted from the pre-fleet encoding:\n live %s\n old  %s", path, w.Body, oldBytes)
		}
	}
}

func legacyServer(t *testing.T) *serve.Server {
	t.Helper()
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	return serve.New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, serve.Options{})
}
