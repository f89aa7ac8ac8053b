package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// ProfileJSON is the wire form of an operation profile: every field is
// an operation or word count for one kernel execution. Field names
// match the calibration CSV columns, so a row of samples.csv maps
// directly onto a request body. The unit types marshal exactly like the
// raw floats they replaced, so no wire byte moved.
type ProfileJSON struct {
	SP          units.Count `json:"sp,omitempty"`           // single-precision flop count
	DPFMA       units.Count `json:"dp_fma,omitempty"`       // double-precision FMA count
	DPAdd       units.Count `json:"dp_add,omitempty"`       // double-precision add count
	DPMul       units.Count `json:"dp_mul,omitempty"`       // double-precision mul count
	Int         units.Count `json:"int,omitempty"`          // integer instruction count
	SharedWords units.Count `json:"shared_words,omitempty"` // shared-memory words
	L1Words     units.Count `json:"l1_words,omitempty"`     // L1 words
	L2Words     units.Count `json:"l2_words,omitempty"`     // L2 words
	DRAMWords   units.Count `json:"dram_words,omitempty"`   // DRAM words
}

func (p ProfileJSON) profile() counters.Profile {
	return counters.Profile{
		SP:    float64(p.SP),
		DPFMA: float64(p.DPFMA), DPAdd: float64(p.DPAdd), DPMul: float64(p.DPMul),
		Int:         float64(p.Int),
		SharedWords: float64(p.SharedWords), L1Words: float64(p.L1Words),
		L2Words: float64(p.L2Words), DRAMWords: float64(p.DRAMWords),
	}
}

// SettingJSON selects a DVFS setting by its two frequencies; voltages
// follow from the board's tables, as on the real Tegra K1.
type SettingJSON struct {
	CoreMHz units.MegaHertz `json:"core_mhz"`
	MemMHz  units.MegaHertz `json:"mem_mhz"`
}

// SettingInfo is the wire form of a resolved setting.
type SettingInfo struct {
	CoreMHz units.MegaHertz `json:"core_mhz"`
	CoreMV  units.MilliVolt `json:"core_mv"`
	MemMHz  units.MegaHertz `json:"mem_mhz"`
	MemMV   units.MilliVolt `json:"mem_mv"`
}

func settingInfo(s dvfs.Setting) SettingInfo {
	return SettingInfo{
		CoreMHz: s.Core.FreqMHz, CoreMV: s.Core.VoltageMV,
		MemMHz: s.Mem.FreqMHz, MemMV: s.Mem.VoltageMV,
	}
}

// PredictRequest asks for the Eq. 9 energy of one operation profile at
// one DVFS setting. The setting comes either as explicit frequencies or
// as a named ID ("S1".."S8" from Table IV, or "max"). When time_s is
// zero the execution time is simulated on the device at the requested
// occupancy (default 0.25, the paper's FMM operating point).
type PredictRequest struct {
	Profile   ProfileJSON  `json:"profile"`
	Setting   *SettingJSON `json:"setting,omitempty"`
	SettingID string       `json:"setting_id,omitempty"`
	TimeS     units.Second `json:"time_s,omitempty"`
	Occupancy units.Ratio  `json:"occupancy,omitempty"`
}

// PartsJSON decomposes a prediction by component, in joules.
type PartsJSON struct {
	SP       units.Joule `json:"sp"`
	DP       units.Joule `json:"dp"`
	Int      units.Joule `json:"int"`
	SM       units.Joule `json:"sm"`
	L2       units.Joule `json:"l2"`
	DRAM     units.Joule `json:"dram"`
	Constant units.Joule `json:"constant"`
	Compute  units.Joule `json:"compute"`
	Data     units.Joule `json:"data"`
}

func partsJSON(p core.Parts) PartsJSON {
	return PartsJSON{
		SP: p.SP, DP: p.DP, Int: p.Int, SM: p.SM, L2: p.L2, DRAM: p.DRAM,
		Constant: p.Constant, Compute: p.Compute(), Data: p.Data(),
	}
}

// PredictResponse is the answer to a /v1/predict request.
type PredictResponse struct {
	Setting     SettingInfo  `json:"setting"`
	TimeS       units.Second `json:"time_s"`
	PredictedJ  units.Joule  `json:"predicted_j"`
	Parts       PartsJSON    `json:"parts"`
	ConstPowerW units.Watt   `json:"const_power_w"`
}

// predictOn answers one predict request against one device's simulator
// and calibration. Every failure is a client error (bad setting,
// invalid workload), so callers map a non-nil error to a 400.
//
//energylint:hotpath
func (s *Server) predictOn(n *fleet.Node, req PredictRequest) (PredictResponse, error) {
	setting, err := s.resolveSetting(req.Setting, req.SettingID)
	if err != nil {
		return PredictResponse{}, err
	}
	prof := req.Profile.profile()
	t := req.TimeS
	if t == 0 {
		wl := tegra.Workload{Profile: prof, Occupancy: occupancyOrDefault(req.Occupancy)}
		if err := wl.Validate(); err != nil {
			return PredictResponse{}, err
		}
		t = n.Dev.Execute(wl, setting).Time
	} else if t < 0 {
		//energylint:allow hotalloc(client-error exit, not the per-request success path)
		return PredictResponse{}, fmt.Errorf("negative time_s %g", t)
	}
	// One load: a recalibration between two loads would answer parts
	// and constant power from different generations.
	model := n.Cal().Model
	parts := model.PredictParts(prof, setting, t)
	return PredictResponse{
		Setting:     settingInfo(setting),
		TimeS:       t,
		PredictedJ:  parts.Total(),
		Parts:       partsJSON(parts),
		ConstPowerW: model.ConstPower(setting),
	}, nil
}

// handlePredict is the legacy route: a strict PredictRequest (a device
// field is a 400) on its consistent-hash home, with the bare body.
//
//energylint:hotpath
func (s *Server) handlePredict(r *http.Request) reply {
	var req PredictRequest
	if rep, ok := decodeJSON(r, &req); !ok {
		return rep
	}
	return s.predict(s.reg.Route(predictKey(req)), req, false)
}

// predict is the body both predict routes share: it answers req on the
// chosen node with the bare PredictResponse, or with named set the
// FleetPredictResponse that names the device.
//
//energylint:hotpath
func (s *Server) predict(node *fleet.Node, req PredictRequest, named bool) reply {
	if node == nil {
		return fail(http.StatusServiceUnavailable, "no active device in the fleet", "")
	}
	release := node.Acquire()
	defer release()
	resp, err := s.predictOn(node, req)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error(), node.ID)
	}
	if named {
		return reply{http.StatusOK, &FleetPredictResponse{DeviceID: node.ID, PredictResponse: resp}, node.ID}
	}
	// A copy, so that only this branch moves a response to the heap.
	bare := resp
	return reply{http.StatusOK, &bare, node.ID}
}

// predictKey canonicalizes a predict request for routing: two identical
// requests land on the same device, whose answer for them is fully
// deterministic. The encoding is strconv appends into one preallocated
// buffer — the bytes must stay identical to the original fmt-based
// encoding (%g == AppendFloat 'g', -1, 64), because the key feeds the
// consistent-hash ring and a byte change remaps every cached sweep; see
// TestPredictKeyBytes.
//
//energylint:hotpath
func predictKey(req PredictRequest) string {
	b := make([]byte, 0, 192)
	b = append(b, "p id="...)
	b = append(b, req.SettingID...)
	b = appendKeyFloat(b, " t=", float64(req.TimeS))
	b = appendKeyFloat(b, " occ=", float64(req.Occupancy))
	if req.Setting != nil {
		b = appendKeyFloat(b, " core=", float64(req.Setting.CoreMHz))
		b = appendKeyFloat(b, " mem=", float64(req.Setting.MemMHz))
	}
	return string(appendProfileKey(b, req.Profile.profile()))
}

// appendProfileKey appends the profile's part of the cache and routing
// keys, " sp=… fma=… … dram=…".
func appendProfileKey(b []byte, p counters.Profile) []byte {
	b = appendKeyFloat(b, " sp=", p.SP)
	b = appendKeyFloat(b, " fma=", p.DPFMA)
	b = appendKeyFloat(b, " add=", p.DPAdd)
	b = appendKeyFloat(b, " mul=", p.DPMul)
	b = appendKeyFloat(b, " int=", p.Int)
	b = appendKeyFloat(b, " sm=", p.SharedWords)
	b = appendKeyFloat(b, " l1=", p.L1Words)
	b = appendKeyFloat(b, " l2=", p.L2Words)
	return appendKeyFloat(b, " dram=", p.DRAMWords)
}

// appendKeyFloat appends label and v formatted as %g would.
func appendKeyFloat(b []byte, label string, v float64) []byte {
	return strconv.AppendFloat(append(b, label...), v, 'g', -1, 64)
}

// AutotuneRequest asks for the energy-optimal (f_core, f_mem) pair for
// one workload. grid selects the candidate set: "calibration" (default,
// the paper's 16 measured settings) or "full" (all 105 permutations).
// timeout_s bounds the sweep; it combines with the server-wide cap and
// the client's connection lifetime, whichever ends first.
type AutotuneRequest struct {
	Profile   ProfileJSON  `json:"profile"`
	Occupancy units.Ratio  `json:"occupancy,omitempty"`
	Grid      string       `json:"grid,omitempty"`
	TimeoutS  units.Second `json:"timeout_s,omitempty"`
}

// PickJSON reports one strategy's choice over the sweep.
type PickJSON struct {
	Setting    SettingInfo  `json:"setting"`
	TimeS      units.Second `json:"time_s"`
	PredictedJ units.Joule  `json:"predicted_j"`
	MeasuredJ  units.Joule  `json:"measured_j"`
}

// Picks is the §II-E comparison over one finished sweep: the model's
// pick, the race-to-halt time oracle and the measured minimum, with the
// extra energy the first two spend relative to the measured minimum
// (the paper's Table II "energy lost"). /v1/autotune and every
// /v1/fleet/place device row embed it, so both bodies carry its fields
// inline.
type Picks struct {
	Model                PickJSON      `json:"model"`
	TimeOracle           PickJSON      `json:"time_oracle"`
	MeasuredMin          PickJSON      `json:"measured_min"`
	ModelExtraEnergyPct  units.Percent `json:"model_extra_energy_pct"`
	OracleExtraEnergyPct units.Percent `json:"oracle_extra_energy_pct"`
}

// AutotuneResponse is the answer to a /v1/autotune request. Degraded
// marks an answer served stale from the cache while the sweep breaker
// was open.
type AutotuneResponse struct {
	Grid       string `json:"grid"`
	Candidates int    `json:"candidates"`
	Cached     bool   `json:"cached"`
	Degraded   bool   `json:"degraded"`
	Picks
}

func (s *Server) handleAutotune(r *http.Request) reply {
	var req AutotuneRequest
	if rep, ok := decodeJSON(r, &req); !ok {
		return rep
	}
	gridName, wl, timeout := s.sweepRequest(req)

	// Sweep traffic routes to the healthiest device in ring order from
	// the workload's hash: cache-affine when the primary is up, a
	// deterministic neighbor when its breaker is open. Every reply from
	// here on names that device.
	node, _ := s.reg.RouteHealthy(workloadKey(gridName, wl))
	if node == nil {
		return fail(http.StatusServiceUnavailable, "no active device in the fleet", "")
	}
	release := node.Acquire()
	defer release()

	grid, ok := node.Grids[gridName]
	if !ok {
		return fail(http.StatusBadRequest, unknownGrid(gridName), node.ID)
	}
	if err := wl.Validate(); err != nil {
		return fail(http.StatusBadRequest, err.Error(), node.ID)
	}

	// The request deadline propagates into the sweep pipeline: client
	// disconnects and timeouts cancel the in-flight forEach between
	// units of work.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	cands, out, err := node.Sweep(ctx, autotuneKey(gridName, wl, node.Cfg.Seed), func() ([]core.Candidate, error) {
		return experiments.SweepWorkload(ctx, node.Dev, node.Cfg, wl, grid)
	})
	s.charge(node, out, cands)
	if err != nil {
		code, msg := sweepStatus(err)
		return fail(code, msg, node.ID)
	}
	resp := &AutotuneResponse{
		Grid:       gridName,
		Candidates: len(cands),
		Cached:     out == fleet.SweepCached || out == fleet.SweepDegraded,
		Degraded:   out == fleet.SweepDegraded,
		Picks:      scoreSweep(node.Cal().Model, cands),
	}
	s.metrics.addAnsweredJoules(node.ID, float64(resp.Model.MeasuredJ))
	return reply{http.StatusOK, resp, node.ID}
}

// sweepRequest is the prelude autotune and place share: the grid name
// (default "calibration"), the workload at its default occupancy, and
// the sweep deadline — the client's timeout_s when it is shorter than
// the server's cap.
func (s *Server) sweepRequest(req AutotuneRequest) (gridName string, wl tegra.Workload, timeout time.Duration) {
	gridName = req.Grid
	if gridName == "" {
		gridName = "calibration"
	}
	wl = tegra.Workload{Profile: req.Profile.profile(), Occupancy: occupancyOrDefault(req.Occupancy)}
	timeout = s.opts.SweepTimeout
	if d, ok := clientDuration(float64(req.TimeoutS)); ok && d < timeout {
		timeout = d
	}
	return gridName, wl, timeout
}

// clientDuration converts a client-supplied count of seconds into a
// Duration. ok is false for NaN, non-positive values, and values too
// large for a Duration, which would otherwise wrap into a negative,
// already expired deadline.
func clientDuration(sec float64) (d time.Duration, ok bool) {
	ns := sec * float64(time.Second)
	if !(ns > 0) || ns >= math.MaxInt64 {
		return 0, false
	}
	return time.Duration(ns), true
}

func unknownGrid(name string) string {
	return fmt.Sprintf("unknown grid %q (want \"calibration\" or \"full\")", name)
}

// sweepStatus maps a sweep error onto its HTTP status and message.
func sweepStatus(err error) (code int, msg string) {
	switch {
	case errors.Is(err, fleet.ErrBreakerOpen):
		return http.StatusServiceUnavailable, "sweep breaker open and no cached sweep for this workload"
	case errors.Is(err, fleet.ErrDeviceRemoved):
		return http.StatusServiceUnavailable, "device removed from the fleet"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "sweep deadline exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "sweep cancelled"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// charge books one device's sweep outcome: the cache hit, miss and
// degraded counters, and for a fresh sweep the sweep_j ledger and the
// drift watchdog's observation. Cached answers re-score old bytes and
// carry no drift signal.
func (s *Server) charge(n *fleet.Node, out fleet.SweepOutcome, cands []core.Candidate) {
	if out != fleet.SweepFresh {
		s.metrics.charge(n.ID, out, 0)
		return
	}
	var sweep units.Joule
	for _, c := range cands {
		sweep += c.MeasuredEnergy
	}
	s.metrics.charge(n.ID, out, float64(sweep))
	s.observeSweep(n, cands)
}

// scoreSweep runs the three pickers of §II-E over one finished sweep.
// Scoring is pure arithmetic over the cached candidates, so re-running
// it at serve time keeps the cache value model-independent.
func scoreSweep(m *core.Model, cands []core.Candidate) Picks {
	pick := func(i int) PickJSON {
		c := cands[i]
		return PickJSON{
			Setting:    settingInfo(c.Setting),
			TimeS:      c.Time,
			PredictedJ: m.Predict(c.Profile, c.Setting, c.Time),
			MeasuredJ:  c.MeasuredEnergy,
		}
	}
	model := pick(m.PickModelMinEnergy(cands))
	oracle := pick(core.PickTimeOracle(cands))
	best := pick(core.PickMeasuredMin(cands))
	extra := func(p PickJSON) units.Percent {
		if best.MeasuredJ == 0 {
			return 0
		}
		return units.Percent(100 * (p.MeasuredJ - best.MeasuredJ) / best.MeasuredJ)
	}
	return Picks{
		Model:                model,
		TimeOracle:           oracle,
		MeasuredMin:          best,
		ModelExtraEnergyPct:  extra(model),
		OracleExtraEnergyPct: extra(oracle),
	}
}

// autotuneKey canonicalizes a sweep request for one device's cache. Two
// requests with the same key are guaranteed to produce identical sweeps
// (the measurement noise is seeded by setting identity and the device's
// campaign seed alone). Like predictKey it is built with appends, and
// its bytes stay those of the original fmt encoding; see
// TestSweepKeyBytes.
//
//energylint:hotpath
func autotuneKey(grid string, wl tegra.Workload, seed int64) string {
	b := appendSweepHead(make([]byte, 0, 192), grid, wl)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, seed, 10)
	return string(appendProfileKey(b, wl.Profile))
}

// workloadKey canonicalizes a sweep request for routing: the
// device-independent part of autotuneKey, so the same workload hashes
// to the same device no matter which device ends up serving it. It
// feeds the consistent-hash ring, so a changed byte would remap every
// cached sweep.
//
//energylint:hotpath
func workloadKey(grid string, wl tegra.Workload) string {
	b := appendSweepHead(make([]byte, 0, 192), grid, wl)
	return string(appendProfileKey(b, wl.Profile))
}

func appendSweepHead(b []byte, grid string, wl tegra.Workload) []byte {
	b = append(b, "g="...)
	b = append(b, grid...)
	return appendKeyFloat(b, " occ=", float64(wl.Occupancy))
}

// CalibrationResponse summarizes one device's loaded calibration: the
// fitted constants, Table I, and the §II-D validation statistics.
// DeviceID is absent in single-device mode, keeping the legacy JSON
// bytes unchanged.
type CalibrationResponse struct {
	DeviceID string         `json:"device_id,omitempty"`
	Samples  int            `json:"samples"`
	Model    ModelJSON      `json:"model"`
	TableI   []TableIRow    `json:"table_i"`
	Holdout  CVSummaryJSON  `json:"holdout"`
	KFold    CVSummaryJSON  `json:"kfold_16"`
	Grids    map[string]int `json:"grids"`
}

// ModelJSON is the wire form of the fitted Eq. 9 constants. Dynamic
// coefficients are pJ/V², leakage coefficients W/V, PMisc plain watts —
// the JSON names carry the same unit tags so external analysts cannot
// confuse the V²-scaled and V-linear terms.
type ModelJSON struct {
	SPpJ   units.PicoJoulePerOpPerVoltSq `json:"sp_pj_v2"`
	DPpJ   units.PicoJoulePerOpPerVoltSq `json:"dp_pj_v2"`
	IntpJ  units.PicoJoulePerOpPerVoltSq `json:"int_pj_v2"`
	SMpJ   units.PicoJoulePerOpPerVoltSq `json:"sm_pj_v2"`
	L2pJ   units.PicoJoulePerOpPerVoltSq `json:"l2_pj_v2"`
	DRAMpJ units.PicoJoulePerOpPerVoltSq `json:"dram_pj_v2"`
	C1Proc units.WattPerVolt             `json:"c1_proc_w_v"` // W/V, processor leakage
	C1Mem  units.WattPerVolt             `json:"c1_mem_w_v"`  // W/V, memory leakage
	PMisc  units.Watt                    `json:"p_misc_w"`    // W, operation-independent
}

// TableIRow is one derived row of the paper's Table I.
type TableIRow struct {
	Type    string               `json:"type"`
	Setting SettingInfo          `json:"setting"`
	SPpJ    units.PicoJoulePerOp `json:"sp_pj"`
	DPpJ    units.PicoJoulePerOp `json:"dp_pj"`
	IntpJ   units.PicoJoulePerOp `json:"int_pj"`
	SMpJ    units.PicoJoulePerOp `json:"sm_pj"`
	L2pJ    units.PicoJoulePerOp `json:"l2_pj"`
	DRAMpJ  units.PicoJoulePerOp `json:"dram_pj"`
	ConstW  units.Watt           `json:"const_w"`
}

// CVSummaryJSON reports validation relative errors in percent.
type CVSummaryJSON struct {
	N      int           `json:"n"`
	Mean   units.Percent `json:"mean_pct"`
	Stddev units.Percent `json:"stddev_pct"`
	Min    units.Percent `json:"min_pct"`
	Max    units.Percent `json:"max_pct"`
}

// calibrated looks up the member a request names and loads its
// calibration once, so a drift recalibration swapping the pointer
// mid-render cannot mix two generations' constants in one body. A
// member that is unknown (404) or still calibrating after a runtime add
// (503) is refused, with the reply naming the device.
func (s *Server) calibrated(id string) (n *fleet.Node, cal *experiments.Calibration, rep reply, ok bool) {
	n, ok = s.reg.Get(id)
	if !ok {
		return nil, nil, fail(http.StatusNotFound, fmt.Sprintf("unknown device %q", id), id), false
	}
	if cal = n.Cal(); cal == nil {
		return nil, nil, fail(http.StatusServiceUnavailable, fmt.Sprintf("device %q is still calibrating", id), id), false
	}
	return n, cal, reply{}, true
}

// handleCalibration renders the calibration of the ?device= member, or
// of the fleet's first device (sorted by ID; the single node in legacy
// mode) when the parameter is absent.
func (s *Server) handleCalibration(r *http.Request) reply {
	if r.Method != http.MethodGet {
		return fail(http.StatusMethodNotAllowed, "GET only", "")
	}
	id := r.URL.Query().Get("device")
	if id == "" {
		nodes := s.reg.Nodes()
		if len(nodes) == 0 {
			return fail(http.StatusNotFound, "no devices in the fleet", "")
		}
		id = nodes[0].ID
	}
	node, cal, rep, ok := s.calibrated(id)
	if !ok {
		return rep
	}
	m := cal.Model
	resp := CalibrationResponse{
		DeviceID: node.ID,
		Samples:  len(cal.Samples),
		Model: ModelJSON{
			SPpJ: m.SPpJ, DPpJ: m.DPpJ, IntpJ: m.IntpJ, SMpJ: m.SMpJ,
			L2pJ: m.L2pJ, DRAMpJ: m.DRAMpJ,
			C1Proc: m.C1Proc, C1Mem: m.C1Mem, PMisc: m.PMisc,
		},
		Holdout: cvSummary(cal.Holdout),
		KFold:   cvSummary(cal.KFold),
		Grids:   map[string]int{},
	}
	for name, grid := range node.Grids {
		resp.Grids[name] = len(grid)
	}
	for _, row := range cal.TableI() {
		resp.TableI = append(resp.TableI, TableIRow{
			Type: row.Type, Setting: settingInfo(row.Setting),
			SPpJ: row.Eps.SP, DPpJ: row.Eps.DP, IntpJ: row.Eps.Int,
			SMpJ: row.Eps.SM, L2pJ: row.Eps.L2, DRAMpJ: row.Eps.DRAM,
			ConstW: row.Eps.ConstPower,
		})
	}
	return reply{http.StatusOK, resp, node.ID}
}

func cvSummary(r core.CVResult) CVSummaryJSON {
	p := r.Percent()
	return CVSummaryJSON{
		N:    p.N,
		Mean: units.Percent(p.Mean), Stddev: units.Percent(p.Stddev),
		Min: units.Percent(p.Min), Max: units.Percent(p.Max),
	}
}

// namedSetting is one Table IV system setting under its paper label.
type namedSetting struct {
	id      string // "S1".."S8"
	setting dvfs.Setting
}

// validationSettings is built once so that resolving a setting_id
// neither rebuilds the settings nor formats a label per request.
var validationSettings = func() []namedSetting {
	settings := dvfs.ValidationSettings()
	out := make([]namedSetting, len(settings))
	for i, s := range settings {
		out[i] = namedSetting{id: dvfs.ValidationID(i), setting: s}
	}
	return out
}()

// resolveSetting maps the request's setting selector onto the board's
// DVFS tables. Exactly one of explicit frequencies or a named ID must be
// present.
func (s *Server) resolveSetting(explicit *SettingJSON, id string) (dvfs.Setting, error) {
	switch {
	case explicit != nil && id != "":
		return dvfs.Setting{}, errors.New("give either setting or setting_id, not both")
	case explicit != nil:
		core, err := dvfs.CorePoint(explicit.CoreMHz)
		if err != nil {
			return dvfs.Setting{}, err
		}
		mem, err := dvfs.MemPoint(explicit.MemMHz)
		if err != nil {
			return dvfs.Setting{}, err
		}
		return dvfs.Setting{Core: core, Mem: mem}, nil
	case id == "":
		return dvfs.Setting{}, errors.New("missing setting or setting_id")
	case strings.EqualFold(id, "max"):
		return dvfs.MaxSetting(), nil
	default:
		for _, v := range validationSettings {
			if strings.EqualFold(v.id, id) {
				return v.setting, nil
			}
		}
		//energylint:allow hotalloc(client-error exit, not the per-request success path)
		return dvfs.Setting{}, fmt.Errorf("unknown setting_id %q (want S1..S8 or max)", id)
	}
}

// occupancyOrDefault applies the FMM-like default occupancy.
func occupancyOrDefault(occ units.Ratio) units.Ratio {
	if occ == 0 {
		return 0.25
	}
	return occ
}

// ErrorJSON is the wire form of every energyd error. DeviceID names the
// device that failed the request when one had been chosen; it is absent
// in single-device mode (the empty legacy ID), keeping legacy error
// bytes unchanged.
type ErrorJSON struct {
	Error    string `json:"error"`
	DeviceID string `json:"device_id,omitempty"`
}
