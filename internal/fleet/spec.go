package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// FleetConfig is the on-disk shape of `energyd -fleet fleet.json`: a
// list of named device specs plus fleet-wide routing knobs. Relative
// calibration cache paths are resolved against the config file's
// directory by LoadConfig, so a config travels with its caches.
type FleetConfig struct {
	// Seed is the base of the fleet's seed lineage: every device without
	// an explicit seed derives its own from this value and its ID, so
	// two devices never share a measurement-noise stream. Zero defers to
	// the caller's default (the -seed flag in cmd/energyd).
	Seed int64 `json:"seed,omitempty"`
	// Replicas is the number of virtual points per device on the
	// consistent-hash ring; zero selects the default (128).
	Replicas int `json:"replicas,omitempty"`
	// Devices are the fleet members. At least one is required and IDs
	// must be unique and non-empty.
	Devices []Spec `json:"devices"`
}

// Spec declares one fleet device: its physical parameters (a
// tegra.DeviceParams over the TK1 baseline), its seed lineage, where its
// calibration comes from, and which slice of the DVFS ladder it may run.
type Spec struct {
	// ID names the device in routing, metrics labels, and responses.
	ID string `json:"id"`
	// Seed pins this device's measurement-noise seed; zero derives one
	// from the fleet seed and the ID.
	Seed int64 `json:"seed,omitempty"`
	// CalibrationCache is a calibration sample CSV (as written by the
	// -cache flag). When empty the device boots from a synthetic
	// noiseless calibration derived from its declared parameters — the
	// fixture path, instant and deterministic.
	CalibrationCache string `json:"calibration_cache,omitempty"`
	// Params overrides the Tegra K1 ground truth field by field, so a
	// spec states only what differs. A key the JSON params object
	// declares overrides even with a zero value; an absent key, or on a
	// spec built in Go a zero field, inherits the TK1 value.
	Params tegra.DeviceParams `json:"params,omitempty"`
	// Ideal starts from tegra.DeviceParams.Ideal of the TK1 baseline:
	// the non-ideality knobs are zero unless Params declares them,
	// yielding an exactly-linear device.
	Ideal bool `json:"ideal,omitempty"`
	// DVFS grid restriction: devices often ship with a trimmed ladder
	// (a low-power SKU without the top bins, a server SKU without the
	// bottom). Zero bounds leave that side unrestricted. The bounds
	// filter both the calibration and full autotune grids.
	MinCoreMHz units.MegaHertz `json:"min_core_mhz,omitempty"`
	MaxCoreMHz units.MegaHertz `json:"max_core_mhz,omitempty"`
	MinMemMHz  units.MegaHertz `json:"min_mem_mhz,omitempty"`
	MaxMemMHz  units.MegaHertz `json:"max_mem_mhz,omitempty"`

	// declared has bit i set when the decoded params object declares
	// field i of Params with a number, zero included.
	declared uint32
}

// ParamsJSON is a spec's params object on the wire: the simulator's own
// parameter type. In Go its zero fields inherit the TK1 value; in JSON
// its absent keys do.
type ParamsJSON = tegra.DeviceParams

// DeviceParams resolves the spec's physical parameters: every declared
// key of the JSON params object, and every non-zero field, overrides
// the Tegra K1 baseline, and Ideal zeroes the non-ideality knobs that
// were not explicitly set.
func (s Spec) DeviceParams() tegra.DeviceParams {
	p := tegra.TK1Params()
	if s.Ideal {
		p = p.Ideal()
	}
	dst := reflect.ValueOf(&p).Elem()
	src := reflect.ValueOf(&s.Params).Elem()
	for i := range src.NumField() {
		if f := src.Field(i); f.Float() != 0 || s.declared&(1<<i) != 0 {
			dst.Field(i).Set(f)
		}
	}
	return p
}

// paramsKeys is a second, lenient pass over one spec object that reads
// which params keys it declares with a number; null declares nothing.
type paramsKeys struct {
	Params map[string]*float64 `json:"params"`
}

// declared returns the Spec.declared bits for the keys of k, matched to
// Params' JSON names case-insensitively, as encoding/json matches them.
func (k paramsKeys) declared() uint32 {
	var bits uint32
	typ := reflect.TypeFor[tegra.DeviceParams]()
	for key, v := range k.Params {
		if v == nil {
			continue
		}
		for i := range typ.NumField() {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if strings.EqualFold(key, name) {
				bits |= 1 << i
			}
		}
	}
	return bits
}

// supports reports whether a setting falls inside the spec's DVFS
// bounds.
func (s Spec) supports(set dvfs.Setting) bool {
	if s.MinCoreMHz > 0 && set.Core.FreqMHz < s.MinCoreMHz {
		return false
	}
	if s.MaxCoreMHz > 0 && set.Core.FreqMHz > s.MaxCoreMHz {
		return false
	}
	if s.MinMemMHz > 0 && set.Mem.FreqMHz < s.MinMemMHz {
		return false
	}
	if s.MaxMemMHz > 0 && set.Mem.FreqMHz > s.MaxMemMHz {
		return false
	}
	return true
}

// Grids builds the device's autotune candidate grids by filtering the
// board tables through the spec's DVFS bounds: "calibration" is the
// paper's 16 measured settings, "full" every core x memory permutation.
// An empty filtered grid is a config error — a device that can run
// nothing cannot answer sweeps.
func (s Spec) Grids() (map[string][]dvfs.Setting, error) {
	calGrid := make([]dvfs.Setting, 0, 16)
	for _, cs := range dvfs.CalibrationSettings() {
		if s.supports(cs.Setting) {
			calGrid = append(calGrid, cs.Setting)
		}
	}
	full := make([]dvfs.Setting, 0, 105)
	for _, set := range dvfs.Grid() {
		if s.supports(set) {
			full = append(full, set)
		}
	}
	if len(calGrid) == 0 || len(full) == 0 {
		return nil, fmt.Errorf("fleet: device %q: DVFS bounds leave an empty setting grid", s.ID)
	}
	return map[string][]dvfs.Setting{"calibration": calGrid, "full": full}, nil
}

// Validate checks one spec in isolation.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("fleet: device with empty id")
	}
	if s.Seed < 0 {
		return fmt.Errorf("fleet: device %q: negative seed %d", s.ID, s.Seed)
	}
	if err := s.DeviceParams().Validate(); err != nil {
		return fmt.Errorf("fleet: device %q: %w", s.ID, err)
	}
	if _, err := s.Grids(); err != nil {
		return err
	}
	for _, b := range [...]units.MegaHertz{s.MinCoreMHz, s.MaxCoreMHz, s.MinMemMHz, s.MaxMemMHz} {
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			return fmt.Errorf("fleet: device %q: DVFS bound %g must be finite", s.ID, float64(b))
		}
	}
	return nil
}

// Validate checks the whole config: at least one device, unique IDs,
// and every spec valid.
func (fc FleetConfig) Validate() error {
	if len(fc.Devices) == 0 {
		return fmt.Errorf("fleet: config declares no devices")
	}
	if fc.Replicas < 0 {
		return fmt.Errorf("fleet: negative ring replicas %d", fc.Replicas)
	}
	seen := make(map[string]bool, len(fc.Devices))
	for _, s := range fc.Devices {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.ID] {
			return fmt.Errorf("fleet: duplicate device id %q", s.ID)
		}
		seen[s.ID] = true
	}
	return nil
}

// ParseConfig decodes and validates a fleet config. Unknown fields are
// rejected so a typo in a parameter name cannot silently yield a
// baseline TK1.
func ParseConfig(data []byte) (FleetConfig, error) {
	var fc FleetConfig
	var keys struct {
		Devices []paramsKeys `json:"devices"`
	}
	if err := decodeStrict(data, &fc); err != nil {
		return FleetConfig{}, fmt.Errorf("fleet: parsing config: %w", err)
	}
	if err := json.Unmarshal(data, &keys); err != nil {
		return FleetConfig{}, fmt.Errorf("fleet: parsing config: %w", err)
	}
	for i := range min(len(fc.Devices), len(keys.Devices)) {
		fc.Devices[i].declared = keys.Devices[i].declared()
	}
	if err := fc.Validate(); err != nil {
		return FleetConfig{}, err
	}
	return fc, nil
}

// LoadConfig reads a fleet config file and resolves relative calibration
// cache paths against the file's directory.
func LoadConfig(path string) (FleetConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FleetConfig{}, err
	}
	fc, err := ParseConfig(data)
	if err != nil {
		return FleetConfig{}, fmt.Errorf("fleet: %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	for i, s := range fc.Devices {
		if s.CalibrationCache != "" && !filepath.IsAbs(s.CalibrationCache) {
			fc.Devices[i].CalibrationCache = filepath.Join(dir, s.CalibrationCache)
		}
	}
	return fc, nil
}

// decodeStrict decodes data as exactly one JSON value: unknown fields
// are an error, and so is anything but whitespace after the value — a
// second object or stray text must not be dropped unread.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
