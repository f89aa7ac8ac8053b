package fleet

import (
	"fmt"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/tegra"
)

// Admin assembles nodes from specs after boot, for the runtime
// add-device path. It captures exactly what Build captured at boot —
// the fleet seed, the base experiment config, the calibration loader
// and the node options — so a device added live is byte-identical to
// the same spec declared in fleet.json.
type Admin struct {
	// FleetSeed anchors the seed lineage of devices without a pinned
	// seed (see NodeSeed).
	FleetSeed int64
	// Base supplies fleet-wide experiment knobs (workers, meter,
	// faults); each node gets a copy with its own seed.
	Base experiments.Config
	// Load resolves calibration cache paths; nil rejects specs that
	// declare one (there is no way to honor them).
	Load Loader
	// Node tunes the per-device cache/breaker/clock.
	Node NodeOptions
}

// ParseSpec decodes one device spec with the same strictness as the
// fleet config decoder: unknown fields are rejected so a typo cannot
// silently yield a baseline TK1, and the spec is validated before it is
// returned. This is the admin add-device request body.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := decodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("fleet: parsing device spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// BuildNode assembles a node from a validated spec: simulator from the
// merged parameters, filtered grids, identity-derived seed — but no
// calibration yet. The caller decides when calibration lands relative
// to activation (Build sets it before the registry exists; the admin
// API sets it off the request path and only then activates).
func (a Admin) BuildNode(spec Spec) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dev, err := tegra.NewCustomDevice(spec.DeviceParams())
	if err != nil {
		return nil, fmt.Errorf("fleet: device %q: %w", spec.ID, err)
	}
	grids, err := spec.Grids()
	if err != nil {
		return nil, err
	}
	cfg := a.Base
	cfg.Seed = NodeSeed(a.FleetSeed, spec)
	cfg.OnProgress = nil
	n := NewNode(spec.ID, dev, nil, cfg, grids, a.Node)
	n.Spec = spec
	return n, nil
}

// Calibrate produces the spec's boot calibration: the declared cache
// when one is named, the instant synthetic fixture otherwise. Runtime
// adds run this off the request path; the device activates only after
// the result is set on the node.
func (a Admin) Calibrate(spec Spec) (*experiments.Calibration, error) {
	if spec.CalibrationCache != "" {
		if a.Load == nil {
			return nil, fmt.Errorf("fleet: device %q declares calibration_cache but no loader is configured", spec.ID)
		}
		cal, err := a.Load(spec.CalibrationCache)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %q: loading calibration cache: %w", spec.ID, err)
		}
		return cal, nil
	}
	cal, err := SyntheticCalibration(DeclaredModel(spec.DeviceParams()))
	if err != nil {
		return nil, fmt.Errorf("fleet: device %q: synthetic calibration: %w", spec.ID, err)
	}
	return cal, nil
}
