// Package fleet turns the single calibrated device behind energyd into
// a heterogeneous multi-device fleet. The paper calibrates one
// DVFS-aware energy model for one Jetson-class board; a production
// daemon serves many boards with distinct capacitances, leakage slopes
// and DVFS ladders, and must answer fleet-level questions — "which
// device, at which (f_core, f_mem), answers this workload cheapest?"
//
// The package provides:
//
//   - Spec / FleetConfig — JSON device declarations (tegra.DeviceParams
//     over the TK1 baseline, with per-device seeds, calibration caches
//     and DVFS bounds).
//   - Node — one running device: simulator, calibration, per-device
//     sweep cache and circuit breaker, a load gauge, and a lifecycle
//     state (see NodeState).
//   - Registry — the routing layer: deterministic consistent-hash
//     placement with ring-order failover around open breakers, a
//     least-loaded picker, and live membership — devices are added,
//     drained and evicted at runtime through epoch'd immutable ring
//     snapshots, so in-flight walks never observe a half-built ring.
//   - Health — breaker-open windows and failed probes quarantine a
//     device; deterministic exponential-backoff probes bring it back.
//   - Drift — a per-device CUSUM over measured-vs-predicted residuals
//     that schedules recalibration when the constants go stale.
//   - SyntheticCalibration — instant noiseless calibration from declared
//     parameters, so an N-device fleet boots without N measurement
//     campaigns.
//
// Everything is deterministic: per-device seeds derive from the fleet
// seed and the device ID (never from registry order), routing is a pure
// function of the request key and the sorted active ID list, probe
// backoff jitter derives from MixSeed lineage, and sweeps shard over
// the experiments worker pool with identity-derived seeds — so a fleet
// answer is byte-identical at any worker count or routing order.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
)

// Node is one device of the fleet: the simulated board, its fitted
// calibration, its private sweep cache and circuit breaker, and its
// setting grids. Identity fields (ID, Dev, Cfg, Grids, Spec) are
// read-only after construction; the calibration pointer, lifecycle
// state, drift detector, Cache, Breaker and the load gauge synchronize
// internally.
type Node struct {
	// ID names the device; the empty ID is reserved for the legacy
	// single-device mode of internal/serve, which keeps device labels
	// off every wire format.
	ID      string
	Dev     *tegra.Device
	Cfg     experiments.Config // per-device seed lineage; OnProgress nil
	Grids   map[string][]dvfs.Setting
	Cache   *Cache
	Breaker *Breaker
	Spec    Spec

	// cal is the live calibration. It is swapped atomically by
	// SetCalibration (drift recalibration, add-device activation), so
	// readers never observe a half-written model; calGen counts swaps.
	cal    atomic.Pointer[experiments.Calibration]
	calGen atomic.Uint64

	state    atomic.Int32 // NodeState; transitions go through Registry
	inflight atomic.Int64

	quarantines atomic.Uint64 // active -> quarantined transitions
	recals      atomic.Uint64 // completed drift recalibrations
	recalFails  atomic.Uint64 // recalibration attempts that failed
	recalBusy   atomic.Bool   // one recalibration in flight at a time
	drift       driftWatch
}

// NodeOptions tune the per-device machinery; the zero value selects the
// serving defaults (64 cache entries, 5-failure breaker, 30 s cooldown,
// wall clock).
type NodeOptions struct {
	CacheSize        int
	BreakerThreshold int
	BreakerCooldown  time.Duration
	Clock            func() time.Time
}

// NewNode assembles a node from already-built parts, in the active
// state. cal may be nil for a device still calibrating (see
// Registry.Add); it must then be supplied via SetCalibration before the
// node serves. cfg.OnProgress, if set, fires from every sweep this node
// runs; callers serving concurrent requests should leave it nil.
func NewNode(id string, dev *tegra.Device, cal *experiments.Calibration, cfg experiments.Config, grids map[string][]dvfs.Setting, opts NodeOptions) *Node {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 64
	}
	n := &Node{
		ID:      id,
		Dev:     dev,
		Cfg:     cfg,
		Grids:   grids,
		Cache:   NewCache(opts.CacheSize),
		Breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.Clock),
	}
	n.state.Store(int32(StateActive))
	if cal != nil {
		n.SetCalibration(cal)
	}
	return n
}

// Cal returns the node's live calibration. It is nil only while the
// node is still calibrating (a runtime add before activation); serving
// paths never see a nil calibration because calibrating nodes are kept
// off the ring.
func (n *Node) Cal() *experiments.Calibration { return n.cal.Load() }

// SetCalibration atomically swaps the node's calibration and bumps the
// generation counter. In-flight requests keep the pointer they loaded;
// the next request scores against the new constants.
func (n *Node) SetCalibration(cal *experiments.Calibration) {
	if cal == nil {
		return
	}
	n.cal.Store(cal)
	n.calGen.Add(1)
}

// CalGeneration counts calibration swaps: 1 after boot, +1 per
// recalibration. Stamped on /v1/fleet/devices so operators can tell
// which constants an answer was served from.
func (n *Node) CalGeneration() uint64 { return n.calGen.Load() }

// State returns the node's lifecycle state.
func (n *Node) State() NodeState { return NodeState(n.state.Load()) }

// Quarantines counts the node's active -> quarantined transitions.
func (n *Node) Quarantines() uint64 { return n.quarantines.Load() }

// Recalibrations counts completed drift recalibrations.
func (n *Node) Recalibrations() uint64 { return n.recals.Load() }

// RecalFailures counts recalibration attempts that did not land.
func (n *Node) RecalFailures() uint64 { return n.recalFails.Load() }

// Acquire increments the node's in-flight load gauge and returns the
// matching release. The least-loaded router and the drain path read
// this gauge.
func (n *Node) Acquire() func() {
	n.inflight.Add(1)
	return func() { n.inflight.Add(-1) }
}

// Load returns the node's current in-flight request count.
func (n *Node) Load() int64 { return n.inflight.Load() }

// Registry is the fleet's routing table with live membership. Readers
// (Route, RouteHealthy, LeastLoaded, Members, Nodes, Get) load one
// immutable epoch'd snapshot — the members and their states, the ID
// index, and a consistent-hash ring over the active members only — so a
// walk in flight keeps its coherent view while a writer swaps in the
// next epoch. Writers (Add, SetState, Drain, Evict) serialize on a
// mutex, rebuild the snapshot, and publish it atomically.
type Registry struct {
	mu       sync.Mutex
	replicas int
	members  []*Node // sorted by ID; source of truth, guarded by mu
	view     atomic.Pointer[registryView]
}

// registryView is one immutable membership snapshot.
type registryView struct {
	epoch  uint64
	nodes  []*Node     // every member, sorted by ID
	states []NodeState // states[i] is nodes[i]'s state as this epoch published it
	byID   map[string]*Node
	active []*Node // ring index -> node; active members only, sorted
	ring   *ring   // consistent-hash ring over active
}

// NewRegistry builds a registry over the given nodes. Nodes are sorted
// by ID so every derived structure (ring points, iteration order,
// argmin tie-breaks) is a pure function of the node set, not of the
// caller's slice order. replicas <= 0 selects the ring default.
func NewRegistry(nodes []*Node, replicas int) (*Registry, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: registry needs at least one node")
	}
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].ID < sorted[b].ID })
	seen := make(map[string]bool, len(sorted))
	for _, n := range sorted {
		if seen[n.ID] {
			return nil, fmt.Errorf("fleet: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
	}
	r := &Registry{replicas: replicas, members: sorted}
	// Uncontended (the registry has not been published yet), but taking
	// the lock keeps rebuildLocked's contract unconditional.
	r.mu.Lock()
	r.rebuildLocked()
	r.mu.Unlock()
	return r, nil
}

// rebuildLocked derives the next epoch's snapshot from the member list
// and publishes it. Callers hold r.mu.
func (r *Registry) rebuildLocked() {
	var epoch uint64 = 1
	if old := r.view.Load(); old != nil {
		epoch = old.epoch + 1
	}
	v := &registryView{
		epoch:  epoch,
		nodes:  r.members,
		states: make([]NodeState, len(r.members)),
		byID:   make(map[string]*Node, len(r.members)),
	}
	ids := make([]string, 0, len(r.members))
	for i, n := range r.members {
		v.byID[n.ID] = n
		// Every writer stores a node's new state before it publishes,
		// so the recorded state is exactly this epoch's.
		v.states[i] = n.State()
		if v.states[i] == StateActive {
			v.active = append(v.active, n)
			ids = append(ids, n.ID)
		}
	}
	v.ring = newRing(ids, r.replicas)
	r.view.Store(v)
}

// Members returns the current epoch, its members sorted by ID and the
// lifecycle state each had when that epoch was published (states[i]
// belongs to nodes[i]), all from one view: a member's live State() may
// already belong to the next epoch. The epoch advances by one on every
// membership or state change; /v1/stats and /metrics export it so
// operators can correlate routing shifts with fleet events. Callers
// must not mutate the slices.
func (r *Registry) Members() (epoch uint64, nodes []*Node, states []NodeState) {
	v := r.view.Load()
	return v.epoch, v.nodes, v.states
}

// Nodes returns every member sorted by ID, regardless of state.
// Callers must not mutate the slice.
func (r *Registry) Nodes() []*Node { return r.view.Load().nodes }

// Active returns the members currently accepting new placements,
// sorted by ID. Callers must not mutate the slice.
func (r *Registry) Active() []*Node { return r.view.Load().active }

// Get returns the member with the given ID, in any state.
func (r *Registry) Get(id string) (*Node, bool) {
	n, ok := r.view.Load().byID[id]
	return n, ok
}

// Route returns the active node owning key on the consistent-hash
// ring: the deterministic primary placement, regardless of breaker
// health. Prediction traffic routes here — it never runs sweeps, so an
// open sweep breaker is no reason to move it off its cache-affine
// home. Returns nil when no device is active.
func (r *Registry) Route(key string) *Node {
	v := r.view.Load()
	if len(v.active) == 0 {
		return nil
	}
	return v.active[v.ring.successor(key)]
}

// RouteHealthy returns the first active node in ring order from key
// whose sweep breaker admits fresh work, for traffic that will run a
// sweep. failover reports whether the primary was skipped. When every
// breaker is open it returns the primary, whose degraded cache path is
// then the only thing left to try; when no device is active it returns
// nil.
func (r *Registry) RouteHealthy(key string) (n *Node, failover bool) {
	v := r.view.Load()
	if len(v.active) == 0 {
		return nil, false
	}
	var primary *Node
	visited := 0
	v.ring.walkFrom(key, func(idx int) bool {
		node := v.active[idx]
		if primary == nil {
			primary = node
		}
		if state, _ := node.Breaker.Snapshot(); state != BreakerOpen {
			n = node
			failover = visited > 0
			return true
		}
		visited++
		return false
	})
	if n == nil {
		return primary, false
	}
	return n, failover
}

// LeastLoaded returns the active node with the fewest in-flight
// requests, breaking ties by ID so the choice is deterministic under
// equal load. Returns nil when no device is active.
func (r *Registry) LeastLoaded() *Node {
	v := r.view.Load()
	if len(v.active) == 0 {
		return nil
	}
	best := v.active[0]
	for _, n := range v.active[1:] {
		if n.Load() < best.Load() {
			best = n
		}
	}
	return best
}

// Loader resolves a calibration cache path to a fitted calibration;
// cmd/energyd passes cli.LoadCalibration. Build uses it only for specs
// that declare a cache.
type Loader func(path string) (*experiments.Calibration, error)

// Build assembles a registry from a validated config. Every device gets
// its own simulator (from its merged parameters), its own calibration
// (loaded from its cache when declared, synthesized from its declared
// parameters otherwise), a seed derived from the fleet seed and its ID,
// and its filtered setting grids. base supplies the fleet-wide
// experiment knobs (workers, meter, faults); its seed is overridden per
// device. The runtime add-device path (Admin) shares the same
// per-spec assembly, so a device added live is byte-identical to one
// declared at boot.
func Build(fc FleetConfig, base experiments.Config, load Loader, opts NodeOptions) (*Registry, error) {
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	a := Admin{FleetSeed: ResolveSeed(fc, base), Base: base, Load: load, Node: opts}
	nodes := make([]*Node, 0, len(fc.Devices))
	for _, spec := range fc.Devices {
		node, err := a.BuildNode(spec)
		if err != nil {
			return nil, err
		}
		cal, err := a.Calibrate(spec)
		if err != nil {
			return nil, err
		}
		node.SetCalibration(cal)
		nodes = append(nodes, node)
	}
	return NewRegistry(nodes, fc.Replicas)
}

// ResolveSeed returns the fleet's base seed: the config's pin when
// present, the caller's default otherwise.
func ResolveSeed(fc FleetConfig, base experiments.Config) int64 {
	if fc.Seed != 0 {
		return fc.Seed
	}
	return base.Seed
}

// NodeSeed resolves a device's measurement-noise seed: the spec's pin
// when present, otherwise a mix of the fleet seed with the device ID's
// hash — identity-derived, so seeds survive fleet membership changes
// and never depend on declaration order.
func NodeSeed(fleetSeed int64, spec Spec) int64 {
	if spec.Seed > 0 {
		return spec.Seed
	}
	return stats.MixSeed(fleetSeed, int64(hashKey(spec.ID)))
}
