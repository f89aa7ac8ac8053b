package serve

import (
	"cmp"
	"maps"
	"slices"
	"sync"

	"dvfsroofline/internal/fleet"
)

// metrics is a hand-rolled Prometheus registry: the daemon exposes the
// standard text exposition format (version 0.0.4) without pulling in a
// client library. It tracks per-endpoint request counts by status code,
// a fixed-bucket latency histogram, the autotune cache hit/miss
// counters keyed by device, and an in-flight request gauge. All methods
// are safe for concurrent use.
type metrics struct {
	mu        sync.Mutex
	inflight  int                         // guarded by mu
	endpoints map[string]*endpointMetrics // guarded by mu
	// Per-device cache counters. The legacy single-device node uses the
	// empty key, which prints as the historic unlabeled lines.
	hits     map[string]uint64 // guarded by mu
	misses   map[string]uint64 // guarded by mu
	degraded map[string]uint64 // guarded by mu
	// Per-device energy ledgers, in joules: sweepJ integrates the
	// measured energy of every candidate a fresh sweep burned through;
	// answeredJ integrates the energy of the picks actually returned to
	// clients. Their ratio — energy answered per joule of sweep work —
	// is the cache's leverage: answers served from cache or joined
	// flights add to the numerator without new sweep cost.
	sweepJ    map[string]float64 // guarded by mu
	answeredJ map[string]float64 // guarded by mu
}

// latencyBuckets are the histogram upper bounds in seconds. Prediction
// is sub-millisecond; a cold full-grid autotune sweep can take seconds.
var latencyBuckets = []float64{0.0005, 0.0025, 0.01, 0.05, 0.25, 1, 5}

type endpointMetrics struct {
	codes   map[int]uint64
	buckets []uint64 // cumulative counts per latencyBuckets entry
	sum     float64  // total observed seconds
	count   uint64
}

func newMetrics() *metrics {
	return &metrics{
		endpoints: make(map[string]*endpointMetrics),
		hits:      make(map[string]uint64),
		misses:    make(map[string]uint64),
		degraded:  make(map[string]uint64),
		sweepJ:    make(map[string]float64),
		answeredJ: make(map[string]float64),
	}
}

// observe records one completed request.
func (m *metrics) observe(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[endpoint]
	if e == nil {
		e = &endpointMetrics{codes: make(map[int]uint64), buckets: make([]uint64, len(latencyBuckets))}
		m.endpoints[endpoint] = e
	}
	e.codes[code]++
	for i, le := range latencyBuckets {
		if seconds <= le {
			e.buckets[i]++
		}
	}
	e.sum += seconds
	e.count++
}

func (m *metrics) addInflight(d int) {
	m.mu.Lock()
	m.inflight += d
	m.mu.Unlock()
}

// charge books one device's sweep outcome under one lock: a hit (plus
// the degraded counter for a stale serve) or a miss, and for a fresh
// sweep the measured energy it burned integrating its candidates.
func (m *metrics) charge(dev string, out fleet.SweepOutcome, sweepJ float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch out {
	case fleet.SweepDegraded:
		m.degraded[dev]++
		m.hits[dev]++
	case fleet.SweepCached:
		m.hits[dev]++
	case fleet.SweepFresh:
		m.sweepJ[dev] += sweepJ
		m.misses[dev]++
	case fleet.SweepFailed:
		m.misses[dev]++
	}
}

// addAnsweredJoules credits one device's ledger with the energy of a
// pick returned to a client (fresh, cached or degraded alike).
func (m *metrics) addAnsweredJoules(dev string, j float64) {
	m.mu.Lock()
	m.answeredJ[dev] += j
	m.mu.Unlock()
}

// countersSnapshot is a deep copy of every metric, taken under one
// acquisition of mu so the numbers are mutually consistent; the read
// endpoints render it after the lock is released.
type countersSnapshot struct {
	endpoints              map[string]endpointMetrics
	inflight               int
	hits, misses, degraded map[string]uint64
	sweepJ, answeredJ      map[string]float64
}

// snapshot copies every counter for the read endpoints (see
// Server.snapshot).
func (m *metrics) snapshot() countersSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := countersSnapshot{
		endpoints: make(map[string]endpointMetrics, len(m.endpoints)),
		inflight:  m.inflight,
		hits:      maps.Clone(m.hits),
		misses:    maps.Clone(m.misses),
		degraded:  maps.Clone(m.degraded),
		sweepJ:    maps.Clone(m.sweepJ),
		answeredJ: maps.Clone(m.answeredJ),
	}
	for ep, e := range m.endpoints {
		c.endpoints[ep] = endpointMetrics{codes: maps.Clone(e.codes), buckets: slices.Clone(e.buckets), sum: e.sum, count: e.count}
	}
	return c
}

func sumCounter(c map[string]uint64) uint64 {
	var total uint64
	for _, v := range c {
		total += v
	}
	return total
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
