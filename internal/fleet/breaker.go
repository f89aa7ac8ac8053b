package fleet

import (
	"sync"
	"time"
)

// BreakerState enumerates a circuit breaker's states. The numeric
// values are exported on /metrics as the energyd_breaker_state gauge.
type BreakerState int

const (
	BreakerClosed   BreakerState = 0 // sweeps run normally
	BreakerHalfOpen BreakerState = 1 // one probe sweep allowed
	BreakerOpen     BreakerState = 2 // sweeps rejected; cache serves stale
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// Breaker is the circuit breaker around one device's sweep path.
// Consecutive sweep failures (timeouts, internal errors) trip it open;
// while open, the serving layer answers from the device's stale sweep
// cache with a degraded flag instead of queueing more doomed sweeps, and
// the fleet router steers traffic to healthier devices. After a
// cooldown, one half-open probe sweep is allowed through: success
// recloses the breaker, failure reopens it for another cooldown.
// ForceOpen pins the breaker open regardless of outcomes (the
// -force-degraded drill flag of cmd/energyd).
type Breaker struct {
	mu        sync.Mutex
	threshold int              // consecutive failures that trip the breaker
	cooldown  time.Duration    // open period before a half-open probe
	now       func() time.Time // injectable clock for tests

	state    BreakerState // guarded by mu
	failures int          // consecutive failures while closed; guarded by mu
	openedAt time.Time    // guarded by mu
	probing  bool         // a half-open probe is in flight; guarded by mu
	forced   bool         // guarded by mu
	opens    uint64       // cumulative closed/half-open -> open transitions; guarded by mu
}

// NewBreaker builds a breaker; zero threshold/cooldown select 5 failures
// and 30 s, and a nil clock selects wall time.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	if now == nil {
		//energylint:allow determinism(defensive default for direct construction in tests; the serving layer always injects its Options.Clock)
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a fresh sweep may run now. In the half-open
// state only one caller at a time gets a probe slot.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.forced {
		return false
	}
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open
		if !b.probing {
			b.probing = true
			return true
		}
		return false
	}
}

// Success records a completed sweep: it recloses the breaker and resets
// the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// Failure records a failed sweep. A failed half-open probe reopens the
// breaker immediately; while closed, the threshold-th consecutive
// failure trips it.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.trip()
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.trip()
	}
}

// Release frees a probe slot granted by Allow without recording an
// outcome: no sweep ran for the caller, or its outcome says nothing
// about the sweep path (see sweep.go).
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// trip opens the breaker. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
	b.opens++
}

// ForceOpen pins the breaker open (true) or releases the pin (false).
// Releasing does not close an organically opened breaker.
func (b *Breaker) ForceOpen(v bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v && !b.forced {
		b.opens++
	}
	b.forced = v
}

// Snapshot returns the effective state and the cumulative open count.
func (b *Breaker) Snapshot() (state BreakerState, opens uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	state = b.state
	if b.forced {
		state = BreakerOpen
	}
	return state, b.opens
}
