package fleet

import (
	"context"
	"errors"

	"dvfsroofline/internal/core"
)

// The sweep protocol. Every request-path use of a node's sweep cache and
// breaker goes through this file, so the rule is stated once (DESIGN.md
// §7): the cache comes first; on a miss the breaker is asked, once per
// request; at most one sweep runs per key; and a granted probe slot is
// settled exactly once — Success, Failure or a verdict-free Release —
// even if the sweep panics. Errors that say nothing about the device's
// sweep path carry no verdict: the request's own cancellation, a joined
// flight's failure (ErrShared), an abandoned wait (ErrWaiterAbandoned)
// and a removed device (ErrDeviceRemoved). Any other error is a
// failure, the request's own deadline included.

// ErrBreakerOpen is the answer to a sweep the breaker refused while the
// cache held nothing for its key.
var ErrBreakerOpen = errors.New("fleet: sweep breaker open and no cached sweep")

// SweepOutcome says how the protocol answered one request on one node.
type SweepOutcome int

const (
	SweepSkipped  SweepOutcome = iota // nothing served, no sweep ran here: breaker refusal, failed joined flight, abandoned wait, removed device
	SweepCached                       // served from the cache or a joined flight
	SweepDegraded                     // served from the cache while the breaker refused fresh work
	SweepAdmitted                     // Admit only: a fresh sweep may run, possibly in the half-open probe slot; end it with one Settle or Abandon
	SweepFresh                        // this request ran the sweep
	SweepFailed                       // this request's own sweep failed, its cancellation or deadline included
)

// Admit opens the protocol for a caller that runs its own sweep (the
// placement fan-out): SweepCached with the cached candidates, or on a
// miss the breaker's SweepAdmitted or SweepSkipped.
//
//energylint:hotpath
func (n *Node) Admit(key string) ([]core.Candidate, SweepOutcome) {
	if val, ok := n.Cache.Get(key); ok {
		return val.([]core.Candidate), SweepCached
	}
	if !n.Breaker.Allow() {
		return nil, SweepSkipped
	}
	return nil, SweepAdmitted
}

// Settle ends an admitted sweep that finished with err: the candidates
// are cached under key on success, and the breaker gets its verdict.
func (n *Node) Settle(key string, cands []core.Candidate, err error) {
	if err == nil {
		n.Cache.Put(key, cands)
	}
	n.verdict(err)
}

// Abandon ends an admitted sweep that has no outcome of its own (its
// whole fan-out was cancelled or timed out): no verdict.
func (n *Node) Abandon() { n.Breaker.Release() }

func (n *Node) verdict(err error) {
	switch {
	case err == nil:
		n.Breaker.Success()
	case notOwned(err), errors.Is(err, context.Canceled):
		n.Breaker.Release()
	default:
		n.Breaker.Failure()
	}
}

// notOwned reports whether err comes from a sweep this request did not
// run.
func notOwned(err error) bool {
	return errors.Is(err, ErrShared) || errors.Is(err, ErrWaiterAbandoned) || errors.Is(err, ErrDeviceRemoved)
}

// Sweep is the whole protocol for one request: the cached candidates
// for key, or run's fresh ones under Cache.Do's single flight. A hit
// still asks the breaker once, to tell a degraded answer from a healthy
// one, and frees a granted slot at once. The error is ErrBreakerOpen
// when the breaker refused a miss, the sweep's own error otherwise.
//
//energylint:hotpath
func (n *Node) Sweep(ctx context.Context, key string, run func() ([]core.Candidate, error)) ([]core.Candidate, SweepOutcome, error) {
	cands, out := n.Admit(key)
	switch out {
	case SweepCached:
		if !n.Breaker.Allow() {
			return cands, SweepDegraded, nil
		}
		n.Breaker.Release()
		return cands, SweepCached, nil
	case SweepSkipped:
		return nil, SweepSkipped, ErrBreakerOpen
	}
	settled := false
	defer func() {
		if !settled { // a panicking run unwinds with the slot held
			n.Breaker.Release()
		}
	}()
	val, hit, err := n.Cache.Do(ctx, key, func() (any, error) {
		cands, err := run()
		if err != nil {
			return nil, err
		}
		return cands, nil
	})
	if hit {
		n.Breaker.Release()
	} else {
		n.verdict(err)
	}
	settled = true
	switch {
	case hit:
		return val.([]core.Candidate), SweepCached, nil
	case err == nil:
		return val.([]core.Candidate), SweepFresh, nil
	case notOwned(err):
		return nil, SweepSkipped, err
	default:
		return nil, SweepFailed, err
	}
}
