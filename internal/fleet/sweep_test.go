package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/experiments"
)

// countingClock is a hand-advanced breaker clock that counts its reads:
// sync replay's step clock advances on every read, so the protocol must
// read it exactly as often as the handlers it replaced.
type countingClock struct {
	t     time.Time
	reads int
}

func (c *countingClock) now() time.Time { c.reads++; return c.t }

// breakerStates are the six breaker states a sweep request can meet,
// each prepared on a threshold-1, one-minute-cooldown breaker.
var breakerStates = []struct {
	name string
	prep func(b *Breaker, clk *countingClock)
}{
	{"closed", func(b *Breaker, clk *countingClock) {}},
	{"open in cooldown", func(b *Breaker, clk *countingClock) { b.Failure() }},
	{"open past cooldown", func(b *Breaker, clk *countingClock) {
		b.Failure()
		clk.t = clk.t.Add(2 * time.Minute)
	}},
	{"half-open probe taken", func(b *Breaker, clk *countingClock) {
		b.Failure()
		clk.t = clk.t.Add(2 * time.Minute)
		b.Allow()
	}},
	{"half-open probe free", func(b *Breaker, clk *countingClock) {
		b.Failure()
		clk.t = clk.t.Add(2 * time.Minute)
		b.Allow()
		b.Release()
	}},
	{"forced", func(b *Breaker, clk *countingClock) { b.ForceOpen(true) }},
}

// protocolNode builds a calibration-less node (the protocol never reads
// the model) with its breaker prepared in the given state.
func protocolNode(t *testing.T, state string) (*Node, *countingClock) {
	t.Helper()
	clk := &countingClock{t: time.Unix(1700000000, 0)}
	n := NewNode("dev", nil, nil, experiments.Config{Seed: 42}, nil,
		NodeOptions{BreakerThreshold: 1, BreakerCooldown: time.Minute, Clock: clk.now})
	for _, s := range breakerStates {
		if s.name == state {
			s.prep(n.Breaker, clk)
			clk.reads = 0
			return n, clk
		}
	}
	t.Fatalf("unknown breaker state %q", state)
	return nil, nil
}

func probeTaken(b *Breaker) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probing
}

var sweptCands = []core.Candidate{{MeasuredEnergy: 1.5}}

// TestSweepProtocol pins the protocol to what /v1/autotune (Sweep) and
// /v1/fleet/place (Admit, then Settle with the sweep's result) did
// before they shared it: the outcome, the breaker state afterwards,
// whether the probe slot is still taken (only ever by the earlier probe
// a row starts with), and how often the breaker read its clock.
func TestSweepProtocol(t *testing.T) {
	const (
		closed   = BreakerClosed
		halfOpen = BreakerHalfOpen
		open     = BreakerOpen
	)
	rows := []struct {
		state  string
		cached bool
		place  bool
		out    SweepOutcome
		after  BreakerState
		taken  bool
		reads  int
	}{
		// Autotune, cached: the breaker only decides degraded or not.
		{"closed", true, false, SweepCached, closed, false, 0},
		{"open in cooldown", true, false, SweepDegraded, open, false, 1},
		{"open past cooldown", true, false, SweepCached, halfOpen, false, 1},
		{"half-open probe taken", true, false, SweepDegraded, halfOpen, true, 0},
		{"half-open probe free", true, false, SweepCached, halfOpen, false, 0},
		{"forced", true, false, SweepDegraded, open, false, 0},
		// Autotune, uncached: an admitted sweep succeeds and recloses.
		{"closed", false, false, SweepFresh, closed, false, 0},
		{"open in cooldown", false, false, SweepSkipped, open, false, 1},
		{"open past cooldown", false, false, SweepFresh, closed, false, 1},
		{"half-open probe taken", false, false, SweepSkipped, halfOpen, true, 0},
		{"half-open probe free", false, false, SweepFresh, closed, false, 0},
		{"forced", false, false, SweepSkipped, open, false, 0},
		// Place, cached: the cache answers before the breaker is asked.
		{"closed", true, true, SweepCached, closed, false, 0},
		{"open in cooldown", true, true, SweepCached, open, false, 0},
		{"open past cooldown", true, true, SweepCached, open, false, 0},
		{"half-open probe taken", true, true, SweepCached, halfOpen, true, 0},
		{"half-open probe free", true, true, SweepCached, halfOpen, false, 0},
		{"forced", true, true, SweepCached, open, false, 0},
		// Place, uncached: an admitted sweep settles successfully.
		{"closed", false, true, SweepAdmitted, closed, false, 0},
		{"open in cooldown", false, true, SweepSkipped, open, false, 1},
		{"open past cooldown", false, true, SweepAdmitted, closed, false, 1},
		{"half-open probe taken", false, true, SweepSkipped, halfOpen, true, 0},
		{"half-open probe free", false, true, SweepAdmitted, closed, false, 0},
		{"forced", false, true, SweepSkipped, open, false, 0},
	}
	for _, row := range rows {
		name := fmt.Sprintf("%s/cached=%v/place=%v", row.state, row.cached, row.place)
		t.Run(name, func(t *testing.T) {
			n, clk := protocolNode(t, row.state)
			if row.cached {
				n.Cache.Put("k", sweptCands)
			}
			runs := 0
			run := func() ([]core.Candidate, error) { runs++; return sweptCands, nil }
			var out SweepOutcome
			var cands []core.Candidate
			if row.place {
				cands, out = n.Admit("k")
				if out == SweepAdmitted {
					cands, _ = run()
					n.Settle("k", cands, nil)
				}
			} else {
				var err error
				cands, out, err = n.Sweep(context.Background(), "k", run)
				if (out == SweepSkipped) != errors.Is(err, ErrBreakerOpen) {
					t.Errorf("outcome %v with error %v", out, err)
				}
			}
			if out != row.out {
				t.Errorf("outcome %v, want %v", out, row.out)
			}
			if served := out != SweepSkipped; served != (len(cands) == 1) {
				t.Errorf("outcome %v served %d candidates", out, len(cands))
			}
			if wantRuns := map[bool]int{true: 1}[out == SweepFresh || out == SweepAdmitted]; runs != wantRuns {
				t.Errorf("run called %d times, want %d", runs, wantRuns)
			}
			if state, _ := n.Breaker.Snapshot(); state != row.after {
				t.Errorf("breaker %v afterwards, want %v", state, row.after)
			}
			if got := probeTaken(n.Breaker); got != row.taken {
				t.Errorf("probe slot taken = %v afterwards, want %v", got, row.taken)
			}
			if clk.reads != row.reads {
				t.Errorf("%d breaker clock reads, want %d", clk.reads, row.reads)
			}
			if _, ok := n.Cache.Get("k"); ok != (row.cached || out == SweepFresh || out == SweepAdmitted) {
				t.Errorf("cache holds the key = %v after outcome %v", ok, out)
			}
		})
	}
}

// TestSweepVerdicts pins which errors carry a breaker verdict. Each row
// starts half-open with the probe slot free, so the admitted request
// holds the slot and its verdict decides the state: Success recloses,
// Failure reopens (reading the clock for the new cooldown), and a
// verdict-free Release leaves the breaker half-open with the slot free.
func TestSweepVerdicts(t *testing.T) {
	rows := []struct {
		name  string
		err   error
		out   SweepOutcome // Sweep's outcome when run returns err
		after BreakerState
		reads int
	}{
		{"success", nil, SweepFresh, BreakerClosed, 0},
		{"own cancellation", context.Canceled, SweepFailed, BreakerHalfOpen, 0},
		{"own deadline", context.DeadlineExceeded, SweepFailed, BreakerOpen, 1},
		{"sweep error", errors.New("meter fell off the bus"), SweepFailed, BreakerOpen, 1},
		{"joined flight failed", fmt.Errorf("%w: %w", ErrShared, errors.New("x")), SweepSkipped, BreakerHalfOpen, 0},
		{"abandoned wait", fmt.Errorf("%w: %w", ErrWaiterAbandoned, context.DeadlineExceeded), SweepSkipped, BreakerHalfOpen, 0},
		{"device removed", ErrDeviceRemoved, SweepSkipped, BreakerHalfOpen, 0},
	}
	for _, row := range rows {
		t.Run("Sweep/"+row.name, func(t *testing.T) {
			n, clk := protocolNode(t, "half-open probe free")
			_, out, err := n.Sweep(context.Background(), "k", func() ([]core.Candidate, error) {
				if row.err != nil {
					return nil, row.err
				}
				return sweptCands, nil
			})
			if out != row.out || !errors.Is(err, row.err) {
				t.Errorf("outcome %v error %v, want %v %v", out, err, row.out, row.err)
			}
			checkSettled(t, n, clk, row.after, row.reads)
		})
		t.Run("Settle/"+row.name, func(t *testing.T) {
			n, clk := protocolNode(t, "half-open probe free")
			if _, out := n.Admit("k"); out != SweepAdmitted {
				t.Fatalf("Admit = %v, want admitted", out)
			}
			n.Settle("k", sweptCands, row.err)
			checkSettled(t, n, clk, row.after, row.reads)
		})
	}
	t.Run("Abandon", func(t *testing.T) {
		n, clk := protocolNode(t, "half-open probe free")
		n.Admit("k")
		n.Abandon()
		checkSettled(t, n, clk, BreakerHalfOpen, 0)
	})
}

func checkSettled(t *testing.T, n *Node, clk *countingClock, after BreakerState, reads int) {
	t.Helper()
	if state, _ := n.Breaker.Snapshot(); state != after {
		t.Errorf("breaker %v afterwards, want %v", state, after)
	}
	if probeTaken(n.Breaker) {
		t.Error("probe slot still taken after the sweep settled")
	}
	if clk.reads != reads {
		t.Errorf("%d breaker clock reads, want %d", clk.reads, reads)
	}
}

// A panicking sweep still frees the probe slot it held, and its key is
// retryable: the next request runs a fresh sweep and recloses.
func TestSweepPanicFreesSlotAndKey(t *testing.T) {
	n, _ := protocolNode(t, "half-open probe free")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Sweep swallowed the panic")
			}
		}()
		n.Sweep(context.Background(), "k", func() ([]core.Candidate, error) { panic("sweep blew up") })
	}()
	if probeTaken(n.Breaker) {
		t.Fatal("probe slot leaked by a panicking sweep")
	}
	if state, _ := n.Breaker.Snapshot(); state != BreakerHalfOpen {
		t.Fatalf("breaker %v after a panic, want half-open (no verdict)", state)
	}
	_, out, err := n.Sweep(context.Background(), "k", func() ([]core.Candidate, error) { return sweptCands, nil })
	if out != SweepFresh || err != nil {
		t.Fatalf("retry after panic = %v, %v; want a fresh sweep", out, err)
	}
	if state, _ := n.Breaker.Snapshot(); state != BreakerClosed {
		t.Fatalf("breaker %v after the retry succeeded, want closed", state)
	}
}
