package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
)

// newTestNode builds a standalone calibrated node outside any registry.
func newTestNode(t *testing.T, id string) *Node {
	t.Helper()
	spec := Spec{ID: id}
	adm := Admin{FleetSeed: 42}
	n, err := adm.BuildNode(spec)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := adm.Calibrate(spec)
	if err != nil {
		t.Fatal(err)
	}
	n.SetCalibration(cal)
	return n
}

func TestLifecycleTransitionsValidated(t *testing.T) {
	reg := buildTestFleet(t)
	const id = "tk1-a"

	// Straight to drained or removed is not a transition the machine has.
	for _, bad := range []NodeState{StateDrained, StateRemoved, StateProbing, StateCalibrating} {
		if err := reg.SetState(id, bad); err == nil {
			t.Errorf("active -> %s accepted; want rejection", bad)
		}
	}
	epoch := reg.view.Load().epoch
	if err := reg.SetState(id, StateQuarantined); err != nil {
		t.Fatal(err)
	}
	if reg.view.Load().epoch == epoch {
		t.Error("quarantine did not publish a new epoch")
	}
	n, _ := reg.Get(id)
	if n.State() != StateQuarantined || n.Quarantines() != 1 {
		t.Fatalf("state=%s quarantines=%d, want quarantined/1", n.State(), n.Quarantines())
	}
	// Quarantined devices own no ring keys.
	for _, a := range reg.Active() {
		if a.ID == id {
			t.Fatal("quarantined device still listed active")
		}
	}
	// Probe round trip: probing -> quarantined again must NOT double-count.
	if err := reg.SetState(id, StateProbing); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetState(id, StateQuarantined); err != nil {
		t.Fatal(err)
	}
	if n.Quarantines() != 1 {
		t.Errorf("failed probe re-counted the quarantine: %d", n.Quarantines())
	}
	if err := reg.SetState(id, StateProbing); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetState(id, StateActive); err != nil {
		t.Fatal(err)
	}
	if len(reg.Active()) != 3 {
		t.Fatalf("recovered fleet has %d active, want 3", len(reg.Active()))
	}
	if err := reg.SetState("nope", StateDraining); err == nil {
		t.Error("SetState accepted an unknown device")
	}
}

func TestAddCalibratingThenActivate(t *testing.T) {
	reg := buildTestFleet(t)
	epoch := reg.view.Load().epoch

	n, err := (&Admin{FleetSeed: 42}).BuildNode(Spec{ID: "tk1-new"})
	if err != nil {
		t.Fatal(err)
	}
	// No calibration yet: active entry must be refused, calibrating fine.
	if err := reg.Add(n, StateActive); err == nil {
		t.Fatal("Add accepted an uncalibrated node as active")
	}
	if err := reg.Add(n, StateCalibrating); err != nil {
		t.Fatal(err)
	}
	if reg.view.Load().epoch == epoch {
		t.Error("Add did not publish a new epoch")
	}
	if len(reg.Nodes()) != 4 || len(reg.Active()) != 3 {
		t.Fatalf("len=%d active=%d, want 4/3", len(reg.Nodes()), len(reg.Active()))
	}
	if err := reg.SetState("tk1-new", StateActive); err == nil {
		t.Fatal("activation without a calibration accepted")
	}
	cal, err := (&Admin{FleetSeed: 42}).Calibrate(Spec{ID: "tk1-new"})
	if err != nil {
		t.Fatal(err)
	}
	n.SetCalibration(cal)
	if err := reg.SetState("tk1-new", StateActive); err != nil {
		t.Fatal(err)
	}
	if len(reg.Active()) != 4 {
		t.Fatalf("active=%d after activation, want 4", len(reg.Active()))
	}
	// The new member owns ring keys: some key routes to it.
	found := false
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"} {
		if reg.Route(k).ID == "tk1-new" {
			found = true
			break
		}
	}
	if !found {
		t.Error("activated device owns no ring keys across 12 probes")
	}
	// Duplicate IDs are refused.
	dup := newTestNode(t, "tk1-new")
	if err := reg.Add(dup, StateActive); err == nil {
		t.Error("Add accepted a duplicate device id")
	}
}

func TestEvictSettlesCacheWaitersAndFreesLRU(t *testing.T) {
	reg := buildTestFleet(t)
	n, _ := reg.Get("tk1-hot")
	n.Cache.Put("warm", 1)

	// Owner holds a flight open; a second caller joins it as a waiter.
	started := make(chan struct{})
	release := make(chan struct{})
	var ownerErr, waiterErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, ownerErr = n.Cache.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		_, _, waiterErr = n.Cache.Do(context.Background(), "k", func() (any, error) { return 7, nil })
	}()
	// Give the waiter a beat to join the flight, then evict.
	time.Sleep(10 * time.Millisecond)
	if err := reg.Evict("tk1-hot"); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()

	if !errors.Is(waiterErr, ErrDeviceRemoved) {
		t.Errorf("waiter settled with %v, want ErrDeviceRemoved", waiterErr)
	}
	if ownerErr != nil {
		t.Errorf("owner ran to completion but got %v", ownerErr)
	}
	if n.State() != StateRemoved {
		t.Errorf("evicted node state = %s, want removed", n.State())
	}
	if n.Cache.Len() != 0 {
		t.Errorf("evicted node retains %d cached entries", n.Cache.Len())
	}
	if _, ok := n.Cache.Get("warm"); ok {
		t.Error("evicted node still serves its LRU")
	}
	// New work on the closed cache fails fast with the same error.
	if _, _, err := n.Cache.Do(context.Background(), "x", func() (any, error) { return nil, nil }); !errors.Is(err, ErrDeviceRemoved) {
		t.Errorf("Do on a removed device = %v, want ErrDeviceRemoved", err)
	}
	if _, ok := reg.Get("tk1-hot"); ok {
		t.Error("evicted device still resolvable")
	}
	if len(reg.Nodes()) != 2 {
		t.Errorf("len=%d after evict, want 2", len(reg.Nodes()))
	}
	if err := reg.Evict("tk1-hot"); err == nil {
		t.Error("double evict accepted")
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	reg := buildTestFleet(t)
	n, _ := reg.Get("tk1-a")
	releaseLoad := n.Acquire()

	done := make(chan struct{})
	var graceful bool
	var err error
	go func() {
		defer close(done)
		graceful, err = reg.Drain(context.Background(), "tk1-a")
	}()
	// The device must leave the ring while the drain waits.
	deadline := time.Now().Add(2 * time.Second)
	for n.State() != StateDraining {
		if time.Now().After(deadline) {
			t.Fatal("drain never marked the device draining")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("drain returned with a request still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	releaseLoad()
	<-done
	if err != nil || !graceful {
		t.Fatalf("drain = (graceful=%v, err=%v), want graceful", graceful, err)
	}
	if _, ok := reg.Get("tk1-a"); ok {
		t.Error("drained device still in the registry")
	}
	if n.State() != StateRemoved {
		t.Errorf("drained node state = %s, want removed", n.State())
	}
}

func TestDrainDeadlineStillRemoves(t *testing.T) {
	reg := buildTestFleet(t)
	n, _ := reg.Get("tk1-a")
	release := n.Acquire()
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	graceful, err := reg.Drain(ctx, "tk1-a")
	if err != nil {
		t.Fatal(err)
	}
	if graceful {
		t.Error("drain with a stuck request reported graceful")
	}
	if _, ok := reg.Get("tk1-a"); ok {
		t.Error("deadline-expired drain left the device in the registry")
	}
}

func TestDrainAllIdlesFleet(t *testing.T) {
	reg := buildTestFleet(t)
	if !reg.DrainAll(context.Background()) {
		t.Fatal("idle fleet did not drain gracefully")
	}
	if len(reg.Active()) != 0 {
		t.Fatalf("%d devices still active after DrainAll", len(reg.Active()))
	}
	// Members stay for inventory until process exit.
	if len(reg.Nodes()) != 3 {
		t.Fatalf("DrainAll removed members: len=%d", len(reg.Nodes()))
	}
	if reg.Route("any") != nil || reg.LeastLoaded() != nil {
		t.Error("drained fleet still routes")
	}
	if n, _ := reg.RouteHealthy("any"); n != nil {
		t.Error("drained fleet still routes healthy")
	}
}

// TestRegistryChurnUnderRace hammers ring walks against concurrent
// add/drain/evict churn; run with -race this is the epoch-swap safety
// test. Three core devices never leave, so routing always has a target.
func TestRegistryChurnUnderRace(t *testing.T) {
	reg := buildTestFleet(t)
	stop := make(chan struct{})
	var walks atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []string{"wl-a", "wl-b", "wl-c", "wl-d"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[int(walks.Add(1))%len(keys)]
				if n := reg.Route(k); n == nil {
					t.Error("Route returned nil with actives present")
					return
				}
				if n, _ := reg.RouteHealthy(k); n == nil {
					t.Error("RouteHealthy returned nil with actives present")
					return
				}
				if reg.LeastLoaded() == nil {
					t.Error("LeastLoaded returned nil with actives present")
					return
				}
				reg.Members()
				reg.Active()
			}
		}(i)
	}
	// Churner: a transient device joins, serves, drains or gets evicted.
	churn := newTestNode(t, "churn-0")
	for i := 0; i < 40; i++ {
		if err := reg.Add(churn, StateActive); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := reg.Evict(churn.ID); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := reg.Drain(context.Background(), churn.ID); err != nil {
				t.Fatal(err)
			}
		}
		// A removed node's machinery is dead; rebuild for the next lap.
		churn = newTestNode(t, "churn-0")
	}
	close(stop)
	wg.Wait()
	if len(reg.Nodes()) != 3 || len(reg.Active()) != 3 {
		t.Fatalf("churn left len=%d active=%d, want 3/3", len(reg.Nodes()), len(reg.Active()))
	}
}

func TestSetCalibrationBumpsGeneration(t *testing.T) {
	n := newTestNode(t, "gen")
	if g := n.CalGeneration(); g != 1 {
		t.Fatalf("fresh node generation = %d, want 1", g)
	}
	cal, err := SyntheticCalibration(DeclaredModel(Spec{ID: "gen"}.DeviceParams()))
	if err != nil {
		t.Fatal(err)
	}
	n.SetCalibration(cal)
	if g := n.CalGeneration(); g != 2 {
		t.Errorf("generation = %d after swap, want 2", g)
	}
	n.SetCalibration(nil) // nil swap is ignored
	if n.Cal() == nil || n.CalGeneration() != 2 {
		t.Error("nil SetCalibration must be a no-op")
	}
	var _ *experiments.Calibration = n.Cal()
}
