package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dvfsroofline/internal/units"
)

func TestZeroPlanInactive(t *testing.T) {
	var p Plan
	if p.Active() {
		t.Error("zero plan must not inject faults")
	}
	if inj := p.ForSample(1, 0); inj != nil {
		t.Error("inactive plan must return a nil injector")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7, dropout=0.01,spike=0.02,spike-factor=4,disconnect=0.1,dvfs=0.05,dvfs-latency=3ms,throttle=0.03,throttle-factor=0.5,throttle-fraction=0.4")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed: 7, MeterDropout: 0.01, MeterSpike: 0.02, SpikeFactor: 4,
		MeterDisconnect: 0.1, DVFSFailure: 0.05, DVFSSettleLatency: 3 * time.Millisecond,
		Throttle: 0.03, ThrottleFactor: 0.5, ThrottleFraction: 0.4,
	}
	if p != want {
		t.Errorf("parsed %+v, want %+v", p, want)
	}
	if !p.Active() {
		t.Error("parsed plan should be active")
	}

	if p, err := ParsePlan("  "); err != nil || p.Active() {
		t.Errorf("empty spec: got %+v, %v; want inactive zero plan", p, err)
	}

	for _, bad := range []string{
		"dropout",        // not key=value
		"volts=3",        // unknown key
		"dropout=x",      // bad float
		"dropout=1.5",    // probability out of range
		"dvfs-latency=3", // missing duration unit
		"throttle-factor=2",
		"spike-factor=-1",
		// NaN fails every comparison, and a NaN or infinite factor makes
		// every faulted measurement read NaN or ±Inf without an error.
		"dropout=NaN",
		"spike=NaN",
		"disconnect=NaN",
		"dvfs=NaN",
		"throttle=NaN",
		"throttle=1,throttle-factor=NaN",
		"throttle=1,throttle-fraction=NaN",
		"spike=1,spike-factor=NaN",
		"spike=1,spike-factor=Inf",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", bad)
		}
	}
}

// drain records every fault decision one injector makes, in the harness
// call order, so two injectors can be compared for byte-identical fault
// streams.
func drain(in *Injector) string {
	dvfsErr := in.DVFSTransition()
	wins := in.ThrottleWindows(0.5)
	beginErr := in.BeginMeasure(0.5, 64)
	var samples [64]units.Watt
	prev := units.Watt(0)
	for i := range samples {
		samples[i] = in.ObserveSample(i, units.Watt(float64(i)+1), prev)
		prev = samples[i]
	}
	return fmt.Sprint(dvfsErr, wins, beginErr, samples)
}

func TestInjectorDeterministicPerKeyAndAttempt(t *testing.T) {
	p := Plan{Seed: 11, MeterDropout: 0.2, MeterSpike: 0.3, MeterDisconnect: 0.1, DVFSFailure: 0.3, Throttle: 0.4}
	a := drain(p.ForSample(1234, 0))
	b := drain(p.ForSample(1234, 0))
	if a != b {
		t.Error("same (key, attempt) must deal identical faults")
	}
	// Across keys, attempts and plan seeds, the streams must decorrelate.
	// Any single pair may collide, so require at least one difference per
	// axis over a handful of draws.
	differs := func(mutate func(k int64) string) bool {
		for k := int64(0); k < 8; k++ {
			if mutate(k) != drain(p.ForSample(k, 0)) {
				return true
			}
		}
		return false
	}
	if !differs(func(k int64) string { return drain(p.ForSample(k, 1)) }) {
		t.Error("attempt number never changed the fault stream")
	}
	q := p
	q.Seed = 12
	if !differs(func(k int64) string { return drain(q.ForSample(k, 0)) }) {
		t.Error("plan seed never changed the fault stream")
	}
}

func TestInjectorFaultRates(t *testing.T) {
	// Over many keys the injected rates must track the plan probabilities.
	p := Plan{Seed: 3, MeterDisconnect: 0.2, DVFSFailure: 0.1, Throttle: 0.3}
	const n = 4000
	var disconnects, dvfs, throttles int
	for k := int64(0); k < n; k++ {
		in := p.ForSample(k, 0)
		if in.DVFSTransition() != nil {
			dvfs++
		}
		if len(in.ThrottleWindows(1.0)) > 0 {
			throttles++
		}
		if in.BeginMeasure(1.0, 100) != nil {
			disconnects++
		}
	}
	check := func(name string, got int, want float64) {
		rate := float64(got) / n
		if rate < want-0.03 || rate > want+0.03 {
			t.Errorf("%s rate %.3f, want ~%.2f", name, rate, want)
		}
	}
	check("disconnect", disconnects, 0.2)
	check("dvfs", dvfs, 0.1)
	check("throttle", throttles, 0.3)
}

func TestSpikeWindowScalesSamples(t *testing.T) {
	p := Plan{Seed: 1, MeterSpike: 1, SpikeFactor: 6}
	in := p.ForSample(42, 0)
	const n = 128
	if err := in.BeginMeasure(1.0, n); err != nil {
		t.Fatal(err)
	}
	var spiked int
	for i := 0; i < n; i++ {
		v := in.ObserveSample(i, 1.0, 1.0)
		switch v {
		case 1.0:
		case 6.0:
			spiked++
		default:
			t.Fatalf("sample %d = %v, want 1 or 6", i, v)
		}
	}
	if spiked != n/8 {
		t.Errorf("spiked %d samples, want %d (n/8 burst)", spiked, n/8)
	}
}

func TestThrottleWindowFitsRun(t *testing.T) {
	p := Plan{Seed: 5, Throttle: 1}
	for k := int64(0); k < 50; k++ {
		wins := p.ForSample(k, 0).ThrottleWindows(2.0)
		if len(wins) != 1 {
			t.Fatalf("key %d: %d windows, want 1", k, len(wins))
		}
		w := wins[0]
		if w.Start < 0 || w.Start+w.Duration > 2.0+1e-12 {
			t.Errorf("key %d: window [%g, %g] outside run [0, 2]", k, w.Start, w.Start+w.Duration)
		}
		if w.Duration != 0.6*2.0 {
			t.Errorf("key %d: duration %g, want default fraction 1.2", k, w.Duration)
		}
		if w.Factor != 0.3 {
			t.Errorf("key %d: factor %g, want default 0.3", k, w.Factor)
		}
	}
}

func TestTransientMarking(t *testing.T) {
	base := errors.New("boom")
	err := Transient(base)
	if !IsTransient(err) {
		t.Error("Transient error not detected")
	}
	if !errors.Is(err, base) {
		t.Error("Transient must preserve the cause chain")
	}
	if IsTransient(base) {
		t.Error("unmarked error reported transient")
	}
	if IsTransient(nil) || Transient(nil) != nil {
		t.Error("nil handling broken")
	}
	wrapped := fmt.Errorf("ctx: %w", Transient(base))
	if !IsTransient(wrapped) {
		t.Error("transience lost through wrapping")
	}
}

func TestRetryAfterExtraction(t *testing.T) {
	err := fmt.Errorf("attempt: %w", Transient(&DVFSError{RetryAfter: 5 * time.Millisecond}))
	d, ok := RetryAfter(err)
	if !ok || d != 5*time.Millisecond {
		t.Errorf("RetryAfter = %v, %v; want 5ms, true", d, ok)
	}
	if _, ok := RetryAfter(errors.New("other")); ok {
		t.Error("RetryAfter invented a settle latency")
	}
}

func TestDoRetriesTransientOnly(t *testing.T) {
	r := Retry{Sleep: func(time.Duration) {}}
	ctx := context.Background()

	// Success on first try.
	n, err := Do(ctx, r, func(int) error { return nil })
	if n != 1 || err != nil {
		t.Errorf("clean run: %d attempts, %v", n, err)
	}

	// Transient failures retry up to the default 3 attempts.
	var seen []int
	n, err = Do(ctx, r, func(a int) error { seen = append(seen, a); return Transient(errors.New("flaky")) })
	if n != 3 || err == nil {
		t.Errorf("transient run: %d attempts, err %v; want 3 attempts and an error", n, err)
	}
	if fmt.Sprint(seen) != "[0 1 2]" {
		t.Errorf("attempt numbers %v, want [0 1 2]", seen)
	}

	// Recovery mid-way stops retrying.
	n, err = Do(ctx, r, func(a int) error {
		if a < 1 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if n != 2 || err != nil {
		t.Errorf("recovering run: %d attempts, %v; want 2, nil", n, err)
	}

	// Permanent errors never retry.
	perm := errors.New("bad config")
	n, err = Do(ctx, r, func(int) error { return perm })
	if n != 1 || !errors.Is(err, perm) {
		t.Errorf("permanent run: %d attempts, %v; want 1, the error", n, err)
	}
}

func TestDoBackoffHonorsRetryAfter(t *testing.T) {
	var delays []time.Duration
	r := Retry{MaxAttempts: 4, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		Sleep: func(d time.Duration) { delays = append(delays, d) }}
	_, err := Do(context.Background(), r, func(int) error {
		return Transient(&DVFSError{RetryAfter: 3 * time.Millisecond})
	})
	if err == nil {
		t.Fatal("expected final error")
	}
	// Exponential floor 1, 2, 4 ms, but the settle latency lifts the
	// first two delays to 3 ms.
	want := []time.Duration{3 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	if fmt.Sprint(delays) != fmt.Sprint(want) {
		t.Errorf("delays %v, want %v", delays, want)
	}
}

func TestDoStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	n, err := Do(ctx, Retry{MaxAttempts: 10}, func(int) error {
		calls++
		cancel()
		return Transient(errors.New("flaky"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n != 1 || calls != 1 {
		t.Errorf("made %d attempts after cancellation, want 1", calls)
	}
}
