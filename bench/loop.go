package bench

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// numClients is the closed loop's client count: energyd's callers block
// on each answer (an autotuning runtime picks a setting, then launches
// its kernel), and the benchmark host has two cores.
const numClients = 2

// phase is one measured stretch of work.
type phase struct {
	ops    int
	failed int
	lat    Hist // per-operation latency
	wall   time.Duration
	allocs uint64    // heap allocations during the phase
	lives  []float64 // live heap in MB at each GC during the phase
}

// closedLoop runs clients that each take the next shared index, call op
// and wait for it, until d has passed. op returns the operation's own
// latency (excluding any output check) and whether it succeeded.
func closedLoop(ctx context.Context, clients int, d time.Duration, op func(i int) (time.Duration, bool)) *phase {
	deadline := now().Add(d)
	return runClients(ctx, clients, func(int) bool { return now().Before(deadline) }, op)
}

// closedLoopN is closedLoop over the indices 0..n-1, each issued once.
func closedLoopN(ctx context.Context, clients, n int, op func(i int) (time.Duration, bool)) *phase {
	return runClients(ctx, clients, func(i int) bool { return i < n }, op)
}

func runClients(ctx context.Context, clients int, more func(i int) bool, op func(i int) (time.Duration, bool)) *phase {
	var (
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
	)
	lats := make([]Hist, clients)
	heap := startHeapSampler()
	m0 := mallocs()
	start := now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if ctx.Err() != nil || !more(i) {
					return
				}
				d, ok := op(i)
				lats[c].Add(d)
				if !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	ph := &phase{wall: now().Sub(start), allocs: mallocs() - m0, lives: heap.Stop(), failed: int(failed.Load())}
	ph.lat.Merge(lats...)
	ph.ops = ph.lat.Count()
	return ph
}
