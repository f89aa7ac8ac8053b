// Package par is the repository's one worker pool: it runs independent,
// indexed tasks on a bounded set of goroutines so that the outcome —
// results and error alike — does not depend on scheduling.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs task(i) for every i in [0, n) on up to workers goroutines;
// workers <= 0 selects GOMAXPROCS, and workers <= 1 runs a plain loop on
// the caller's goroutine. Each task must write only its own pre-indexed
// result slot, which makes the results identical at any worker count.
//
// Workers claim indices in increasing order and stop claiming once a
// task has failed or ctx is done. Every index below a failing one was
// claimed first and so always runs, which makes the returned error the
// failure with the lowest index — the one a serial loop would return —
// however the tasks interleave. If no task failed, For returns
// ctx.Err(). Every started task has returned before For does.
func For(ctx context.Context, workers, n int, task func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	// All shared state lives in one allocation; the pool sits on
	// allocation-gated paths (core's cross-validation benchmark).
	p := &pool{n: n, task: task}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work(ctx)
	}
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return ctx.Err()
}

type pool struct {
	n      int
	task   func(i int) error
	next   atomic.Int64 // next unclaimed index
	failed atomic.Bool  // some task has failed; stop claiming
	wg     sync.WaitGroup
	mu     sync.Mutex
	errAt  int   // index of err; guarded by mu
	err    error // lowest-index failure so far; guarded by mu
}

func (p *pool) work(ctx context.Context) {
	defer p.wg.Done()
	for {
		if p.failed.Load() || ctx.Err() != nil {
			return
		}
		i := int(p.next.Add(1) - 1)
		if i >= p.n {
			return
		}
		if err := p.task(i); err != nil {
			p.fail(i, err)
		}
	}
}

// fail records task i's error if it is the lowest-index failure so far.
func (p *pool) fail(i int, err error) {
	p.failed.Store(true)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil || i < p.errAt {
		p.errAt, p.err = i, err
	}
}
