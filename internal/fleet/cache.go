package fleet

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrFlightPanic is the error waiters of a single-flight computation
// receive when the caller that owned it panicked. The panic itself
// propagates up the owner's stack; the flight is unregistered either
// way, so the key is immediately retryable instead of permanently
// poisoned.
var ErrFlightPanic = errors.New("fleet: in-flight computation panicked")

// ErrShared wraps the error a waiter received from another caller's
// flight. The waiter ran nothing itself, so callers feeding failure
// signals to a circuit breaker should treat ErrShared as "not my
// outcome" — the owner already reported the same failure once.
var ErrShared = errors.New("fleet: shared in-flight computation failed")

// ErrWaiterAbandoned wraps the context error of a waiter whose ctx
// ended while it was joined to another caller's flight. The waiter was
// never served: it got no value and learned nothing about the
// computation, which keeps running for its owner.
var ErrWaiterAbandoned = errors.New("fleet: waiter abandoned in-flight computation")

// Cache is a keyed LRU with single-flight semantics: concurrent Do
// calls for the same key run the expensive function once, with every
// waiter receiving the one result, and completed results are retained up
// to the capacity in least-recently-used order. Sweeps are deterministic
// in their key (workload identity plus the owning device's seed), so a
// cached answer is exactly the answer a fresh sweep would produce. Every
// fleet device owns one Cache, so evictions and breaker trips on one
// device never disturb another's working set.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recently used; guarded by mu
	items   map[string]*list.Element // key -> element whose Value is *cacheEntry; guarded by mu
	flights map[string]*flight       // guarded by mu

	// Close support: a removed device's cache settles everything and
	// refuses new work, so nothing keeps a departed node's sweeps alive.
	// closedCh is set once at construction and closed under mu; waiters
	// select on it without the lock.
	closed   bool  // guarded by mu
	closeErr error // guarded by mu
	closedCh chan struct{}
}

type cacheEntry struct {
	key string
	val any
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache builds a cache bounded at capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
		closedCh: make(chan struct{}),
	}
}

// Close shuts the cache down on behalf of a device leaving the fleet:
// the LRU is freed, new Do/Put calls fail fast with err, and every
// waiter currently joined to an in-flight computation is released with
// err instead of blocking on a flight whose owner may never report.
// Owners already inside fn run to completion (they hold real resources)
// but their results are discarded. Close is idempotent; the first
// error wins.
func (c *Cache) Close(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	close(c.closedCh)
}

// Do returns the cached value for key, or runs fn to compute it. hit
// reports whether the caller was actually served a value without
// running fn itself — from the LRU, or by joining an in-flight
// computation that completed successfully. A caller that got nothing
// (its own fn failed, the joined flight failed, or its ctx ended while
// waiting) always reports hit=false, so hit counts requests served, not
// requests that merely queued behind one.
//
// Successful results are cached; errors are returned to every waiter
// but never cached, so a later request retries. A waiter whose joined
// flight failed sees the owner's error wrapped in ErrShared; a waiter
// whose ctx ends first returns its ctx error wrapped in
// ErrWaiterAbandoned (the computation keeps running for its owner). If
// fn panics, the panic propagates to the owner, the flight is
// unregistered — the key is never poisoned — and waiters fail with
// ErrFlightPanic (wrapped in ErrShared).
//
//energylint:hotpath
func (c *Cache) Do(ctx context.Context, key string, fn func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		return nil, false, err
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				//energylint:allow hotalloc(joined-flight failure exit, not the steady-state hit path; %w preserves the errors.Is chain)
				return nil, false, fmt.Errorf("%w: %w", ErrShared, f.err)
			}
			return f.val, true, nil
		case <-c.closedCh:
			c.mu.Lock()
			err := c.closeErr
			c.mu.Unlock()
			return nil, false, err
		case <-ctx.Done():
			//energylint:allow hotalloc(abandoned-waiter exit, not the steady-state hit path; %w preserves the errors.Is chain)
			return nil, false, fmt.Errorf("%w: %w", ErrWaiterAbandoned, ctx.Err())
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	// The deferred cleanup runs on every exit from fn, including a
	// panic: the flight is always unregistered and done always closed,
	// so a panicking fn cannot leave waiters blocked forever on a
	// permanently poisoned key.
	panicked := true
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if panicked {
			f.val, f.err = nil, ErrFlightPanic
		} else if f.err == nil {
			c.insert(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	panicked = false
	return f.val, false, f.err
}

// Put stores a value computed outside Do — the fleet placement path
// shards many devices' sweeps onto one worker pool, and Node.Settle
// deposits each device's share here afterwards. Concurrent Put and Do for the same key
// are safe: sweeps are deterministic in the key, so whichever write
// lands last stores the same bytes the other computed.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	c.insert(key, val)
	c.mu.Unlock()
}

// insert stores a value, evicting the least recently used entry when the
// cache is full. Callers hold c.mu. Inserts after Close are dropped.
func (c *Cache) insert(key string, val any) {
	if c.closed {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Get returns the cached value for key without computing anything on a
// miss. A hit still refreshes the entry's LRU position. This is the
// sweep protocol's cache-first read (Node.Admit), which answers before
// the breaker is asked.
//
//energylint:hotpath
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
