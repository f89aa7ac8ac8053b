// Package lockpkg exercises the lockguard analyzer: fields annotated
// "guarded by <mu>" must only be touched while that mutex is provably
// held, caller-holds helpers are summarized, and early-exit unlock
// paths must not poison the straight-line path.
package lockpkg

import "sync"

type table struct {
	mu   sync.Mutex
	rows map[string]int // guarded by mu
	hits int            // guarded by mu
	name string         // read-only after construction
}

func newTable(name string) *table {
	// Composite-literal keys are construction, not access.
	return &table{name: name, rows: map[string]int{}}
}

// get holds the lock across both accesses via the defer idiom.
func (t *table) get(k string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hits++
	return t.rows[k]
}

// Bad is exported and reads a guarded field without locking: callers
// outside the package cannot hold the unexported mutex, so there is no
// caller-holds contract to lean on.
func (t *table) Bad(k string) int {
	return t.rows[k] // want `t\.rows is guarded by "mu" but the mutex is not held`
}

// bump is an unexported caller-holds helper: its own accesses are
// excused, and its call sites are checked instead.
func (t *table) bump(k string) {
	t.rows[k]++
	t.hits++
}

// doubleBump requires the lock transitively, through bump.
func (t *table) doubleBump(k string) {
	t.bump(k)
	t.bump(k)
}

func (t *table) goodCaller(k string) {
	t.mu.Lock()
	t.bump(k)
	t.doubleBump(k)
	t.mu.Unlock()
}

// BadCaller is exported, so it cannot push the requirement up to its
// own callers; the unheld call to the caller-holds helper is the error.
func (t *table) BadCaller(k string) {
	t.bump(k) // want `call to bump without holding t\.mu`
}

// conditional releases on the early-exit path only; the happy path must
// still count as locked after the branch merge.
func (t *table) conditional(k string, ok bool) int {
	t.mu.Lock()
	if !ok {
		t.mu.Unlock()
		return -1
	}
	v := t.rows[k]
	t.mu.Unlock()
	return v
}

// unlockedTail unlocks on the straight-line path and then keeps going:
// the access after the merge is unprotected.
func (t *table) unlockedTail(k string, ok bool) int {
	t.mu.Lock()
	if !ok {
		t.mu.Unlock()
		return -1
	}
	t.mu.Unlock()
	return t.rows[k] // want `t\.rows is guarded by "mu" but the mutex is not held`
}

// leakyWrite spawns a goroutine from inside the critical section; the
// goroutine runs concurrently and holds nothing.
func (t *table) leakyWrite(k string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	go func() {
		t.rows[k] = 1 // want `t\.rows is guarded by "mu" but the mutex is not held`
	}()
}

// selfLockingClosure is the single-flight cleanup shape: a deferred
// closure registered outside the critical section takes the lock itself.
func (t *table) selfLockingClosure(k string) func() {
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.rows[k] = 0
	}
}

// snapshot is a plain function; lockguard follows the parameter's lock
// the same way it follows a receiver's.
func snapshot(t *table) map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.rows))
	for k, v := range t.rows {
		out[k] = v
	}
	return out
}

func raw(t *table) int {
	return t.hits // want `t\.hits is guarded by "mu" but the mutex is not held`
}

// twoInstances: holding a's lock says nothing about b's.
func transfer(a, b *table, k string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rows[k]++
	b.rows[k]++ // want `b\.rows is guarded by "mu" but the mutex is not held`
}

// gauge uses an RWMutex; RLock counts as held for reads.
type gauge struct {
	mu  sync.RWMutex
	val int // guarded by mu
}

func (g *gauge) read() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.val
}

func (g *gauge) set(v int) {
	g.mu.Lock()
	g.val = v
	g.mu.Unlock()
}

// badWrite mutates the guarded field under only an RLock: a read hold
// cannot vouch for writes.
func (g *gauge) badWrite(v int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.val = v // want `g\.val is guarded by "mu" and written here, but only an RLock is held`
}

// badIncr: ++ is a write too.
func (g *gauge) badIncr() {
	g.mu.RLock()
	g.val++ // want `g\.val is guarded by "mu" and written here, but only an RLock is held`
	g.mu.RUnlock()
}

// setLocked is a caller-holds writer; its callers must hold the write
// lock, not just a read lock.
func (g *gauge) setLocked(v int) { g.val = v }

func (g *gauge) badDelegate(v int) {
	g.mu.RLock()
	g.setLocked(v) // want `call to setLocked holding only g\.mu\.RLock`
	g.mu.RUnlock()
}

func (g *gauge) goodDelegate(v int) {
	g.mu.Lock()
	g.setLocked(v)
	g.mu.Unlock()
}

// mixedMerge: a merge of a Lock branch and an RLock branch only proves
// a read hold, so the write after the merge is flagged.
func (g *gauge) mixedMerge(w bool, v int) {
	if w {
		g.mu.Lock()
	} else {
		g.mu.RLock()
	}
	g.val = v // want `g\.val is guarded by "mu" and written here, but only an RLock is held`
	if w {
		g.mu.Unlock()
	} else {
		g.mu.RUnlock()
	}
}

// broken carries an annotation that names no sibling mutex; the
// annotation itself is the diagnostic.
type broken struct {
	// guarded by missing
	rows map[string]int // want `guarded-by annotation names "missing", which is not a sibling`
}

// outer guards a pointer to another locked type. Reaching the inner
// mutex reads the guarded field, so o.mu must be held to lock it.
type outer struct {
	mu    sync.Mutex
	inner *table // guarded by mu
}

func (o *outer) Nested(k string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inner.mu.Lock()
	defer o.inner.mu.Unlock()
	o.inner.rows[k]++
}

func (o *outer) Unheld() {
	o.inner.mu.Lock()         // want `o\.inner is guarded by "mu" but the mutex is not held`
	defer o.inner.mu.Unlock() // want `o\.inner is guarded by "mu" but the mutex is not held`
}
