// Package guarded is a lockguard-analyzer fixture. Each `// want` comment
// pins the diagnostic the line must earn; lines without one must stay
// silent.
package guarded

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Inc holds the lock across the write: clean.
func (c *counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// DeferredInc relies on a deferred unlock: the lock stays held to the end.
func (c *counter) DeferredInc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Racy reads without the lock.
func (c *counter) Racy() int {
	return c.n // want `read without holding c\.mu`
}

// RacyWrite writes without the lock.
func (c *counter) RacyWrite() {
	c.n = 0 // want `written without holding c\.mu`
}

// AfterUnlock touches the field once the lock is gone again.
func (c *counter) AfterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want `written without holding c\.mu`
}

// bumpLocked follows the caller-holds-the-lock naming convention: exempt.
func (c *counter) bumpLocked() { c.n++ }

// resetLocked calls another helper of the convention: its own caller holds
// the lock, so it is exempt too.
func (c *counter) resetLocked() {
	c.n = 0
	c.bumpLocked()
}

// Bump holds the lock across the helper call: clean.
func (c *counter) Bump() {
	c.mu.Lock()
	c.resetLocked()
	c.mu.Unlock()
}

// BumpRacy calls the helper without the lock, and after releasing it.
func (c *counter) BumpRacy() {
	c.bumpLocked() // want `c\.bumpLocked is called without holding c\.mu`
	c.mu.Lock()
	c.bumpLocked()
	c.mu.Unlock()
	c.bumpLocked() // want `c\.bumpLocked is called without holding c\.mu`
}

// BumpOther holds the wrong counter's lock.
func (c *counter) BumpOther(o *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o.bumpLocked() // want `o\.bumpLocked is called without holding o\.mu`
}

// Spawn shows why goroutine bodies start with no locks held: the spawned
// work runs after the enclosing function's critical section.
func (c *counter) Spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `written without holding c\.mu`
	}()
}

// Timer shows callback isolation both ways: the callback's own
// lock/unlock pair neither leaks into the enclosing function nor inherits
// from it.
func (c *counter) Timer(after func(func())) {
	c.mu.Lock()
	after(func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	})
	after(func() {
		c.n++ // want `written without holding c\.mu`
	})
	c.n++
	c.mu.Unlock()
}

type table struct {
	mu sync.RWMutex
	m  map[string]int // guarded by mu
}

// Get reads under the shared lock: clean.
func (t *table) Get(k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[k]
}

// Put writes under the exclusive lock: clean.
func (t *table) Put(k string, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[k] = v
}

// sizeLocked reads under whatever lock its caller holds.
func (t *table) sizeLocked() int { return len(t.m) }

// Size holds the shared lock across the helper call: clean.
func (t *table) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sizeLocked()
}

// Unguarded touches the map with no lock at all.
func (t *table) Unguarded(k string, v int) {
	t.m[k] = v // want `read without holding t\.mu`
}

type broken struct {
	n int // guarded by lock // want `names "lock", which is not a field of broken`
}

// Use keeps broken referenced so the fixture compiles without vet noise.
func Use(b *broken) int { return b.n }

type plain struct{ n int }

// stepLocked belongs to a type with no guarded field: no mutex to hold.
func (p *plain) stepLocked() { p.n++ }

// Step calls it with no lock: clean.
func (p *plain) Step() { p.stepLocked() }
