// Package registry implements the local component store of a logmob host.
//
// The paper's "Limited Resources and Dynamic Update" scenario drives the
// design: devices cannot preload code for every possible use, so they fetch
// components on demand, keep them while useful, and "when the code is no
// longer needed, the device can choose to delete it, conserving resources".
// The registry holds versioned Logical Mobility Units under a storage quota
// and evicts unpinned units under a pluggable policy when space runs out.
package registry

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"logmob/internal/lmu"
)

// Registry errors, matched with errors.Is.
var (
	// ErrQuotaExceeded reports that a unit cannot fit even after evicting
	// everything evictable.
	ErrQuotaExceeded = errors.New("registry: unit does not fit in quota")
	// ErrNotFound reports a missing unit; hosts wrap it when asked to run a
	// component they do not store.
	ErrNotFound = errors.New("registry: unit not found")
)

// Entry is a stored unit plus its bookkeeping, exposed to eviction policies.
type Entry struct {
	Unit *lmu.Unit
	// Size is the unit's packed size, the quota currency.
	Size int64
	// Pinned entries are never evicted.
	Pinned bool
	// LastUsed is when the entry was last returned by a lookup.
	LastUsed time.Duration
	// Uses counts lookups that returned this entry.
	Uses int64
}

// EvictionPolicy chooses which unpinned entry to evict when space is needed.
type EvictionPolicy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Victim picks one of candidates to evict. candidates is non-empty and
	// contains only unpinned entries.
	Victim(candidates []*Entry) *Entry
}

// LRU evicts the least recently used entry.
type LRU struct{}

// Name implements EvictionPolicy.
func (LRU) Name() string { return "lru" }

// Victim implements EvictionPolicy.
func (LRU) Victim(candidates []*Entry) *Entry {
	victim := candidates[0]
	for _, e := range candidates[1:] {
		if e.LastUsed < victim.LastUsed {
			victim = e
		}
	}
	return victim
}

// LFU evicts the least frequently used entry, breaking ties by recency.
type LFU struct{}

// Name implements EvictionPolicy.
func (LFU) Name() string { return "lfu" }

// Victim implements EvictionPolicy.
func (LFU) Victim(candidates []*Entry) *Entry {
	victim := candidates[0]
	for _, e := range candidates[1:] {
		if e.Uses < victim.Uses || (e.Uses == victim.Uses && e.LastUsed < victim.LastUsed) {
			victim = e
		}
	}
	return victim
}

// SizeGreedy evicts the largest entry, freeing the most space per eviction.
type SizeGreedy struct{}

// Name implements EvictionPolicy.
func (SizeGreedy) Name() string { return "size-greedy" }

// Victim implements EvictionPolicy.
func (SizeGreedy) Victim(candidates []*Entry) *Entry {
	victim := candidates[0]
	for _, e := range candidates[1:] {
		if e.Size > victim.Size {
			victim = e
		}
	}
	return victim
}

// Registry is a quota-bounded store of versioned units. Safe for concurrent
// use.
type Registry struct {
	mu        sync.Mutex
	quota     int64
	used      int64 // guarded by mu
	evictions int64 // guarded by mu
	policy    EvictionPolicy
	now       func() time.Duration
	entries   map[string][]*Entry // name -> entries, any version order; guarded by mu
}

// Option configures a Registry.
type Option func(*Registry)

// WithClock sets the time source used for recency bookkeeping; the
// middleware passes its scheduler clock so simulated time drives eviction.
func WithClock(now func() time.Duration) Option {
	return func(r *Registry) { r.now = now }
}

// WithPolicy sets the eviction policy. Default is LRU.
func WithPolicy(p EvictionPolicy) Option {
	return func(r *Registry) { r.policy = p }
}

// New returns a registry with the given storage quota in bytes. A quota of 0
// means unlimited.
func New(quota int64, opts ...Option) *Registry {
	r := &Registry{
		quota:   quota,
		policy:  LRU{},
		entries: make(map[string][]*Entry),
	}
	var fallback time.Duration
	r.now = func() time.Duration { fallback += time.Nanosecond; return fallback }
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Used returns the bytes currently stored.
func (r *Registry) Used() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// Evictions returns how many entries the quota has evicted so far.
func (r *Registry) Evictions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// Put stores a unit, evicting unpinned entries as needed. A unit with the
// name and version of a stored entry replaces that entry in place, keeping
// its pin and recency; the entry's bytes count as freed, and it is never
// evicted to make room for its own replacement. Put fails with
// ErrQuotaExceeded, leaving any replaced entry as it was, if the unit cannot
// fit.
//
// Put adopts u: the registry keeps the pointer it is given, not a copy, and
// Get hands that same pointer to every caller. A unit given to the registry
// or returned by it is read-only; a caller that goes on to change a unit it
// stored clones it first. A Put that fails adopts nothing.
func (r *Registry) Put(u *lmu.Unit) error {
	size := int64(u.Size())
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.quota > 0 && size > r.quota {
		return fmt.Errorf("%w: %s is %d bytes, quota %d", ErrQuotaExceeded, u.Manifest.Name, size, r.quota)
	}
	name := u.Manifest.Name
	var old *Entry
	for _, e := range r.entries[name] {
		if e.Unit.Manifest.Version == u.Manifest.Version {
			old = e
			break
		}
	}
	var freed int64
	if old != nil {
		freed = old.Size
	}
	if err := r.makeRoomLocked(size-freed, old); err != nil {
		return fmt.Errorf("%w: %s needs %d bytes", err, u.Manifest.Name, size)
	}
	r.used += size - freed
	if old != nil {
		old.Unit = u
		old.Size = size
		return nil
	}
	e := &Entry{Unit: u, Size: size, LastUsed: r.now()}
	r.entries[name] = append(r.entries[name], e)
	return nil
}

// makeRoomLocked evicts entries other than keep until size more bytes fit.
// Caller holds the lock.
func (r *Registry) makeRoomLocked(size int64, keep *Entry) error {
	if r.quota <= 0 {
		return nil
	}
	for r.used+size > r.quota {
		candidates := r.evictableLocked(keep)
		if len(candidates) == 0 {
			return ErrQuotaExceeded
		}
		victim := r.policy.Victim(candidates)
		r.removeEntryLocked(victim)
		r.evictions++
	}
	return nil
}

// evictableLocked returns unpinned entries other than keep in deterministic
// (name, version) order. Caller holds the lock.
func (r *Registry) evictableLocked(keep *Entry) []*Entry {
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	slices.Sort(names)
	var out []*Entry
	for _, name := range names {
		for _, e := range r.entries[name] {
			if !e.Pinned && e != keep {
				out = append(out, e)
			}
		}
	}
	return out
}

// removeEntryLocked unlinks e. Caller holds the lock.
func (r *Registry) removeEntryLocked(victim *Entry) {
	name := victim.Unit.Manifest.Name
	list := r.entries[name]
	for i, e := range list {
		if e == victim {
			r.entries[name] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(r.entries[name]) == 0 {
		delete(r.entries, name)
	}
	r.used -= victim.Size
}

// Get returns the newest stored version of name, refreshing its recency.
func (r *Registry) Get(name string) (*lmu.Unit, bool) {
	return r.GetAtLeast(name, "")
}

// GetAtLeast returns the newest stored version of name that is >= minVersion
// ("" accepts any). A nil registry is an empty store: a host makes its
// registry only when it first stores a unit.
func (r *Registry) GetAtLeast(name, minVersion string) (*lmu.Unit, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.bestLocked(name, minVersion)
	if e == nil {
		return nil, false
	}
	e.LastUsed = r.now()
	e.Uses++
	return e.Unit, true
}

// bestLocked returns the newest entry of name satisfying minVersion. Caller holds
// the lock.
func (r *Registry) bestLocked(name, minVersion string) *Entry {
	var found *Entry
	for _, e := range r.entries[name] {
		if minVersion != "" && lmu.CompareVersions(e.Unit.Manifest.Version, minVersion) < 0 {
			continue
		}
		if found == nil || lmu.CompareVersions(e.Unit.Manifest.Version, found.Unit.Manifest.Version) > 0 {
			found = e
		}
	}
	return found
}

// Has reports whether any version of name is stored, without touching
// recency.
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries[name]) > 0
}

// Remove deletes a specific version. It reports whether it was present.
func (r *Registry) Remove(name, version string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries[name] {
		if e.Unit.Manifest.Version == version {
			r.removeEntryLocked(e)
			return true
		}
	}
	return false
}

// Pin marks a version unevictable (or evictable again). It reports whether
// the version was present.
func (r *Registry) Pin(name, version string, pinned bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries[name] {
		if e.Unit.Manifest.Version == version {
			e.Pinned = pinned
			return true
		}
	}
	return false
}

// List returns the manifests of all stored units in deterministic order.
func (r *Registry) List() []lmu.Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	slices.Sort(names)
	var out []lmu.Manifest
	for _, name := range names {
		for _, e := range r.entries[name] {
			out = append(out, e.Unit.Manifest)
		}
	}
	return out
}
