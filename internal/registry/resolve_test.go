package registry_test

import (
	"errors"
	"testing"
	"time"

	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/registry"
	"logmob/internal/transport"
)

// These tests resolve a dependency closure held in a registry. The one
// dependency walker is core's EnsureWithDeps, so they drive it on a host whose
// registry is reg. The remote, "peer", publishes nothing: a dependency the
// registry lacks surfaces as the peer's not-found.

// dep builds a component depending on deps.
func dep(name, version string, deps ...lmu.Dep) *lmu.Unit {
	return &lmu.Unit{
		Manifest: lmu.Manifest{Name: name, Version: version, Kind: lmu.KindComponent, Deps: deps},
		Code:     make([]byte, 10),
	}
}

// resolve stores units in a fresh registry and runs EnsureWithDeps for name
// against it. It returns the number of fetches the peer served, the number of
// lookups that hit the registry and the callback's error. A hit is counted
// through the registry's clock, which a lookup reads only when it finds a
// unit, to refresh that unit's recency.
func resolve(t *testing.T, name string, units ...*lmu.Unit) (fetches, hits int, err error) {
	t.Helper()
	reg := registry.New(0, registry.WithClock(func() time.Duration { hits++; return 0 }))
	for _, u := range units {
		if err := reg.Put(u); err != nil {
			t.Fatal(err)
		}
	}
	hits = 0 // a new entry reads the clock too
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)
	hosts := make(map[string]*core.Host)
	for _, n := range []string{"device", "peer"} {
		class := netsim.WLAN
		class.Loss = 0
		net.AddNode(n, netsim.Position{}, class)
		ep, err := sn.Endpoint(n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Name: n, Endpoint: ep, Scheduler: sim}
		if n == "device" {
			cfg.Registry = reg
		} else {
			cfg.Audit = func(ev core.AuditEvent) {
				if ev.Kind == "fetch" {
					fetches++
				}
			}
		}
		if hosts[n], err = core.NewHost(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var gotErr error
	done := false
	hosts["device"].EnsureWithDeps("peer", name, "", func(u *lmu.Unit, err error) {
		if err == nil && u.Manifest.Name != name {
			t.Errorf("EnsureWithDeps returned %s, want %s", u.Manifest.Name, name)
		}
		gotErr, done = err, true
	})
	sim.RunFor(time.Minute)
	if !done {
		t.Fatal("EnsureWithDeps never called back")
	}
	return fetches, hits, gotErr
}

func TestResolveDependencyClosure(t *testing.T) {
	base := dep("base", "1.0")
	mid := dep("mid", "1.0", lmu.Dep{Name: "base", MinVersion: "1.0"})
	app := dep("app", "1.0", lmu.Dep{Name: "mid", MinVersion: "1.0"}, lmu.Dep{Name: "base", MinVersion: "1.0"})
	fetches, hits, err := resolve(t, "app", base, mid, app)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if fetches != 0 {
		t.Errorf("resolve fetched %d units for a closure the registry holds, want 0", fetches)
	}
	// app, mid and base each looked up once: base, reached through both mid
	// and app, is not walked twice.
	if hits != 3 {
		t.Errorf("registry hits = %d, want 3", hits)
	}
}

func TestResolveMissingDep(t *testing.T) {
	app := dep("app", "1.0", lmu.Dep{Name: "ghost", MinVersion: "2.0"})
	fetches, _, err := resolve(t, "app", app)
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("resolve = %v, want wrapped ErrNotFound", err)
	}
	if fetches != 1 {
		t.Errorf("resolve fetched %d times, want 1 for the missing dependency", fetches)
	}
}

func TestResolveCycleTerminates(t *testing.T) {
	a := dep("a", "1.0", lmu.Dep{Name: "b"})
	b := dep("b", "1.0", lmu.Dep{Name: "a"})
	fetches, hits, err := resolve(t, "a", a, b)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	// a, b, then a again as b's dependency; a's own dependency b is already
	// visited, so the walk stops there.
	if fetches != 0 || hits != 3 {
		t.Errorf("resolve of a<->b: %d fetches, %d hits; want 0 fetches, 3 hits", fetches, hits)
	}
}
