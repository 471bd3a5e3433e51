package core

import (
	"errors"
	"testing"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/registry"
)

// held reports which of the host's lazily made parts exist.
func held(h *Host) (reg, ctx, services, published, pending bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reg != nil, h.ctx != nil, h.services != nil, h.published != nil, h.reqs != nil
}

// TestFreshHostCarriesNothingUnused: a host is built without a context
// service, a registry or any of its three maps, and each is made by its
// first use, once. Reads that find no registry answer not-found and make
// none.
func TestFreshHostCarriesNothingUnused(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	device := w.addHost(t, "device", nil)
	for _, h := range []*Host{server, device} {
		if reg, ctx, services, published, pending := held(h); reg || ctx || services || published || pending {
			t.Fatalf("fresh %s holds registry=%v context=%v services=%v published=%v pending=%v, want none",
				h.Name(), reg, ctx, services, published, pending)
		}
	}

	// Reads on a host with no registry.
	if _, err := device.RunComponent("codec/ogg", "decode"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("RunComponent on an empty host: %v, want registry.ErrNotFound", err)
	}
	if _, _, err := device.RunComponentSteps("codec/ogg", "decode"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("RunComponentSteps on an empty host: %v, want registry.ErrNotFound", err)
	}
	var fetchErr error
	device.Ensure("server", "codec/ogg", "", func(_ *lmu.Unit, _ bool, err error) { fetchErr = err })
	w.sim.RunFor(time.Second)
	if !errors.Is(fetchErr, ErrNotFound) {
		t.Fatalf("Ensure of an unpublished unit: %v, want ErrNotFound", fetchErr)
	}
	if reg, ctx, _, published, pending := held(server); reg || ctx || published || pending {
		t.Fatalf("serving a fetch made server parts: registry=%v context=%v published=%v pending=%v",
			reg, ctx, published, pending)
	}
	if reg, ctx, services, published, pending := held(device); reg || ctx || services || published || !pending {
		t.Fatalf("a failed Ensure left device registry=%v context=%v services=%v published=%v pending=%v, want only pending",
			reg, ctx, services, published, pending)
	}

	// Context: made once, by its first caller.
	c := device.Context()
	if c == nil || device.Context() != c {
		t.Fatal("Context does not return one service")
	}

	// Publish makes the server's registry and published set.
	if err := server.Publish(w.signedProgram("codec/ogg", addSrc)); err != nil {
		t.Fatal(err)
	}
	if reg, ctx, services, published, _ := held(server); !reg || ctx || services || !published {
		t.Fatalf("after Publish the server holds registry=%v context=%v services=%v published=%v, want the registry and published set only",
			reg, ctx, services, published)
	}
	r := server.Registry()
	if !r.Has("codec/ogg") || server.Registry() != r {
		t.Fatal("Registry does not return the one store Publish made")
	}

	// A fetch makes the device's registry; the next uses it.
	if reg, _, _, _, _ := held(device); reg {
		t.Fatal("device has a registry before its first fetch")
	}
	device.Ensure("server", "codec/ogg", "", func(_ *lmu.Unit, _ bool, err error) { fetchErr = err })
	w.sim.RunFor(time.Second)
	if fetchErr != nil {
		t.Fatalf("Ensure: %v", fetchErr)
	}
	dr := device.Registry()
	if !dr.Has("codec/ogg") || device.Registry() != dr {
		t.Fatal("the fetch did not land in the registry Registry returns")
	}
	if stack, err := device.RunComponent("codec/ogg", "main", 2, 3); err != nil || len(stack) != 1 || stack[0] != 5 {
		t.Fatalf("RunComponent after the fetch = %v, %v", stack, err)
	}

	// RegisterService makes the services map.
	server.RegisterService("echo", func(_ string, args [][]byte) ([][]byte, error) { return args, nil })
	if _, _, services, _, _ := held(server); !services {
		t.Fatal("RegisterService made no services map")
	}
}

// TestConfiguredRegistryKept: a registry passed in the Config is the one the
// host stores into and serves from. It fails if NewHost or the first use
// replaces it.
func TestConfiguredRegistryKept(t *testing.T) {
	w := newWorld(t)
	mine := registry.New(1<<20, registry.WithClock(w.sim.Now))
	server := w.addHost(t, "server", func(c *Config) { c.Registry = mine })
	device := w.addHost(t, "device", func(c *Config) { c.Registry = registry.New(0) })
	if server.Registry() != mine {
		t.Fatal("Registry is not the configured one")
	}
	if err := server.Publish(w.signedProgram("codec/ogg", addSrc)); err != nil {
		t.Fatal(err)
	}
	if server.Registry() != mine || !mine.Has("codec/ogg") {
		t.Fatal("Publish stored somewhere other than the configured registry")
	}
	var got *lmu.Unit
	device.Fetch("server", "codec/ogg", "", func(u *lmu.Unit, err error) {
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		got = u
	})
	w.sim.RunFor(time.Second)
	if got == nil {
		t.Fatal("the fetch was not served")
	}
	// Taken out of the configured registry, the unit is no longer served,
	// though it is still published: the host serves from that registry.
	mine.Remove("codec/ogg", "1.0")
	var err error
	device.Fetch("server", "codec/ogg", "", func(_ *lmu.Unit, e error) { err = e })
	w.sim.RunFor(time.Second)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch after removing the unit from the configured registry: %v, want ErrNotFound", err)
	}
}
