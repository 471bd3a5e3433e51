package update

import (
	"slices"
	"sort"
	"testing"
	"time"

	"logmob/internal/app"
	"logmob/internal/core"
	"logmob/internal/discovery"
	"logmob/internal/netsim"
	"logmob/internal/security"
	"logmob/internal/transport"
)

// rig wires a repo host and a device host with beacons on a shared ad-hoc
// network.
type rig struct {
	sim        *netsim.Sim
	net        *netsim.Network
	id         *security.Identity
	repo, dev  *core.Host
	repoBeacon *discovery.Beacon
	devBeacon  *discovery.Beacon
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := netsim.NewSim(2)
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)

	mk := func(name string, x float64) (*core.Host, *discovery.Beacon) {
		class := netsim.AdHoc
		class.Loss = 0
		net.AddNode(name, netsim.Position{X: x}, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := core.NewHost(core.Config{Name: name, Endpoint: ep, Scheduler: sim, Trust: trust})
		if err != nil {
			t.Fatal(err)
		}
		b := discovery.NewBeacon(h.Mux().Channel(transport.ChanBeacon), sim, 2*time.Second)
		b.Start()
		return h, b
	}
	r := &rig{sim: sim, net: net, id: id}
	r.repo, r.repoBeacon = mk("repo", 0)
	r.dev, r.devBeacon = mk("dev", 10)
	return r
}

func TestAdvertiseComponents(t *testing.T) {
	r := newRig(t)
	if err := r.repo.Publish(app.BuildCodec(r.id, "ogg", "1.0", 256)); err != nil {
		t.Fatal(err)
	}
	if err := r.repo.Publish(app.BuildCodec(r.id, "mp3", "2.0", 256)); err != nil {
		t.Fatal(err)
	}
	n := AdvertiseComponents(r.repo, r.repoBeacon, time.Minute)
	if n != 2 {
		t.Fatalf("advertised %d, want 2", n)
	}
	r.sim.RunFor(5 * time.Second)
	var got []discovery.Ad
	r.devBeacon.Find(discovery.Query{Service: servicePrefix + app.CodecName("ogg")},
		func(ads []discovery.Ad) { got = ads })
	if len(got) != 1 || got[0].Attrs[versionAttr] != "1.0" {
		t.Fatalf("ads = %+v", got)
	}
}

func TestUpdaterFetchesNewerVersion(t *testing.T) {
	r := newRig(t)
	// Device holds v1.0 locally; repo publishes v1.1 and advertises it.
	v10 := app.BuildCodec(r.id, "ogg", "1.0", 256)
	if err := r.dev.Registry().Put(v10); err != nil {
		t.Fatal(err)
	}
	v11 := app.BuildCodec(r.id, "ogg", "1.1", 256)
	if err := r.repo.Publish(v11); err != nil {
		t.Fatal(err)
	}
	AdvertiseComponents(r.repo, r.repoBeacon, time.Minute)
	r.sim.RunFor(5 * time.Second) // beacon propagates

	var updates []string
	up := New(r.dev, r.devBeacon, r.sim, 10*time.Second)
	up.OnUpdate = func(name, provider, oldV, newV string) {
		updates = append(updates, name+" "+oldV+"->"+newV+" from "+provider)
	}
	up.Start()
	defer up.Stop()
	r.sim.RunFor(30 * time.Second)

	if len(updates) == 0 {
		t.Fatalf("no updates; stats = %+v", up.Stats())
	}
	got, ok := r.dev.Registry().GetAtLeast(app.CodecName("ogg"), "1.1")
	if !ok {
		t.Fatal("v1.1 not in device registry")
	}
	if got.Manifest.Version != "1.1" {
		t.Errorf("version = %s", got.Manifest.Version)
	}
	if s := up.Stats(); s.Updated == 0 || s.Checks == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestUpdaterIgnoresOlderAndEqual(t *testing.T) {
	r := newRig(t)
	v20 := app.BuildCodec(r.id, "ogg", "2.0", 256)
	if err := r.dev.Registry().Put(v20); err != nil {
		t.Fatal(err)
	}
	// Repo only has an older version.
	if err := r.repo.Publish(app.BuildCodec(r.id, "ogg", "1.5", 256)); err != nil {
		t.Fatal(err)
	}
	AdvertiseComponents(r.repo, r.repoBeacon, time.Minute)
	r.sim.RunFor(5 * time.Second)

	up := New(r.dev, r.devBeacon, r.sim, 10*time.Second)
	up.Start()
	defer up.Stop()
	r.sim.RunFor(30 * time.Second)
	if s := up.Stats(); s.Fetches != 0 {
		t.Errorf("fetched a non-newer version: %+v", s)
	}
}

func TestUpdaterVerifiesFetchedUpdate(t *testing.T) {
	r := newRig(t)
	if err := r.dev.Registry().Put(app.BuildCodec(r.id, "ogg", "1.0", 256)); err != nil {
		t.Fatal(err)
	}
	// An untrusted publisher offers a "newer" version.
	mallory := security.MustNewIdentity("mallory")
	bad := app.BuildCodec(mallory, "ogg", "9.9", 256)
	if err := r.repo.Registry().Put(bad); err != nil {
		t.Fatal(err)
	}
	if err := r.repo.Publish(bad); err != nil {
		t.Fatal(err)
	}
	AdvertiseComponents(r.repo, r.repoBeacon, time.Minute)
	r.sim.RunFor(5 * time.Second)

	up := New(r.dev, r.devBeacon, r.sim, 10*time.Second)
	up.Start()
	defer up.Stop()
	r.sim.RunFor(30 * time.Second)

	if _, ok := r.dev.Registry().GetAtLeast(app.CodecName("ogg"), "9.9"); ok {
		t.Fatal("untrusted update installed")
	}
	if s := up.Stats(); s.Failures == 0 {
		t.Errorf("verification failure not counted: %+v", s)
	}
}

func TestUpdaterStops(t *testing.T) {
	r := newRig(t)
	up := New(r.dev, r.devBeacon, r.sim, time.Second)
	up.Start()
	r.sim.RunFor(5 * time.Second)
	checks := up.Stats().Checks
	up.Stop()
	r.sim.RunFor(10 * time.Second)
	if up.Stats().Checks != checks {
		t.Error("updater kept checking after Stop")
	}
}

func TestUpdaterViaLookup(t *testing.T) {
	// The same updater works against the centralised discovery style.
	sim := netsim.NewSim(4)
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)

	mk := func(name string) *core.Host {
		net.AddNode(name, netsim.Position{}, netsim.LAN)
		ep, err := sn.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := core.NewHost(core.Config{Name: name, Endpoint: ep, Scheduler: sim, Trust: trust})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	lookupHost := mk("lookup")
	discovery.NewLookupServer(lookupHost.Mux().Channel(transport.ChanLookup), sim)
	repo := mk("repo")
	repoClient := discovery.NewLookupClient(repo.Mux().Channel(transport.ChanLookup), sim, "lookup")
	dev := mk("dev")
	devClient := discovery.NewLookupClient(dev.Mux().Channel(transport.ChanLookup), sim, "lookup")

	if err := dev.Registry().Put(app.BuildCodec(id, "ogg", "1.0", 256)); err != nil {
		t.Fatal(err)
	}
	if err := repo.Publish(app.BuildCodec(id, "ogg", "3.0", 256)); err != nil {
		t.Fatal(err)
	}
	// AdvertiseComponents speaks beacons; through a lookup service the
	// provider registers the same advertisement itself.
	if err := repoClient.Advertise(discovery.Ad{
		Service:  servicePrefix + app.CodecName("ogg"),
		Provider: repo.Addr(),
		Attrs:    map[string]string{versionAttr: "3.0"},
		TTL:      time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(5 * time.Second)

	up := New(dev, devClient, sim, 10*time.Second)
	up.Start()
	defer up.Stop()
	sim.RunFor(30 * time.Second)

	if _, ok := dev.Registry().GetAtLeast(app.CodecName("ogg"), "3.0"); !ok {
		t.Fatalf("update via lookup service failed; stats %+v", up.Stats())
	}
}

// recordingFinder answers nothing and remembers what it was asked, in order.
type recordingFinder struct{ asked []string }

func (f *recordingFinder) Find(q discovery.Query, cb func([]discovery.Ad)) {
	f.asked = append(f.asked, q.Service)
	cb(nil)
}

// TestCheckNowQueriesInNameOrder: every query is a message on the simulated
// network, so the order checkNow asks in must not be Go's map order. With
// eight components, twenty passes all coming out sorted by chance is a
// (1/8!)^20 event.
func TestCheckNowQueriesInNameOrder(t *testing.T) {
	r := newRig(t)
	var want []string
	for _, codec := range []string{"vorbis", "aac", "mp3", "flac", "opus", "ogg", "wav", "amr"} {
		if err := r.dev.Registry().Put(app.BuildCodec(r.id, codec, "1.0", 64)); err != nil {
			t.Fatal(err)
		}
		want = append(want, servicePrefix+app.CodecName(codec))
	}
	sort.Strings(want)
	finder := &recordingFinder{}
	up := New(r.dev, finder, r.sim, time.Minute)
	for pass := 0; pass < 20; pass++ {
		finder.asked = finder.asked[:0]
		up.checkNow()
		if !slices.Equal(finder.asked, want) {
			t.Fatalf("pass %d queried %v, want sorted %v", pass, finder.asked, want)
		}
	}
}
