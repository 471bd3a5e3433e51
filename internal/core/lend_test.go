package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// scribbler wraps a host's endpoint and overwrites every payload it lends
// the host as soon as the handler returns, as the transport's next delivery
// would. It reports each overwritten payload on done, so a test over TCP
// knows when a read loop is done with a frame.
type scribbler struct {
	transport.Endpoint
	// done's buffer holds every payload one test sends a host (four), so a
	// simulated handler, which runs on the test's goroutine, never blocks.
	done chan struct{}
}

func (s *scribbler) SetHandler(h transport.Handler) {
	s.Endpoint.SetHandler(func(from string, payload []byte) {
		h(from, payload)
		for i := range payload {
			payload[i] = 0xA5
		}
		s.done <- struct{}{}
	})
}

// lendRig is two kernels whose endpoints scribble every lent payload.
type lendRig struct {
	server, client *Host
	srv, cli       *scribbler
	id             *security.Identity
	// run delivers what is in flight; nil where delivery runs by itself.
	run func()
}

// settle returns once server and client have each handled, and scribbled,
// one more payload.
func (rig *lendRig) settle(t *testing.T) {
	t.Helper()
	if rig.run != nil {
		rig.run()
	}
	for _, s := range []*scribbler{rig.srv, rig.cli} {
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			t.Fatal("a host never handled the payload sent to it")
		}
	}
}

// scribbleConfig wraps c's endpoint in a scribbler, which it stores in *s,
// and lets the host serve publishes.
func scribbleConfig(s **scribbler) func(*Config) {
	return func(c *Config) {
		*s = &scribbler{Endpoint: c.Endpoint, done: make(chan struct{}, 4)}
		c.Endpoint = *s
		c.ServePublish = true
	}
}

// TestArrivalsOwnTheirBytes checks every arrival that decodes a unit from
// a lent payload, over the lossless simulator: see checkArrivalsOwnBytes.
func TestArrivalsOwnTheirBytes(t *testing.T) {
	w := newWorld(t)
	rig := &lendRig{id: w.id, run: func() { w.sim.RunFor(time.Second) }}
	rig.server = w.addHost(t, "server", scribbleConfig(&rig.srv))
	rig.client = w.addHost(t, "client", scribbleConfig(&rig.cli))
	checkArrivalsOwnBytes(t, rig)
}

// TestTCPArrivalsOwnTheirBytes is TestArrivalsOwnTheirBytes over loopback
// TCP, where the payload is the read loop's frame buffer. Under -race a
// kernel that keeps a lent unit past its handler is also a data race
// between the read loop's next frame and the test's check.
func TestTCPArrivalsOwnTheirBytes(t *testing.T) {
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	rig := &lendRig{id: id}
	rig.server = newTCPHost(t, trust, scribbleConfig(&rig.srv))
	rig.client = newTCPHost(t, trust, scribbleConfig(&rig.cli))
	checkArrivalsOwnBytes(t, rig)
}

// checkArrivalsOwnBytes drives the three arrivals that decode a unit from a
// lent payload — an eval request, a fetch reply and a publish — and checks,
// after each payload has been scribbled, that nothing the kernel handed out
// or kept changed with it: the eval's reply stack, the unit the Fetch
// callback got, and every unit either registry stores. An eval keeps
// nothing, so a kernel that stored its request unit fails the last check.
func checkArrivalsOwnBytes(t *testing.T, rig *lendRig) {
	server, client := rig.server, rig.client
	unit := func(name string, kind lmu.Kind) *lmu.Unit {
		u := &lmu.Unit{
			Manifest: lmu.Manifest{Name: name, Version: "1.0", Kind: kind, Publisher: rig.id.Name},
			Code:     vm.MustAssemble(blobSumSrc).Encode(),
			Data:     map[string][]byte{"payload": {1, 2, 3, 4, 5}},
		}
		rig.id.Sign(u)
		return u
	}
	job := unit("job/sum", lmu.KindRequest)
	codec := unit("codec/sum", lmu.KindComponent)
	upload := unit("codec/upload", lmu.KindComponent)
	want := map[string][]byte{}
	for _, u := range []*lmu.Unit{job, codec, upload} {
		want[u.Manifest.Name] = u.Pack()
	}
	wantStack := []int64{1, 15}

	// Remote Evaluation, twice: the second run takes the program from the
	// cache the first filled from a payload scribbled since.
	var stacks [][]int64
	for i := range 2 {
		errs := make(chan error, 1)
		client.Eval(server.Addr(), job, "main", nil, func(stack []int64, err error) {
			stacks = append(stacks, stack)
			errs <- err
		})
		rig.settle(t)
		if err := <-errs; err != nil {
			t.Fatalf("Eval %d: %v", i, err)
		}
	}

	// Code On Demand: the fetched unit is the one the client stores.
	if err := server.Publish(codec); err != nil {
		t.Fatal(err)
	}
	var fetched *lmu.Unit
	errs := make(chan error, 1)
	client.Fetch(server.Addr(), codec.Manifest.Name, "", func(u *lmu.Unit, err error) {
		fetched = u
		errs <- err
	})
	rig.settle(t)
	if err := <-errs; err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if stored, _ := client.Registry().Get(codec.Manifest.Name); stored != fetched {
		t.Error("the client stores another unit than the one Fetch handed out")
	}

	// A publish pushed to the server.
	client.PublishTo(server.Addr(), upload, func(err error) { errs <- err })
	rig.settle(t)
	if err := <-errs; err != nil {
		t.Fatalf("PublishTo: %v", err)
	}

	for i, stack := range stacks {
		if !slices.Equal(stack, wantStack) {
			t.Errorf("eval %d's reply stack = %v after its payload was reused, want %v", i, stack, wantStack)
		}
	}
	if got := fetched.Pack(); !bytes.Equal(got, want[codec.Manifest.Name]) {
		t.Error("the fetched unit changed when its payload was reused")
	}
	checkStored(t, "server", server, want, codec.Manifest.Name, upload.Manifest.Name)
	checkStored(t, "client", client, want, codec.Manifest.Name)
	if stack, err := client.RunComponent(codec.Manifest.Name, "main"); err != nil || !slices.Equal(stack, wantStack) {
		t.Errorf("running the fetched unit = %v, %v; want %v", stack, err, wantStack)
	}
}

// checkStored checks that h stores exactly the named units, each packing
// to the bytes it was sent as.
func checkStored(t *testing.T, host string, h *Host, want map[string][]byte, names ...string) {
	t.Helper()
	var stored []string
	for _, m := range h.Registry().List() {
		stored = append(stored, m.Name)
		u, _ := h.Registry().Get(m.Name)
		if !bytes.Equal(u.Pack(), want[m.Name]) {
			t.Errorf("the %s's stored %s changed when its payload was reused", host, m.Name)
		}
	}
	slices.Sort(names)
	if !slices.Equal(stored, names) {
		t.Errorf("the %s stores %v, want %v", host, stored, names)
	}
}
