package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logmob/internal/ctxsvc"
	"logmob/internal/lmu"
	"logmob/internal/registry"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// newTCPHost builds a kernel on a real loopback TCP endpoint. Its cleanup
// closes the host and then the endpoint, whose Close waits for the
// endpoint's read loops, so no listener or reader outlives the test.
func newTCPHost(t *testing.T, trust *security.TrustStore, mutate func(*Config)) *Host {
	t.Helper()
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	cfg := Config{
		Endpoint:  ep,
		Scheduler: transport.NewWallScheduler(),
		Trust:     trust,
		ServeEval: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(func() {
		h.Close()
		ep.Close()
	})
	return h
}

func TestTCPCallSyncContextCancel(t *testing.T) {
	trust := security.NewTrustStore()
	server := newTCPHost(t, trust, nil)
	client := newTCPHost(t, trust, func(c *Config) { c.RequestTimeout = time.Hour })
	// A service that never returns within the test's patience. It blocks
	// on release, which the cleanup registered here closes before the
	// hosts' cleanups (registered earlier) close the endpoints: a read loop
	// still inside the service would keep the server endpoint's Close
	// waiting.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	server.RegisterService("slow", func(string, [][]byte) ([][]byte, error) {
		<-release
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := client.CallSync(ctx, server.Addr(), "slow", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestTCPReplyRacesTimeout runs calls whose replies land around their
// deadline on a wall clock, so a reply (on a reader goroutine) and its
// request's timeout (on a timer goroutine) race. Each client calls in a loop,
// so the next call reuses the record, and re-arms the timer, of one whose
// reply may have beaten a firing already under way. Every callback must run
// exactly once, with the reply or ErrTimeout, and never time out early (a
// stale firing must not expire the record's next request). Under -race this
// also holds the hand-off of a record and its timer free of data races.
func TestTCPReplyRacesTimeout(t *testing.T) {
	trust := security.NewTrustStore()
	server := newTCPHost(t, trust, nil)
	const timeout = 3 * time.Millisecond
	server.RegisterService("late", func(_ string, args [][]byte) ([][]byte, error) {
		// Reply between half and one and a half deadlines after the call.
		time.Sleep(time.Duration(32+args[0][0]%64) * timeout / 64)
		return args, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Clients on connections of their own, so the server serves them in
	// parallel and none queues behind another's late reply.
	const clients, calls = 4, 50
	var fired [clients * calls]atomic.Int32
	var replied, timedOut atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		client := newTCPHost(t, trust, func(cfg *Config) { cfg.RequestTimeout = timeout })
		for { // dial first, so the first raced call does not pay for it
			if _, err := client.CallSync(ctx, server.Addr(), "late", [][]byte{{0}}); err == nil {
				break
			} else if ctx.Err() != nil {
				t.Fatalf("warm-up call: %v", err)
			}
			time.Sleep(2 * timeout) // let the late reply clear the server
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				n := c*calls + i
				first := make(chan error, 1)
				start := time.Now()
				client.Call(server.Addr(), "late", [][]byte{{byte(n * 37)}}, func(_ [][]byte, err error) {
					if fired[n].Add(1) == 1 {
						first <- err
					}
				})
				select {
				case err := <-first:
					switch {
					case err == nil:
						replied.Add(1)
					case errors.Is(err, ErrTimeout):
						timedOut.Add(1)
						if early := time.Since(start); early < timeout {
							t.Errorf("call %d timed out after %v, before its %v deadline", n, early, timeout)
						}
						time.Sleep(timeout) // let the late reply clear the server
					default:
						t.Errorf("call %d: %v", n, err)
					}
				case <-ctx.Done():
					t.Errorf("call %d's callback never ran", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(10 * timeout) // let stray replies and timer firings land
	for n := range fired {
		if got := fired[n].Load(); got != 1 {
			t.Errorf("call %d's callback ran %d times, want 1", n, got)
		}
	}
	t.Logf("%d replied, %d timed out", replied.Load(), timedOut.Load())
}

// TestTCPFirstUseIsRaceFree: a host's registry and context service are made
// by whichever goroutine uses them first. Over TCP each connection has its
// own read goroutine, so two peers can make that first use at once. Here,
// on a fresh host, two fetch replies store into the registry and then ask
// for the context service, while two service calls ask for both, all
// released together. The two calls meet at a rendezvous inside their
// handlers, so both first uses run with nothing ordering them, and each
// side records what it saw in a slot of its own, adding no lock. Under
// -race a plain nil-check-then-create is reported. Without -race, a second
// registry that replaced the first loses a fetched unit.
func TestTCPFirstUseIsRaceFree(t *testing.T) {
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	nop := func(string, [][]byte) ([][]byte, error) { return nil, nil }
	const n = 2
	var peers [n]*Host
	for i := range peers {
		p := newTCPHost(t, trust, nil)
		u := &lmu.Unit{
			Manifest: lmu.Manifest{Name: fmt.Sprintf("unit/%d", i), Version: "1.0", Kind: lmu.KindComponent, Publisher: id.Name},
			Code:     vm.MustAssemble(addSrc).Encode(),
		}
		id.Sign(u)
		if err := p.Publish(u); err != nil {
			t.Fatal(err)
		}
		p.RegisterService("nop", nop)
		peers[i] = p
	}
	type seen struct {
		reg *registry.Registry
		ctx *ctxsvc.Service
	}
	for round := 0; round < 10; round++ {
		h := newTCPHost(t, trust, nil)
		var byCall, byFetch [n]seen
		var inside sync.WaitGroup
		inside.Add(n)
		h.RegisterService("nop", nop)
		h.RegisterService("touch", func(_ string, args [][]byte) ([][]byte, error) {
			inside.Done()
			inside.Wait()
			byCall[args[0][0]] = seen{h.Registry(), h.Context()}
			return nil, nil
		})
		// Open every connection first, so no raced use waits on a dial.
		for _, p := range peers {
			if _, err := h.CallSync(ctx, p.Addr(), "nop", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := p.CallSync(ctx, h.Addr(), "nop", nil); err != nil {
				t.Fatal(err)
			}
		}
		if reg, c, _, _, _ := held(h); reg || c {
			t.Fatalf("round %d: registry or context made before the race", round)
		}
		start := make(chan struct{})
		errs := make(chan error, 2*n)
		for i, p := range peers {
			go func() {
				<-start
				h.Fetch(p.Addr(), fmt.Sprintf("unit/%d", i), "", func(_ *lmu.Unit, err error) {
					byFetch[i].ctx = h.Context()
					errs <- err
				})
			}()
			go func() {
				<-start
				_, err := p.CallSync(ctx, h.Addr(), "touch", [][]byte{{byte(i)}})
				errs <- err
			}()
		}
		close(start)
		for range 2 * n {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		reg, c := h.Registry(), h.Context()
		for i := range n {
			if !reg.Has(fmt.Sprintf("unit/%d", i)) {
				t.Fatalf("round %d: unit/%d was stored in a registry the host no longer holds", round, i)
			}
			if byCall[i] != (seen{reg, c}) || byFetch[i].ctx != c {
				t.Fatalf("round %d: peer %d saw a registry or context other than the host's", round, i)
			}
		}
		h.Close()
	}
}

// TestTCPAgentUnitIsRecycled runs arrivals over loopback through a runtime
// that finishes each one as it starts, handing its unit back to the host:
// the next arrival decodes into that same unit, on the read loop.
func TestTCPAgentUnitIsRecycled(t *testing.T) {
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	server := newTCPHost(t, trust, nil)
	client := newTCPHost(t, trust, nil)

	type arrival struct {
		u       *lmu.Unit
		payload string
	}
	arrivals := make(chan arrival, 1)
	server.SetAgentRuntime(startAll(func(u *lmu.Unit) {
		a := arrival{u, string(u.Data["payload"])}
		server.RecycleAgent(u) // the agent finished here
		arrivals <- a
	}))
	agent := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "agent/x", Version: "1", Kind: lmu.KindAgent, Publisher: id.Name},
		Code:     vm.MustAssemble(".entry main\nmain:\nhalt\n").Encode(),
		Data:     map[string][]byte{},
	}
	id.SignCode(agent)

	var first *lmu.Unit
	for i := 0; i < 20; i++ {
		agent.Data["payload"] = []byte(fmt.Sprintf("visit-%02d", i))
		acked := make(chan error, 1)
		client.SendAgent(server.Addr(), agent, func(err error) { acked <- err })
		if err := <-acked; err != nil {
			t.Fatalf("SendAgent %d: %v", i, err)
		}
		var a arrival
		select {
		case a = <-arrivals:
		case <-time.After(10 * time.Second):
			t.Fatalf("arrival %d never started", i)
		}
		if want := fmt.Sprintf("visit-%02d", i); a.payload != want {
			t.Errorf("arrival %d carried %q, want %q", i, a.payload, want)
		}
		if first == nil {
			first = a.u
		} else if a.u != first {
			t.Errorf("arrival %d decoded into a new unit, not the one the first arrival left", i)
		}
	}
}

// TestTCPAuditSinkIsRaceFree: over TCP each peer's connection has its own
// read goroutine, and the host calls its audit sink from whichever one
// serves the event. Two peers call, evaluate, fetch and send agents into one
// host at once. The sink appends to a plain slice and relies on the host's
// lock alone, so under -race a sink call made outside that lock is
// reported. Every served event is recorded exactly once, under its peer.
func TestTCPAuditSinkIsRaceFree(t *testing.T) {
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	var events []AuditEvent // written by the sink, under server.mu
	server := newTCPHost(t, trust, func(c *Config) {
		c.Audit = func(ev AuditEvent) { events = append(events, ev) }
	})
	server.RegisterService("echo", func(_ string, args [][]byte) ([][]byte, error) { return args, nil })
	server.SetAgentRuntime(startAll(server.RecycleAgent)) // each agent finishes as it starts
	unit := func(name string, kind lmu.Kind) *lmu.Unit {
		u := &lmu.Unit{
			Manifest: lmu.Manifest{Name: name, Version: "1.0", Kind: kind, Publisher: id.Name},
			Code:     vm.MustAssemble(addSrc).Encode(),
		}
		id.Sign(u)
		return u
	}
	if err := server.Publish(unit("tool/add", lmu.KindComponent)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const peers, rounds = 2, 25
	kinds := []string{"call", "eval", "fetch", "agent"}
	var clients [peers]*Host
	start := make(chan struct{})
	errs := make(chan error, peers)
	for i := range clients {
		c := newTCPHost(t, trust, nil)
		clients[i] = c
		job, agent := unit("job/add", lmu.KindRequest), unit("agent/x", lmu.KindAgent)
		go func() {
			<-start
			for range rounds {
				if _, err := c.CallSync(ctx, server.Addr(), "echo", nil); err != nil {
					errs <- err
					return
				}
				if _, err := c.EvalSync(ctx, server.Addr(), job, "main", []int64{1, 2}); err != nil {
					errs <- err
					return
				}
				if _, err := c.FetchSync(ctx, server.Addr(), "tool/add", ""); err != nil {
					errs <- err
					return
				}
				if _, err := await(ctx, func(done func(struct{}, error)) {
					c.SendAgent(server.Addr(), agent, func(err error) { done(struct{}{}, err) })
				}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	close(start)
	for range peers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	server.mu.Lock() // orders every sink call before the reads below
	got := make(map[string]int)
	for _, ev := range events {
		if !ev.OK {
			t.Errorf("event %+v failed", ev)
		}
		got[ev.Kind+" "+ev.Peer]++
	}
	n := len(events)
	server.mu.Unlock()
	for _, c := range clients {
		for _, kind := range kinds {
			if k := got[kind+" "+c.Addr()]; k != rounds {
				t.Errorf("%d %q events from %s, want %d", k, kind, c.Addr(), rounds)
			}
		}
	}
	if want := peers * rounds * len(kinds); n != want {
		t.Errorf("%d events recorded, want %d: %v", n, want, got)
	}
}

// TestTCPKernelAllParadigms runs one tape row of each paradigm over TCP:
// client/server, remote evaluation, code on demand and a mobile agent.
func TestTCPKernelAllParadigms(t *testing.T) {
	runTapeRows(t, "tcp", "call_echo", "eval_ok", "fetch_and_run", "agent_out_and_back")
}

// TestTCPArrivalsOwnTheirBytes runs the lending rows over TCP: every
// arrival that decodes a unit from a lent payload must keep nothing of it.
func TestTCPArrivalsOwnTheirBytes(t *testing.T) {
	runTapeRows(t, "tcp", "lend_eval", "lend_fetch", "lend_publish")
}

// TestTCPRefusalsShareTheirErrors has one peer refuse two hosts' calls
// with a few repeating reasons, so the two hosts' read loops resolve
// refusals, and fill the remoteErr memo, at once. The hosts share nothing
// else, so no lock of theirs orders the memo's accesses. Every error must
// read as the formatted one, match ErrRemote, and compare equal to every
// other error of its reason. Under -race this holds the memo free of data
// races.
func TestTCPRefusalsShareTheirErrors(t *testing.T) {
	trust := security.NewTrustStore()
	server := newTCPHost(t, trust, nil)
	reasons := []string{"tcp refusal: busy", "tcp refusal: quota", "tcp refusal: policy"}
	server.RegisterService("refuse", func(_ string, args [][]byte) ([][]byte, error) {
		return nil, errors.New(reasons[args[0][0]])
	})
	const perHost = 200
	type result struct {
		reason int
		err    error
	}
	results := make(chan result, 2*perHost)
	var wg sync.WaitGroup
	for range 2 {
		h := newTCPHost(t, trust, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perHost {
				r := i % len(reasons)
				h.Call(server.Addr(), "refuse", [][]byte{{byte(r)}}, func(_ [][]byte, err error) {
					results <- result{r, err}
				})
			}
		}()
	}
	wg.Wait()
	first := make([]error, len(reasons))
	for range 2 * perHost {
		res := <-results
		msg := reasons[res.reason]
		sameError(t, msg, res.err, fmt.Errorf("%w: %s", ErrRemote, msg))
		if first[res.reason] == nil {
			first[res.reason] = res.err
		} else if res.err != first[res.reason] {
			t.Fatalf("two refusals for %q compare unequal: %v and %v", msg, res.err, first[res.reason])
		}
	}
}
