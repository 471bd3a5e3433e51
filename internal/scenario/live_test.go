package scenario

import (
	"sync"
	"testing"
	"time"

	"logmob/internal/agent"
	"logmob/internal/app"
	"logmob/internal/cluster"
	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// liveNode is one daemon-shaped participant: a TCP endpoint, a kernel host
// configured the way cmd/logmobd serves (allow-unsigned, eval and publish
// on, sink service registered, agent platform), and a cluster membership.
type liveNode struct {
	ep       *transport.TCPEndpoint
	host     *core.Host
	platform *agent.Platform
	cluster  *cluster.Node
}

func (n *liveNode) stop() {
	n.cluster.Close()
	n.host.Close()
	n.ep.Close()
}

// startLiveNode boots a daemon on listen (use "127.0.0.1:0" for fresh
// ports), joining the cluster through seed. onDone, if set, observes agent
// completions on this node's platform.
func startLiveNode(t *testing.T, listen, seed string, onDone func(agent.Record)) *liveNode {
	t.Helper()
	ep, err := transport.ListenTCP(listen)
	if err != nil {
		t.Fatalf("ListenTCP(%s): %v", listen, err)
	}
	h, err := core.NewHost(core.Config{
		Endpoint:       ep,
		Scheduler:      transport.NewWallScheduler(),
		Policy:         security.Policy{AllowUnsigned: true},
		ServeEval:      true,
		ServePublish:   true,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	h.RegisterService(SinkServiceName, SinkService())
	p := agent.NewPlatform(h, agent.Env{OnDone: onDone})
	n := &liveNode{
		ep:       ep,
		host:     h,
		platform: p,
		cluster: cluster.Join(h.Mux().Channel(transport.ChanCluster), h.Scheduler(), cluster.Config{
			Seeds:      []string{seed},
			ProbeEvery: 40 * time.Millisecond,
			DeadAfter:  3,
			Retry:      transport.ReliableConfig{Budget: 2, Timeout: 60 * time.Millisecond},
		}),
	}
	t.Cleanup(n.stop)
	return n
}

func waitPeerCount(t *testing.T, n *cluster.Node, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(n.Peers()) != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: peers=%v want %d", what, n.Peers(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// liveAgentSource is the T1-style out-and-back agent: visit the single
// itinerary stop, then return to KeyDest and halt.
const liveAgentSource = `
.entry main
main:
	push 0
	host a_itin_select
	jz done
	host a_migrate
	pop
	host a_select_dest
	jz done
	host a_migrate
	pop
done:
	halt
`

var liveAgentProgram = vm.MustAssemble(liveAgentSource)

// TestLiveClusterReplay is the end-to-end acceptance test for real-wire
// cluster mode: three daemons bootstrap over loopback TCP through one seed,
// survive a daemon kill+restart (eviction then re-discovery), and a
// scenario workload replayed against the healed cluster reports delivered
// traffic for every mobile-code paradigm.
func TestLiveClusterReplay(t *testing.T) {
	a := startLiveNode(t, "127.0.0.1:0", "", nil)
	seed := a.ep.Addr()
	b := startLiveNode(t, "127.0.0.1:0", seed, nil)
	c := startLiveNode(t, "127.0.0.1:0", seed, nil)
	cAddr := c.ep.Addr()

	// The client is a cluster member too: it discovers the daemons through
	// the same bootstrap protocol the daemons use among themselves.
	var live *Live
	client := startLiveNode(t, "127.0.0.1:0", seed, func(rec agent.Record) {
		live.OnAgentDone(rec)
	})
	waitPeerCount(t, client.cluster, 3, "client to discover all daemons")
	waitPeerCount(t, a.cluster, 3, "seed to discover everyone")

	// Kill one daemon: everyone must evict it …
	c.stop()
	waitPeerCount(t, client.cluster, 2, "client to evict the killed daemon")
	waitPeerCount(t, a.cluster, 2, "seed to evict the killed daemon")

	// … and re-discover it when it restarts on the same address.
	c2 := startLiveNode(t, cAddr, seed, nil)
	waitPeerCount(t, c2.cluster, 3, "restarted daemon to rejoin")
	waitPeerCount(t, client.cluster, 3, "client to re-learn the restarted daemon")
	waitPeerCount(t, a.cluster, 3, "seed to re-learn the restarted daemon")

	// Replay a T1-style workload set against the healed cluster. Members
	// are the daemons only (the client does not drive itself).
	members := []string{}
	for _, p := range client.cluster.Peers() {
		members = append(members, p)
	}
	live = NewLive(client.host, members)
	live.Platform = client.platform
	live.Timeout = 5 * time.Second

	codec := func(w *World) *lmu.Unit { return app.BuildCodec(w.ID, "live", "1.0", 256) }
	res := live.Replay("live replay", []Workload{
		Calls{Service: "t1-req", ReqBytes: 200, ReplyBytes: 1000, Rounds: 5},
		EvalOnce{Unit: codec, Entry: "decode", Args: []int64{8}},
		FetchRun{Unit: codec, Entry: "decode", Runs: 2, Args: []int64{8}},
		SpawnAgent{Name: "roundtrip", Program: liveAgentProgram,
			Data: map[string][]byte{
				agent.KeyDest:      []byte(client.host.Name()),
				agent.KeyItinerary: agent.EncodeItinerary([]string{b.ep.Addr()}),
				"state":            make([]byte, 600),
			},
			Entry: "main"},
	})
	if res.Skipped != 0 {
		t.Errorf("skipped %d workloads, want 0", res.Skipped)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Errorf("%s (%s): %v", row.Workload, row.Paradigm, row.Err)
		}
		if row.Delivered == 0 {
			t.Errorf("%s (%s): delivered 0 of %d ops", row.Workload, row.Paradigm, row.Ops)
		}
	}
	if calls := res.Rows[0]; calls.Delivered != 5 {
		t.Errorf("calls delivered %d rounds, want 5", calls.Delivered)
	}
	if res.Delivered < 8 {
		t.Errorf("total delivered %d, want >= 8", res.Delivered)
	}
}

// serialScheduler runs every timer callback under mu, so a test that holds
// mu excludes itself from an agent a callback is resuming (a sleeping agent
// wakes on its activation's timer): agent.Platform is not safe for
// concurrent use.
type serialScheduler struct {
	transport.Scheduler
	mu *sync.Mutex
}

func (s serialScheduler) NewTimer(fn func()) transport.Timer {
	return s.Scheduler.NewTimer(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		fn()
	})
}

// TestLiveReplayAgentSkipsStaleRecord replays an agent that outlives its
// replay's timeout and then fails, and, once its record has arrived late, a
// second agent that completes at once. The second replay must report its own
// record, not the first agent's stale one.
func TestLiveReplayAgentSkipsStaleRecord(t *testing.T) {
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	var mu sync.Mutex
	h, err := core.NewHost(core.Config{
		Endpoint:  ep,
		Scheduler: serialScheduler{transport.NewWallScheduler(), &mu},
		Policy:    security.Policy{AllowUnsigned: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var live *Live
	late := make(chan struct{})
	p := agent.NewPlatform(h, agent.Env{OnDone: func(rec agent.Record) {
		live.OnAgentDone(rec)
		if rec.Status != agent.StatusCompleted {
			close(late)
		}
	}})
	live = NewLive(h, nil)
	live.Platform = p
	live.Timeout = 50 * time.Millisecond

	slowFail := vm.MustAssemble(`
.entry main
main:
	push 200
	host a_sleep
	pop
	halt
`)
	quick := vm.MustAssemble(`
.entry main
main:
	halt
`)
	mu.Lock()
	first := live.Replay("late", []Workload{SpawnAgent{Name: "late", Program: slowFail, Entry: "main"}})
	mu.Unlock()
	if err := first.Rows[0].Err; err == nil {
		t.Fatal("the slow agent's replay did not time out")
	}
	select {
	case <-late:
	case <-time.After(5 * time.Second):
		t.Fatal("the slow agent never finished")
	}
	mu.Lock() // the slow agent's callback has returned
	defer mu.Unlock()
	second := live.Replay("quick", []Workload{SpawnAgent{Name: "quick", Program: quick, Entry: "main"}})
	if row := second.Rows[0]; row.Err != nil || row.Delivered != 1 {
		t.Errorf("second replay: delivered %d, err %v; want its own completed record", row.Delivered, row.Err)
	}
}
