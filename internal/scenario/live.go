package scenario

import (
	"context"
	"errors"
	"fmt"
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/wire"
)

// Live replays scenario workloads against a real cluster instead of the
// simulator: the same Calls/EvalOnce/FetchRun/SpawnAgent values a Spec
// declares are driven over the wire with the kernel's blocking APIs, and the
// outcome is reported in the same metrics tables as simulated runs.
//
// The simulated workloads name hosts by population ("device", "server0");
// a live cluster has none of those, so targets are remapped: workloads are
// spread round-robin across Members, ignoring their Client/Server fields.
// Units minted by UnitFuncs come from a private mint world; their signatures
// are stripped, because live daemons do not trust the mint world's ephemeral
// identity.

// SinkServiceName is the well-known echo service every live daemon
// registers (see SinkService), the fixed landing pad for Calls workloads.
const SinkServiceName = "logmob.sink"

// maxSinkReply bounds the reply size a remote caller can request from the
// sink, so a stray frame cannot make a daemon allocate unboundedly.
const maxSinkReply = 1 << 22

// SinkService returns the echo service a live daemon registers under
// SinkServiceName: the first argument carries the requested reply size as a
// wire uint followed by request padding, and the reply is that many zero
// bytes. Encoding the reply size in the request is what lets one fixed
// server-side service reproduce any Calls workload's ReqBytes/ReplyBytes
// shape.
func SinkService() core.ServiceFunc {
	return func(_ string, args [][]byte) ([][]byte, error) {
		if len(args) == 0 {
			return nil, errors.New("sink: missing request")
		}
		r := wire.NewReader(args[0])
		n := r.Uint()
		if r.Err() != nil {
			return nil, fmt.Errorf("sink: malformed request: %w", r.Err())
		}
		if n > maxSinkReply {
			n = maxSinkReply
		}
		return [][]byte{make([]byte, n)}, nil
	}
}

// sinkRequest encodes one sink request asking for replyBytes back, padded
// to reqBytes so the request costs what the workload declares.
func sinkRequest(reqBytes, replyBytes int) []byte {
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutUint(uint64(replyBytes))
	if pad := reqBytes - len(b.Bytes()); pad > 0 {
		b.PutRaw(make([]byte, pad))
	}
	return append([]byte(nil), b.Bytes()...)
}

// Live drives workloads against a running cluster.
type Live struct {
	// Client is the local host the traffic originates from; it must be on
	// the same transport as the cluster members.
	Client *core.Host
	// Platform, if set, runs SpawnAgent workloads; wire its Env.OnDone to
	// OnAgentDone so Replay can observe round-trip completion.
	Platform *agent.Platform
	// Members are the remote daemon addresses (typically cluster.Peers()).
	Members []string
	// Timeout bounds each individual operation; 0 defaults to 10s.
	Timeout time.Duration

	agentDone chan agent.Record
	mint      *World
}

// NewLive returns a driver for the given client host and member addresses.
func NewLive(client *core.Host, members []string) *Live {
	return &Live{Client: client, Members: members, agentDone: make(chan agent.Record, 64)}
}

// OnAgentDone feeds agent completion back to a waiting Replay; pass it as
// the client platform's Env.OnDone.
func (l *Live) OnAgentDone(rec agent.Record) {
	if l.agentDone == nil {
		return
	}
	// The platform calls this from its own delivery path, which must never
	// block on Replay. A record nobody waits for (an agent that finished
	// after its Replay timed out, or one that arrived from elsewhere and
	// finished here) stays in the buffer until the next agent replay reads
	// past it; past 64 of those, records are dropped.
	rec.Unit = nil // lent for this call only
	select {
	case l.agentDone <- rec:
	default:
	}
}

func (l *Live) timeout() time.Duration {
	if l.Timeout > 0 {
		return l.Timeout
	}
	return 10 * time.Second
}

// mintWorld is the private world UnitFuncs are evaluated against. Nothing
// in it runs; it exists so the same UnitFunc closures a Spec uses can mint
// their units for live replay.
func (l *Live) mintWorld() *World {
	if l.mint == nil {
		l.mint = NewWorld(1)
	}
	return l.mint
}

func (l *Live) mintUnit(fn UnitFunc) *lmu.Unit {
	u := fn(l.mintWorld())
	u.Sig = nil
	return u
}

// LiveRow is one workload's live outcome.
type LiveRow struct {
	// Workload and Paradigm label the row; Target is the member driven.
	Workload, Paradigm, Target string
	// Ops counts operations attempted, Delivered the ones that succeeded.
	Ops, Delivered int64
	// MedianMs is the median per-operation latency in milliseconds.
	MedianMs float64
	// Err is the first error encountered, if any.
	Err error
}

// LiveResult is the outcome of one Replay.
type LiveResult struct {
	Rows  []LiveRow
	Table *metrics.Table
	// Delivered totals successful operations across all workloads.
	Delivered int64
	// Skipped counts workloads with no live mapping (Couriers, FetchWave,
	// bespoke Funcs), which only the simulator can run.
	Skipped int
}

// Replay drives each workload against the cluster in order and returns the
// per-workload outcome table. Workload kinds that only make sense under the
// simulator are counted as skipped — and so is a pointer to a replayable
// kind (&Calls{...}): pass Calls, EvalOnce, FetchRun and SpawnAgent by value,
// as every Spec in the repo does.
func (l *Live) Replay(title string, workloads []Workload) *LiveResult {
	res := &LiveResult{}
	for i, wl := range workloads {
		target := ""
		if len(l.Members) > 0 {
			target = l.Members[i%len(l.Members)]
		}
		var row LiveRow
		switch v := wl.(type) {
		case Calls:
			row = l.replayCalls(v, target)
		case EvalOnce:
			row = l.replayEval(v, target)
		case FetchRun:
			row = l.replayFetch(v, target)
		case SpawnAgent:
			row = l.replayAgent(v)
		default:
			res.Skipped++
			continue
		}
		res.Rows = append(res.Rows, row)
		res.Delivered += row.Delivered
	}
	t := metrics.NewTable(title, "workload", "paradigm", "target", "ops", "delivered", "median ms")
	for _, r := range res.Rows {
		t.AddRow(r.Workload, r.Paradigm, r.Target, r.Ops, r.Delivered, fmt.Sprintf("%.2f", r.MedianMs))
	}
	res.Table = t
	return res
}

// replayCalls maps a Calls workload onto the members' sink service: Rounds
// sequential request/reply exchanges with the declared byte shape.
func (l *Live) replayCalls(c Calls, target string) LiveRow {
	row := LiveRow{Workload: c.Service, Paradigm: "client-server", Target: target}
	if row.Workload == "" {
		row.Workload = "calls"
	}
	req := [][]byte{sinkRequest(c.ReqBytes, c.ReplyBytes)}
	var lat metrics.Series
	sched := l.Client.Scheduler()
	for i := int64(0); i < c.Rounds; i++ {
		row.Ops++
		ctx, cancel := context.WithTimeout(context.Background(), l.timeout())
		start := sched.Now()
		_, err := l.Client.CallSync(ctx, target, SinkServiceName, req)
		cancel()
		if err != nil {
			if row.Err == nil {
				row.Err = err
			}
			continue
		}
		lat.Observe(float64(sched.Now()-start) / float64(time.Millisecond))
		row.Delivered++
	}
	row.MedianMs = lat.Median()
	return row
}

// replayEval ships the workload's unit to a member for Remote Evaluation.
func (l *Live) replayEval(e EvalOnce, target string) LiveRow {
	row := LiveRow{Workload: "eval", Paradigm: "remote-eval", Target: target, Ops: 1}
	u := l.mintUnit(e.Unit)
	row.Workload = u.Manifest.Name
	sched := l.Client.Scheduler()
	ctx, cancel := context.WithTimeout(context.Background(), l.timeout())
	defer cancel()
	start := sched.Now()
	if _, err := l.Client.EvalSync(ctx, target, u, e.Entry, e.Args); err != nil {
		row.Err = err
		return row
	}
	row.MedianMs = float64(sched.Now()-start) / float64(time.Millisecond)
	row.Delivered = 1
	return row
}

// replayFetch provisions the workload's unit onto a member with PublishTo,
// fetches it back (Code On Demand over the wire) and runs it locally.
func (l *Live) replayFetch(f FetchRun, target string) LiveRow {
	row := LiveRow{Workload: "fetch", Paradigm: "code-on-demand", Target: target, Ops: 1}
	u := l.mintUnit(f.Unit)
	row.Workload = u.Manifest.Name
	sched := l.Client.Scheduler()
	ctx, cancel := context.WithTimeout(context.Background(), l.timeout())
	defer cancel()
	start := sched.Now()
	if err := l.Client.PublishToSync(ctx, target, u); err != nil {
		row.Err = fmt.Errorf("provision: %w", err)
		return row
	}
	if _, err := l.Client.FetchSync(ctx, target, u.Manifest.Name, ""); err != nil {
		row.Err = err
		return row
	}
	row.MedianMs = float64(sched.Now()-start) / float64(time.Millisecond)
	row.Delivered = 1
	if f.Entry != "" {
		for i := int64(0); i < f.Runs; i++ {
			if _, err := l.Client.RunComponent(u.Manifest.Name, f.Entry, f.Args...); err != nil {
				row.Err = err
				break
			}
		}
	}
	return row
}

// replayAgent launches the workload's agent on the client platform and
// waits for it to finish back home (the OnAgentDone hook), which for
// itinerary agents means the full migration round trip completed. Records
// of other agents are skipped: only the one with the ID the spawn returned
// is this replay's.
func (l *Live) replayAgent(s SpawnAgent) LiveRow {
	row := LiveRow{Workload: s.Name, Paradigm: "mobile-agent", Target: "itinerary", Ops: 1}
	if l.Platform == nil {
		row.Err = errors.New("live: SpawnAgent needs a Platform")
		return row
	}
	sched := l.Client.Scheduler()
	start := sched.Now()
	var id string
	var err error
	if s.Unit != nil {
		u := l.mintUnit(s.Unit)
		row.Workload = u.Manifest.Name
		id, err = l.Platform.SpawnUnit(u, s.Entry)
	} else {
		id, err = l.Platform.Spawn(s.Name, s.Program, s.Data, s.Entry)
	}
	if err != nil {
		row.Err = err
		return row
	}
	ctx, cancel := context.WithTimeout(context.Background(), l.timeout())
	defer cancel()
	for {
		select {
		case rec := <-l.agentDone:
			if rec.ID != id {
				continue // another agent's, such as one whose replay timed out
			}
			row.MedianMs = float64(sched.Now()-start) / float64(time.Millisecond)
			if rec.Status == agent.StatusCompleted {
				row.Delivered = 1
			} else {
				row.Err = fmt.Errorf("live: agent finished with status %d: %s", rec.Status, rec.Detail)
			}
		case <-ctx.Done():
			row.Err = fmt.Errorf("live: agent round trip: %w", ctx.Err())
		}
		return row
	}
}
