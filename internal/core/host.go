// Package core implements the logmob middleware kernel: the per-device
// runtime that ties the substrates together and exposes the four mobile-code
// paradigms the paper adopts from Fuggetta, Picco and Vigna:
//
//   - Client/Server: RegisterService / Call
//   - Remote Evaluation: Eval (ship a code unit, get its results)
//   - Code On Demand: Publish / Fetch / RunComponent
//   - Mobile Agents: SendAgent plus an agent runtime plugged in by
//     internal/agent
//
// A Host is the paper's "protected environment": every foreign unit is
// verified against the host's trust store and policy before it touches the
// registry or the VM, foreign code runs fuel-metered with only the host
// capabilities the host grants, and every security-relevant event is handed
// to the audit sink, if one is installed (Config.Audit).
//
// The kernel is callback-based so the same code runs over the deterministic
// simulator (handlers fire inside the event loop) and over real TCP
// (handlers fire on reader goroutines); a mutex serialises kernel state.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"logmob/internal/ctxsvc"
	"logmob/internal/lmu"
	"logmob/internal/registry"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// Kernel errors.
var (
	// ErrTimeout reports that a remote host did not answer in time.
	ErrTimeout = errors.New("core: request timed out")
	// ErrNoService reports a Call for a service the remote does not offer.
	ErrNoService = errors.New("core: no such service")
	// ErrRefused reports that the remote's policy refused the operation.
	ErrRefused = errors.New("core: operation refused by remote policy")
	// ErrNotFound reports a Fetch for a unit the remote does not publish.
	ErrNotFound = errors.New("core: unit not published by remote")
	// ErrRemote wraps an error string reported by the remote host.
	ErrRemote = errors.New("core: remote error")
)

// ServiceFunc implements a Client/Server service. It receives opaque
// argument frames and returns reply frames.
type ServiceFunc func(from string, args [][]byte) ([][]byte, error)

// AgentRuntime is the agent platform as the kernel sees it. For every
// verified arriving agent the kernel asks Admit for a verdict, acknowledges
// the transfer to the sender with it, and only then calls Start for an
// admitted agent. So the sender hears exactly one ack, before anything the
// agent does here.
//
// Unit's byte slices alias a frame the host reuses once the unit is handed to
// RecycleAgent. Admit borrows unit for the call: the kernel recycles a unit
// Admit refuses. Start hands an admitted unit to the runtime, which recycles
// it when the agent's visit ends.
type AgentRuntime interface {
	// Admit decides whether unit may run here, and records its admission
	// (hop count and the like). A refusal gives the reason the sender sees;
	// "" stands for ErrRefused.
	Admit(unit *lmu.Unit) (accepted bool, reason string)
	// Start runs an admitted agent.
	Start(unit *lmu.Unit)
}

// MessageHandler receives application-level messages (e.g. a courier
// agent delivering its payload).
type MessageHandler func(from, topic string, data []byte)

// AuditEvent records one security-relevant kernel event. Its strings are Go
// strings the kernel owns (decoded with r.String() or interned), so none of
// them aliases a frame lent to a handler, and a sink may keep the event.
type AuditEvent struct {
	At      time.Duration
	Kind    string // "call", "eval", "fetch", "agent", "verify-fail", ...
	Peer    string
	Subject string
	OK      bool
	Detail  string
}

// Config assembles a Host. Endpoint and Scheduler are required; everything
// else has working defaults.
type Config struct {
	// Name labels the host in logs and tables; defaults to Endpoint.Addr().
	Name string
	// Endpoint is the host's transport endpoint. The Host muxes it; use
	// Host.Mux to attach other channels (discovery) to the same endpoint.
	Endpoint transport.Endpoint
	// Scheduler provides time and timers (virtual or wall-clock).
	Scheduler transport.Scheduler
	// Registry is the local component store; default unlimited with LRU,
	// made when the host first stores a unit or Registry is called.
	Registry *registry.Registry
	// Trust is the signature trust store; default empty.
	Trust *security.TrustStore
	// Policy governs acceptance of foreign units; default requires
	// signatures (security.Verify has the rule a signature must meet).
	Policy security.Policy
	// ServeEval enables execution of incoming Remote Evaluation requests.
	ServeEval bool
	// ServePublish lets remote hosts push units into this host's registry
	// and publish them for Fetch service (PublishTo). Units still pass the
	// host's verification policy.
	ServePublish bool
	// EvalFuel bounds each foreign evaluation; default 1e6 instructions.
	EvalFuel int64
	// ComputeRate models the host's CPU speed as VM instructions per second
	// of (virtual) time: eval replies are delayed by steps/ComputeRate.
	// 0 means computation is instantaneous. Only meaningful over the
	// simulator, where experiments measure end-to-end offload time.
	ComputeRate float64
	// RequestTimeout bounds Call/Eval/Fetch waits; default 10s.
	RequestTimeout time.Duration
	// Audit, if set, receives every security-relevant kernel event as it
	// happens; when nil, nothing is recorded. It runs under the host's lock,
	// so calls arrive one at a time even over TCP, and it must not call back
	// into the Host.
	Audit func(AuditEvent)
}

// Host is one device's middleware kernel.
type Host struct {
	name  string
	mux   *transport.Mux
	kch   transport.Endpoint // kernel channel
	sched transport.Scheduler
	reg   *registry.Registry // nil until first use (Registry); guarded by mu
	ctx   *ctxsvc.Service    // nil until first use (Context); guarded by mu
	trust *security.TrustStore
	pol   security.Policy

	serveEval      bool
	servePublish   bool
	closed         bool // guarded by mu; beside the flags, where it costs no padding
	evalFuel       int64
	computeRate    float64
	requestTimeout time.Duration
	audit          func(AuditEvent) // immutable; called under mu

	// The maps and reqs are nil until their first write: most hosts of a
	// crowd never offer a service, publish a unit or issue a request.
	mu          sync.Mutex
	services    map[string]ServiceFunc // guarded by mu
	published   map[string]bool        // name -> fetchable; guarded by mu
	reqs        []*pendingReq          // pending in ID order, then free records; guarded by mu
	nextReq     uint64                 // guarded by mu
	agents      AgentRuntime           // guarded by mu
	units       *unitPool              // nil until a unit is recycled; guarded by mu
	msgHandlers []MessageHandler       // guarded by mu
	evalPool    []*evalState           // guarded by mu
	progCache   map[string]*vm.Program // guarded by mu
}

// pendingReq is one outstanding request: it is the request, from newRequest
// until a reply, its timeout or a send failure removes it from Host.reqs.
// Records are recycled, each with the timeout timer it made once, bound to
// its own expire method, so issuing a request allocates nothing here. Free
// records are parked in Host.reqs[len:cap], as many as the host's peak of
// pending requests.
type pendingReq struct {
	h *Host
	// peer is the address the request was sent to; replies from anyone
	// else are ignored (a peer cannot answer another peer's request).
	peer     string
	id       uint64
	deadline time.Duration // when the armed timer is due
	// Exactly one of cb and done is set: cb takes the raw reply (Call, Eval,
	// Fetch), done only its verdict (SendAgent, PublishTo).
	cb    replyFunc
	done  func(error)
	timer transport.Timer
}

// replyFunc receives a request's outcome: the remote's verdict and error
// string, and the reply's undecoded tail, borrowed for the call.
type replyFunc func(ok bool, errMsg string, rest []byte)

// unitPool holds a host's recycled arrival units, at most 64. Most hosts of a
// crowd never receive an agent, so the pool is allocated when the first unit
// is recycled rather than carried by every Host: with a pointer in place of
// a slice header, and closed in the flags' padding, a Host keeps its 256-byte
// size class (TestHostSize).
type unitPool struct{ free []*lmu.Unit }

// NewHost builds a kernel from cfg.
func NewHost(cfg Config) (*Host, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("core: Config.Endpoint is required")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("core: Config.Scheduler is required")
	}
	h := &Host{
		name:           cfg.Name,
		sched:          cfg.Scheduler,
		reg:            cfg.Registry,
		trust:          cfg.Trust,
		pol:            cfg.Policy,
		serveEval:      cfg.ServeEval,
		servePublish:   cfg.ServePublish,
		evalFuel:       cfg.EvalFuel,
		computeRate:    cfg.ComputeRate,
		requestTimeout: cfg.RequestTimeout,
		audit:          cfg.Audit,
	}
	if h.name == "" {
		h.name = cfg.Endpoint.Addr()
	}
	if h.trust == nil {
		h.trust = security.NewTrustStore()
	}
	if h.evalFuel <= 0 {
		h.evalFuel = 1_000_000
	}
	if h.requestTimeout <= 0 {
		h.requestTimeout = 10 * time.Second
	}
	h.mux = transport.NewMux(cfg.Endpoint)
	h.kch = h.mux.Channel(transport.ChanKernel)
	h.kch.SetHandler(h.handle)
	return h, nil
}

// Name returns the host's display name.
func (h *Host) Name() string { return h.name }

// Addr returns the host's transport address.
func (h *Host) Addr() string { return h.kch.Addr() }

// Mux exposes the host's endpoint mux so other subsystems (discovery) can
// attach their channels.
func (h *Host) Mux() *transport.Mux { return h.mux }

// Scheduler returns the host's time source.
func (h *Host) Scheduler() transport.Scheduler { return h.sched }

// Registry returns the host's component store, making it on first use.
func (h *Host) Registry() *registry.Registry {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.reg == nil {
		h.reg = registry.New(0, registry.WithClock(h.sched.Now))
	}
	return h.reg
}

// storedRegistry returns the host's component store if something has made
// it, or nil, which reads as an empty store: a lookup makes no registry.
func (h *Host) storedRegistry() *registry.Registry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reg
}

// Context returns the host's context service, making it on first use.
func (h *Host) Context() *ctxsvc.Service {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ctx == nil {
		h.ctx = ctxsvc.New(h.sched.Now, 0)
	}
	return h.ctx
}

// ComputeRate returns the host's modelled CPU speed in VM instructions per
// second of (virtual) time; 0 means computation is instantaneous.
func (h *Host) ComputeRate() float64 { return h.computeRate }

// Neighbors lists addresses reachable in one hop.
func (h *Host) Neighbors() []string { return h.kch.Neighbors() }

// recordLocked hands an audit event to the sink, if one is installed.
// Caller must hold h.mu, which serialises the sink's calls. A caller whose
// detail costs something to build checks h.audit first.
func (h *Host) recordLocked(kind, peer, subject string, ok bool, detail string) {
	if h.audit == nil {
		return
	}
	h.audit(AuditEvent{At: h.sched.Now(), Kind: kind, Peer: peer, Subject: subject, OK: ok, Detail: detail})
}

// Close detaches the kernel from its endpoint and fails all pending
// requests, oldest first.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	pending := h.reqs
	h.reqs = nil
	for _, p := range pending {
		p.timer.Stop()
	}
	h.mu.Unlock()
	// The table is in ID order, so the callbacks fail in the order they were
	// registered, on every run.
	for _, p := range pending {
		complete(p.cb, p.done, false, "host closed", nil)
	}
	return h.kch.Close()
}

// RegisterService offers a Client/Server service under name.
func (h *Host) RegisterService(name string, fn ServiceFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.services == nil {
		h.services = make(map[string]ServiceFunc)
	}
	h.services[name] = fn
}

// OnMessage registers a handler for application-level messages.
func (h *Host) OnMessage(fn MessageHandler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.msgHandlers = append(h.msgHandlers, fn)
}

// SetAgentRuntime installs the agent runtime that arriving agents are
// handed to; nil refuses every agent.
func (h *Host) SetAgentRuntime(rt AgentRuntime) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.agents = rt
}

// RecycleAgent hands an arrived agent unit back to the host, whose next
// arrival decodes into it. Nothing may hold u or any of its byte slices
// afterwards. The list is bounded like the request records, and a recycled
// unit keeps only its frame (at most 64 KiB, lmu.Unit.UnpackFrom) and its
// emptied data map: the fields are released here, so a pooled unit cannot
// pin a larger arrival.
func (h *Host) RecycleAgent(u *lmu.Unit) {
	clear(u.Data)
	u.Manifest, u.Code, u.State, u.Sig = lmu.Manifest{}, nil, nil, nil
	h.mu.Lock()
	if h.units == nil {
		h.units = new(unitPool)
	}
	if p := h.units; len(p.free) < 64 {
		p.free = append(p.free, u)
	}
	h.mu.Unlock()
}

// getAgentLocked pops a recycled arrival unit, or allocates one. The caller
// holds h.mu.
func (h *Host) getAgentLocked() *lmu.Unit {
	if h.units == nil || len(h.units.free) == 0 {
		return new(lmu.Unit)
	}
	free := h.units.free
	u := free[len(free)-1]
	free[len(free)-1] = nil
	h.units.free = free[:len(free)-1]
	return u
}

// Publish makes a unit available for Fetch (Code On Demand, server side).
// The unit is pinned in the registry so local eviction never unpublishes it.
func (h *Host) Publish(u *lmu.Unit) error {
	reg := h.Registry()
	if err := reg.Put(u); err != nil {
		return fmt.Errorf("core: publish %s: %w", u.Manifest.Name, err)
	}
	reg.Pin(u.Manifest.Name, u.Manifest.Version, true)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.published == nil {
		h.published = make(map[string]bool)
	}
	h.published[u.Manifest.Name] = true
	return nil
}

// Published returns the names currently served to Fetch requests, sorted.
func (h *Host) Published() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.published))
	for name := range h.published {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// verify checks a foreign unit under the host's policy and hands the
// verdict to the audit sink.
func (h *Host) verify(kind, from string, u *lmu.Unit) error {
	err := security.Verify(u, h.trust, h.pol)
	if h.audit == nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.recordLocked("verify-fail", from, u.Manifest.Name, false, err.Error())
		return err
	}
	h.recordLocked(kind, from, u.Manifest.Name, true, "")
	return nil
}

// RunComponent executes an entry point of a locally stored component with
// the host's default capability table. This is the local half of Code On
// Demand: fetch once, then run on the device. It returns the machine's final
// stack.
func (h *Host) RunComponent(name, entry string, args ...int64) ([]int64, error) {
	u, ok := h.storedRegistry().Get(name)
	if !ok {
		return nil, fmt.Errorf("core: component %s: %w", name, registry.ErrNotFound)
	}
	stack, _, err := h.runUnit(u, entry, args)
	return stack, err
}

// RunComponentSteps is RunComponent also reporting the VM instruction count,
// which experiments combine with a CPU rate to model local compute time.
func (h *Host) RunComponentSteps(name, entry string, args ...int64) ([]int64, int64, error) {
	u, ok := h.storedRegistry().Get(name)
	if !ok {
		return nil, 0, fmt.Errorf("core: component %s: %w", name, registry.ErrNotFound)
	}
	return h.runUnit(u, entry, args)
}

func (h *Host) runUnit(u *lmu.Unit, entry string, args []int64) ([]int64, int64, error) {
	prog, err := h.CachedProgram(u.Code)
	if err != nil {
		return nil, 0, fmt.Errorf("core: component %s: %w", u.Manifest.Name, err)
	}
	s := h.getEval()
	defer h.putEval(s)
	m := &s.m
	if err := m.Reinit(prog, baseTable, h.evalFuel); err != nil {
		return nil, 0, fmt.Errorf("core: component %s: %w", u.Manifest.Name, err)
	}
	s.ec.SetUnit(h, u)
	m.Ctx = &s.ec
	if err := m.SetEntry(entry, args...); err != nil {
		return nil, 0, fmt.Errorf("core: component %s: %w", u.Manifest.Name, err)
	}
	if err := m.Run(); err != nil {
		return nil, m.Steps, fmt.Errorf("core: component %s: %w", u.Manifest.Name, err)
	}
	if m.Status() == vm.StatusTrapped {
		return nil, m.Steps, fmt.Errorf("core: component %s trapped (code %d): traps are only valid for agents", u.Manifest.Name, m.TrapCode())
	}
	return m.Stack(), m.Steps, nil
}
