// Package agent implements the mobile agent platform of logmob: the
// middleware's Mobile Agent paradigm, where "an agent is an autonomous unit
// of code that decides when and where to migrate".
//
// An agent is a Logical Mobility Unit of kind KindAgent: VM code, a data
// space (destination, payload, bookkeeping) and, once it has run, a captured
// VM execution state. Migration is strong: the platform snapshots the
// machine mid-execution at a migration trap, ships the unit, and the
// receiving platform resumes it exactly where it stopped — on the
// instruction after the migrate call.
//
// The platform is the paper's "protected environment to host mobile
// agents": arriving units are signature-verified by the kernel (code-only
// signatures, so travelling state does not break them), executed under a
// fuel budget with only the agent capability set, bounded in number, and
// bounded in hop count.
//
// Ownership: the kernel decodes an arriving agent into a unit it recycles,
// whose code, state and data values alias a frame the next arrival
// overwrites. A unit that arrived here goes back to its host
// (core.Host.RecycleAgent) when its visit ends, however it ends: when its
// onward migration is acknowledged, when it finishes, fails or cannot be
// activated, and, by the kernel, when Admit refuses it. A spawned unit stays
// its spawner's. So OnDone's Record.Unit is lent for the call, as a
// transport handler's payload is: a hook that keeps a record keeps the
// fields it read, and Record.Name names the unit. Whatever leaves an
// activation is copied out of the unit: a_deliver hands message handlers a
// copy of the payload, and a hop selection is a string that owns its bytes:
// interned (wire.InternBytes), or the neighbor's own ID.
//
// Concurrency: the platform runs agents inline on the goroutine that
// delivers them (the simulator's event loop, or a TCP endpoint's reader
// goroutine). It is designed for the single-goroutine simulator substrate;
// hosting agents over the TCP transport with multiple peers requires
// external serialisation of the kernel's agent runtime calls.
package agent

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/transport"
	"logmob/internal/vm"
	"logmob/internal/wire"
)

// Trap codes used by the agent capability set.
const (
	// TrapMigrate suspends the machine for migration to the selected next
	// host.
	TrapMigrate int64 = 1
	// TrapSleep suspends the machine for the number of milliseconds given
	// to a_sleep.
	TrapSleep int64 = 2
)

// Well-known data keys in an agent's data space. Keys starting with "_" are
// platform bookkeeping.
const (
	// KeyDest is the agent's destination host name.
	KeyDest = "dest"
	// KeyTopic is the topic under which a_deliver hands over the payload.
	KeyTopic = "topic"
	// KeyPayload is the carried payload delivered by a_deliver.
	KeyPayload = "payload"
	// KeyItinerary is a wire-encoded string slice of host addresses for
	// itinerary-driven agents (a_itin_count / a_itin_select).
	KeyItinerary = "itinerary"

	keyID    = "_id"
	keyEntry = "_entry"
	keyHops  = "_hops"
	keyPrev  = "_prev"
)

// Status of a finished agent.
type Status uint8

// Agent outcomes.
const (
	// StatusCompleted means the agent halted normally.
	StatusCompleted Status = iota + 1
	// StatusFailed means a runtime error or fuel exhaustion killed it.
	StatusFailed
	// StatusDropped means the platform refused it (hop budget, capacity).
	StatusDropped
)

// Record describes a finished agent, passed to the completion hook. Unit is
// lent for the hook's call: a unit that arrived here is recycled once the
// hook returns, so a hook that keeps the record clears Unit (or copies what
// it needs) first. Name is the unit's name, which the record owns.
type Record struct {
	ID     string
	Name   string
	Unit   *lmu.Unit
	Stack  []int64
	Hops   int64
	Status Status
	Detail string
}

// Stats counts the migrations agents started from this platform, and those
// that failed and resumed here.
type Stats struct {
	Migrations        int64
	MigrationFailures int64
}

// Env configures the protected environment agents run in.
type Env struct {
	// MaxFuel is the instruction budget per activation (per visit to this
	// host). Default 1e6.
	MaxFuel int64
	// MaxResident bounds agents concurrently sleeping on this host.
	// Default 64.
	MaxResident int
	// MaxHops drops agents whose hop count exceeds it. 0 means 256.
	MaxHops int64
	// Seed seeds the platform's PRNG (used by a_rand and neighbor picks).
	Seed int64
	// OnDone, if set, observes every agent that finishes on this host.
	OnDone func(Record)
	// Caps is the capability table agents link against; nil grants the
	// standard set. A deployment extends the protected environment
	// deliberately by building one table with NewCaps (e.g. adding a
	// marketplace's price query) and sharing it across its platforms.
	Caps *vm.HostTable
}

// Platform hosts mobile agents on a kernel Host.
type Platform struct {
	host *core.Host
	env  Env
	// rng is seeded from env.Seed on the first draw (see rand): most hosts
	// of a crowd are never visited by an agent, and a seeded source is 5 kB.
	rng *rand.Rand

	nextID   int64
	resident int
	stats    Stats

	// actPool recycles activations (and their embedded machines) between
	// agent visits. The platform runs agents inline on one goroutine (see
	// package doc), so a plain freelist suffices.
	actPool []*activation
	// nbrScratch is reused by pickNeighbor's candidate filtering.
	nbrScratch []string
}

// NewPlatform attaches an agent platform to h, which it registers as the
// host's core.AgentRuntime.
func NewPlatform(h *core.Host, env Env) *Platform {
	if env.MaxFuel <= 0 {
		env.MaxFuel = 1_000_000
	}
	if env.MaxResident <= 0 {
		env.MaxResident = 64
	}
	if env.MaxHops <= 0 {
		env.MaxHops = 256
	}
	if env.Caps == nil {
		env.Caps = standardCaps
	}
	p := &Platform{host: h, env: env}
	h.SetAgentRuntime(p)
	return p
}

// rand returns the platform's PRNG, seeding it on first use. The stream
// depends only on Env.Seed, so when the first draw happens is unobservable.
func (p *Platform) rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.env.Seed))
	}
	return p.rng
}

// Host returns the kernel host this platform runs on.
func (p *Platform) Host() *core.Host { return p.host }

// Stats returns a snapshot of the migration counters.
func (p *Platform) Stats() Stats { return p.stats }

// Spawn creates an agent from prog with the given data space and starts it
// locally at entry. It returns the agent's instance ID.
func (p *Platform) Spawn(name string, prog *vm.Program, data map[string][]byte, entry string) (string, error) {
	if entry == "" {
		entry = "main"
	}
	if _, ok := prog.Entries[entry]; !ok {
		return "", fmt.Errorf("agent: program has no entry %q", entry)
	}
	p.nextID++
	id := fmt.Sprintf("%s/%s#%d", p.host.Name(), name, p.nextID)
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: name, Version: "1.0", Kind: lmu.KindAgent},
		Code:     prog.Encode(),
		Data:     map[string][]byte{keyID: []byte(id), keyEntry: []byte(entry)},
	}
	for k, v := range data {
		u.Data[k] = append([]byte(nil), v...)
	}
	p.activate(u, 0)
	return id, nil
}

// SpawnUnit starts a prebuilt (typically signed) agent unit locally. The
// unit's data space gains the platform bookkeeping keys.
func (p *Platform) SpawnUnit(u *lmu.Unit, entry string) (string, error) {
	if u.Manifest.Kind != lmu.KindAgent {
		return "", fmt.Errorf("agent: unit %s has kind %s, want agent", u.Manifest.Name, u.Manifest.Kind)
	}
	if entry == "" {
		entry = "main"
	}
	p.nextID++
	id := fmt.Sprintf("%s/%s#%d", p.host.Name(), u.Manifest.Name, p.nextID)
	if u.Data == nil {
		u.Data = make(map[string][]byte)
	}
	u.Data[keyID] = []byte(id)
	u.Data[keyEntry] = []byte(entry)
	p.activate(u, 0)
	return id, nil
}

// Admit implements core.AgentRuntime: admission control for an arriving
// agent. It enforces the hop budget (reporting the agent as dropped) and
// the resident capacity, and counts the hop into the unit's _hops.
func (p *Platform) Admit(u *lmu.Unit) (bool, string) {
	hops := dataCounter(u, keyHops) + 1
	if hops > p.env.MaxHops {
		p.finish(u, nil, hops, StatusDropped, "hop budget exceeded")
		return false, "hop budget exceeded"
	}
	if p.resident >= p.env.MaxResident {
		return false, "agent capacity exhausted"
	}
	setDataCounter(u, keyHops, hops)
	return true, ""
}

// Start implements core.AgentRuntime: it activates an admitted agent, whose
// arrival the kernel has already acknowledged.
func (p *Platform) Start(u *lmu.Unit) { p.activate(u, dataCounter(u, keyHops)) }

// activation is one run of an agent on this host. Activations (and their
// embedded machines) are recycled through the platform's freelist: an
// activation is returned to the pool exactly once, on the path that ends its
// ownership (terminal finish, or a successful migration ack).
type activation struct {
	p       *Platform
	unit    *lmu.Unit
	m       vm.Machine
	ec      core.ExecContext
	hops    int64
	next    string // migration target selected by host calls
	sleepMs int64  // sleep duration requested by a_sleep
	itin    []string
	itinOK  bool
	// migrated is the method value a.onMigrated, and wake the timer that
	// runs a.onWake, both bound once when the activation is first
	// allocated, so neither a migration nor a sleep allocates a callback.
	migrated func(error)
	wake     transport.Timer
	// prev is the host's name as bytes, made with migrated and wake and
	// never written: migrate stores this one slice as every departure's
	// _prev, so a migration allocates no copy of the name.
	prev []byte
}

// ExecCtx lets the base capabilities find the unit context.
func (a *activation) ExecCtx() *core.ExecContext { return &a.ec }

// itinerary decodes KeyItinerary once per activation.
func (a *activation) itinerary() []string {
	if !a.itinOK {
		a.itin = DecodeItinerary(a.unit.Data[KeyItinerary])
		a.itinOK = true
	}
	return a.itin
}

func (p *Platform) getAct(u *lmu.Unit, hops int64) *activation {
	var a *activation
	if n := len(p.actPool); n > 0 {
		a = p.actPool[n-1]
		p.actPool = p.actPool[:n-1]
	} else {
		a = &activation{}
		a.migrated = a.onMigrated
		a.wake = p.host.Scheduler().NewTimer(a.onWake)
		a.prev = []byte(p.host.Name())
	}
	a.p, a.unit, a.hops = p, u, hops
	a.next, a.sleepMs = "", 0
	a.itin, a.itinOK = nil, false
	a.ec.SetUnit(p.host, u)
	return a
}

func (p *Platform) putAct(a *activation) {
	a.unit = nil
	a.itin = nil
	a.ec.SetUnit(nil, nil)
	p.actPool = append(p.actPool, a)
}

// activate builds a machine for the unit (fresh or restored) and drives it.
func (p *Platform) activate(u *lmu.Unit, hops int64) {
	act := p.getAct(u, hops)
	prog, err := p.host.CachedProgram(u.Code)
	if err != nil {
		act.end(nil, StatusFailed, fmt.Sprintf("decode: %v", err))
		return
	}
	if len(u.State) > 0 {
		err = act.m.RestoreInto(prog, p.env.Caps, p.env.MaxFuel, u.State)
	} else {
		if err = act.m.Reinit(prog, p.env.Caps, p.env.MaxFuel); err == nil {
			err = act.m.SetEntry(string(u.Data[keyEntry]))
		}
	}
	if err != nil {
		act.end(nil, StatusFailed, err.Error())
		return
	}
	act.m.Ctx = act
	act.drive()
}

// end reports the activation's terminal outcome and releases it.
func (a *activation) end(stack []int64, status Status, detail string) {
	a.p.finish(a.unit, stack, a.hops, status, detail)
	a.release()
}

// release returns the activation to the pool and a unit that arrived here to
// its host (package doc): the agent has finished or now lives elsewhere.
func (a *activation) release() {
	u, arrived := a.unit, a.hops > 0
	a.p.putAct(a)
	if arrived {
		a.p.host.RecycleAgent(u)
	}
}

// drive runs the machine until it halts, migrates, sleeps or dies.
func (a *activation) drive() {
	for {
		err := a.m.Run()
		switch {
		case err != nil:
			a.end(a.m.Stack(), StatusFailed, err.Error())
			return
		case a.m.Status() == vm.StatusHalted:
			a.end(a.m.Stack(), StatusCompleted, "")
			return
		case a.m.Status() == vm.StatusTrapped && a.m.TrapCode() == TrapMigrate:
			if a.migrate() {
				return // gone, or parked until the ack callback resumes us
			}
		case a.m.Status() == vm.StatusTrapped && a.m.TrapCode() == TrapSleep:
			a.sleep()
			return
		default:
			a.end(a.m.Stack(), StatusFailed, fmt.Sprintf("unexpected machine status %v", a.m.Status()))
			return
		}
	}
}

// migrate ships the agent to a.next. It returns false if the failure was
// immediate and the machine should keep running here (with the migrate
// result patched to 0).
func (a *activation) migrate() bool {
	dest := a.next
	a.next = ""
	if dest == "" || dest == a.p.host.Name() {
		a.patchMigrateResult(0)
		return false
	}
	// Capture state after the trap so the receiver resumes past the call
	// with the optimistic result (1) on the stack. SendAgent packs the unit
	// synchronously and retains only the packed frame, so the unit itself
	// stays valid for the failure-resume path without a defensive clone.
	// The snapshot is written into the unit's existing backing when the
	// sizes line up: that region is exclusively owned by State (UnpackFrom
	// aliases disjoint ranges of the unit's frame), and snapshot size is
	// stable hop over hop for a given agent. _prev shares the activation's
	// name slice, which is safe because nothing writes a data value in place
	// but setDataCounter, on its own keys, and RecycleAgent clears the map.
	sb := wire.GetBuffer()
	a.m.SnapshotTo(sb)
	a.unit.State = append(a.unit.State[:0], sb.Bytes()...)
	wire.PutBuffer(sb)
	a.unit.Data[keyPrev] = a.prev
	a.p.stats.Migrations++
	a.p.host.SendAgent(dest, a.unit, a.migrated)
	return true
}

// onMigrated receives the outcome of the transfer migrate started.
func (a *activation) onMigrated(err error) {
	if err == nil {
		a.release() // the agent now lives elsewhere
		return
	}
	// Refused or timed out: resume here, with the migrate call reporting
	// failure.
	a.p.stats.MigrationFailures++
	prog, derr := a.p.host.CachedProgram(a.unit.Code)
	if derr != nil {
		a.end(nil, StatusFailed, derr.Error())
		return
	}
	if rerr := a.m.RestoreInto(prog, a.p.env.Caps, a.p.env.MaxFuel, a.unit.State); rerr != nil {
		a.end(nil, StatusFailed, rerr.Error())
		return
	}
	a.m.Ctx = a
	a.patchMigrateResult(0)
	a.drive()
}

// patchMigrateResult replaces the optimistic migrate result on top of the
// stack.
func (a *activation) patchMigrateResult(v int64) {
	if _, err := a.m.Pop(); err == nil {
		a.m.Push(v)
	}
}

// sleep parks the agent and resumes it after the requested delay.
func (a *activation) sleep() {
	ms := a.sleepMs
	a.sleepMs = 0
	if ms < 0 {
		ms = 0
	}
	a.p.resident++
	a.wake.Reset(time.Duration(ms) * time.Millisecond)
}

// onWake resumes a sleeping agent with a full fuel budget.
func (a *activation) onWake() {
	a.p.resident--
	a.m.Refuel(a.p.env.MaxFuel - a.m.Fuel())
	a.drive()
}

// finish reports a terminal agent outcome.
func (p *Platform) finish(u *lmu.Unit, stack []int64, hops int64, status Status, detail string) {
	if p.env.OnDone != nil {
		p.env.OnDone(Record{
			ID:     string(u.Data[keyID]),
			Name:   u.Manifest.Name,
			Unit:   u,
			Stack:  stack,
			Hops:   hops,
			Status: status,
			Detail: detail,
		})
	}
}

// dataCounter reads an 8-byte big-endian counter from the data space.
func dataCounter(u *lmu.Unit, key string) int64 {
	b := u.Data[key]
	if len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func setDataCounter(u *lmu.Unit, key string, v int64) {
	// Overwrite in place when the slot exists: the 8-byte region is owned
	// exclusively by this key, even when it aliases the arrival frame.
	if b := u.Data[key]; len(b) == 8 {
		binary.BigEndian.PutUint64(b, uint64(v))
		return
	}
	if u.Data == nil {
		u.Data = make(map[string][]byte)
	}
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(v))
	u.Data[key] = b
}
