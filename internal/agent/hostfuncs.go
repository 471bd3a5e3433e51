package agent

import (
	"bytes"

	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/vm"
	"logmob/internal/wire"
)

// actOf resolves the activation a capability is executing for.
func actOf(m *vm.Machine) *activation { return m.Ctx.(*activation) }

// Current reports which platform and which agent unit the capability call
// on m is running for. Application capabilities (NewCaps extras) use it
// where a closure would have captured them: a table is shared by every
// platform that links it, so per-agent state is reached through the machine.
func Current(m *vm.Machine) (*Platform, *lmu.Unit) {
	act := actOf(m)
	return act.p, act.unit
}

// standardCaps is the table platforms link when Env.Caps is nil.
var standardCaps = NewCaps()

// NewCaps builds the capability table granted to agents: the base component
// capabilities, mobility, delivery and environment sensing, plus the
// deployment's extras (e.g. a marketplace's price query). Every capability
// is context-routed — it captures nothing per execution and reaches the
// current activation through vm.Machine.Ctx — so one table serves any number
// of platforms and activations, and agent hops allocate nothing on the
// capability side. Build it once per population, hand it to each platform
// through Env.Caps, and never mutate it afterwards.
//
// Capabilities:
//
//	a_at_dest() -> 0/1        is this host the agent's destination?
//	a_select_toward_dest()    pick the next hop (the destination if adjacent,
//	                          else a random neighbor, avoiding the previous
//	                          host when possible); returns 1 if one was found
//	a_select_dest()           set the next hop to the destination itself
//	                          (routed transports); returns 0 if there is none
//	a_select_blob(i)          set the next hop from data blob i; returns 0/1
//	a_itin_count() -> n       length of the itinerary under Data[itinerary]
//	a_itin_select(i)          set the next hop to itinerary entry i; 0/1
//	a_migrate()               migrate to the selected hop; returns 1 on the
//	                          new host, 0 here if migration failed
//	a_sleep(ms)               suspend for ms milliseconds
//	a_deliver() -> 1          deliver Data[payload] under Data[topic] to the
//	                          current host's message handlers
//	a_rand(n) -> [0,n)        platform randomness
//	a_hops() -> n             hop count so far
//	a_neighbors() -> n        current one-hop neighbor count
//
// plus blob_count/blob_len/blob_byte/now_ms/log from the base set.
func NewCaps(extra ...vm.HostFunc) *vm.HostTable {
	t := vm.NewHostTable()
	core.RegisterBaseCtxCaps(t)

	t.Register(vm.HostFunc{
		Name: "a_at_dest", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			act := actOf(m)
			at := act.p.host.Name() == string(act.unit.Data[KeyDest])
			return m.Ret1(b2i(at)), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_neighbors", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			act := actOf(m)
			return m.Ret1(int64(len(act.p.host.Neighbors()))), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_select_toward_dest", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			act := actOf(m)
			next := act.p.pickNeighbor(act.unit.Data[KeyDest], act.unit.Data[keyPrev])
			if next == "" {
				return m.Ret1(0), 0, nil
			}
			act.next = next
			return m.Ret1(1), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_select_blob", Arity: 1,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			act := actOf(m)
			hop, ok := act.ec.Blob(args[0])
			if !ok {
				return m.Ret1(0), 0, nil
			}
			act.next = wire.InternBytes(hop)
			return m.Ret1(1), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_migrate", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			// Optimistically report success; the platform patches this to
			// 0 if the transfer fails and the agent resumes locally.
			return m.Ret1(1), TrapMigrate, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_sleep", Arity: 1,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			actOf(m).sleepMs = args[0]
			return nil, TrapSleep, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_deliver", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			act := actOf(m)
			// Handlers may keep the payload; the unit's frame is reused once
			// the agent migrates on, so they get a copy.
			act.p.host.DeliverLocal(
				string(act.unit.Data[keyID]),
				string(act.unit.Data[KeyTopic]),
				bytes.Clone(act.unit.Data[KeyPayload]),
			)
			return m.Ret1(1), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_rand", Arity: 1,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			if args[0] <= 0 {
				return m.Ret1(0), 0, nil
			}
			return m.Ret1(actOf(m).p.rand().Int63n(args[0])), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_hops", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			return m.Ret1(actOf(m).hops), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_select_dest", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			act := actOf(m)
			dest := wire.InternBytes(act.unit.Data[KeyDest])
			if dest == "" {
				return m.Ret1(0), 0, nil
			}
			act.next = dest
			return m.Ret1(1), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_itin_count", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			return m.Ret1(int64(len(actOf(m).itinerary()))), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "a_itin_select", Arity: 1,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			act := actOf(m)
			itin := act.itinerary()
			if args[0] < 0 || args[0] >= int64(len(itin)) {
				return m.Ret1(0), 0, nil
			}
			act.next = itin[args[0]]
			return m.Ret1(1), 0, nil
		},
	})

	for _, fn := range extra {
		t.Register(fn)
	}
	return t
}

// pickNeighbor chooses the next hop: the destination if directly reachable,
// otherwise a random neighbor, avoiding prev unless it is the only option.
// dest and prev are the agent's data values, compared without conversion;
// the result is the neighbor's own ID, so nothing here allocates.
func (p *Platform) pickNeighbor(dest, prev []byte) string {
	neighbors := p.host.Neighbors()
	if len(neighbors) == 0 {
		return ""
	}
	candidates := p.nbrScratch[:0]
	for _, n := range neighbors {
		if n == string(dest) {
			return n
		}
		if n != string(prev) {
			candidates = append(candidates, n)
		}
	}
	p.nbrScratch = candidates[:0]
	if len(candidates) == 0 {
		candidates = neighbors // only way back is through prev
	}
	return candidates[p.rand().Intn(len(candidates))]
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
