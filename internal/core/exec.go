package core

import (
	"fmt"
	"slices"

	"logmob/internal/lmu"
	"logmob/internal/vm"
)

// ExecContext is the per-execution state that capability tables reach
// through vm.Machine.Ctx. A capability captures nothing per execution: one
// immutable table is built once and its functions route to the current
// execution's context through the machine.
type ExecContext struct {
	Host *Host
	Unit *lmu.Unit

	keys []string // sorted data keys of Unit; storage reused across executions
}

// ExecCtx returns the context itself; types embedding an ExecContext satisfy
// the lookup interface through method promotion.
func (c *ExecContext) ExecCtx() *ExecContext { return c }

// SetUnit points the context at a new execution, invalidating caches while
// retaining scratch storage.
func (c *ExecContext) SetUnit(h *Host, u *lmu.Unit) {
	c.Host, c.Unit = h, u
	c.keys = c.keys[:0]
}

// DataKeys returns the unit's data-space keys in sorted order. The list is
// cached, but the data space grows mid-execution (a migrating agent gains
// _prev, a capability may store its result under a new key) and keys are
// never removed, so a length mismatch is exactly "stale".
func (c *ExecContext) DataKeys() []string {
	if len(c.keys) != len(c.Unit.Data) {
		c.keys = c.keys[:0]
		for k := range c.Unit.Data {
			c.keys = append(c.keys, k)
		}
		slices.Sort(c.keys)
	}
	return c.keys
}

// Blob addresses the unit's data values in sorted key order.
func (c *ExecContext) Blob(i int64) ([]byte, bool) {
	keys := c.DataKeys()
	if i < 0 || i >= int64(len(keys)) {
		return nil, false
	}
	return c.Unit.Data[keys[i]], true
}

// ctxCarrier is how shared capability functions find the execution context:
// the machine's Ctx either is an *ExecContext or embeds one.
type ctxCarrier interface{ ExecCtx() *ExecContext }

// MachineExecCtx extracts the ExecContext installed on m. Panics if the
// machine was run without one; shared tables are only linked by call sites
// that install a context first.
func MachineExecCtx(m *vm.Machine) *ExecContext {
	return m.Ctx.(ctxCarrier).ExecCtx()
}

// RegisterBaseCtxCaps registers the base component capability set
// (blob_count, blob_len, blob_byte, now_ms, log) in context-routed form: the
// functions capture nothing and reach per-execution state via
// MachineExecCtx, so one table serves every execution on every host.
func RegisterBaseCtxCaps(t *vm.HostTable) {
	t.Register(vm.HostFunc{
		Name: "blob_count", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			c := MachineExecCtx(m)
			return m.Ret1(int64(len(c.DataKeys()))), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "blob_len", Arity: 1,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			b, ok := MachineExecCtx(m).Blob(args[0])
			if !ok {
				return m.Ret1(-1), 0, nil
			}
			return m.Ret1(int64(len(b))), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "blob_byte", Arity: 2,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			b, ok := MachineExecCtx(m).Blob(args[0])
			if !ok || args[1] < 0 || args[1] >= int64(len(b)) {
				return m.Ret1(-1), 0, nil
			}
			return m.Ret1(int64(b[args[1]])), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "now_ms", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			c := MachineExecCtx(m)
			return m.Ret1(c.Host.sched.Now().Milliseconds()), 0, nil
		},
	})
	t.Register(vm.HostFunc{
		Name: "log", Arity: 1,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			c := MachineExecCtx(m)
			if h := c.Host; h.audit != nil {
				h.mu.Lock()
				h.recordLocked("vm-log", h.name, c.Unit.Manifest.Name, true, fmt.Sprintf("%d", args[0]))
				h.mu.Unlock()
			}
			return nil, 0, nil
		},
	})
}

// baseTable is what component execution and Remote Evaluation link against:
// the unit's own data blobs, the host clock and audit logging. Notably
// absent: migration, message delivery, context access. It is never mutated
// after package initialisation.
var baseTable = func() *vm.HostTable {
	t := vm.NewHostTable()
	RegisterBaseCtxCaps(t)
	return t
}()

// evalState is a recyclable machine plus context for component execution and
// remote evaluation.
type evalState struct {
	m  vm.Machine
	ec ExecContext
}

func (h *Host) getEval() *evalState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.evalPool); n > 0 {
		s := h.evalPool[n-1]
		h.evalPool = h.evalPool[:n-1]
		return s
	}
	return &evalState{}
}

// putEval returns s to the pool with its unit reference cleared: an eval's
// unit aliases a frame the transport recycles, and a pooled context must
// not point into it.
func (h *Host) putEval(s *evalState) {
	s.ec.SetUnit(nil, nil)
	h.mu.Lock()
	h.evalPool = append(h.evalPool, s)
	h.mu.Unlock()
}

// CachedProgram decodes (and validates) code, memoizing the result so
// repeated executions of the same unit — component re-runs, agents hopping
// host to host — skip the decode entirely. The lookup is allocation-free.
func (h *Host) CachedProgram(code []byte) (*vm.Program, error) {
	h.mu.Lock()
	if p, ok := h.progCache[string(code)]; ok {
		h.mu.Unlock()
		return p, nil
	}
	h.mu.Unlock()
	p, err := vm.DecodeProgram(code)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	if h.progCache == nil {
		h.progCache = make(map[string]*vm.Program)
	}
	// Bound memory: a rogue stream of distinct programs must not pin the
	// cache forever. Dropping everything is fine — entries rebuild on demand.
	if len(h.progCache) >= 128 {
		clear(h.progCache)
	}
	h.progCache[string(code)] = p
	h.mu.Unlock()
	return p, nil
}
