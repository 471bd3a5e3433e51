package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/transport"
	"logmob/internal/wire"
)

// reader aliases the wire decoder for the handlers' signatures.
type reader = wire.Reader

// Kernel protocol message types.
const (
	msgCall byte = iota + 1
	msgCallReply
	msgEval
	msgEvalReply
	msgFetch
	msgFetchReply
	msgAgent
	msgAgentAck
	msgUser
	msgPublish
	msgPublishReply
)

// newRequest takes a request record with a fresh ID, registers it with its
// callback and arms its timeout, all under one hold of h.mu. Exactly one of
// cb and done is non-nil, and it fires exactly once (see complete): a closed
// host takes no request and returns ID 0, which sendRequest fails at once.
func (h *Host) newRequest(peer string, cb replyFunc, done func(error)) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0
	}
	h.nextReq++
	n := len(h.reqs)
	h.reqs = slices.Grow(h.reqs, 1)[:n+1] // a parked record, or a nil slot
	p := h.reqs[n]
	if p == nil {
		p = &pendingReq{h: h}
		p.timer = h.sched.NewTimer(p.expire)
		h.reqs[n] = p
	}
	p.peer, p.id, p.cb, p.done = peer, h.nextReq, cb, done
	p.deadline = h.sched.Now() + h.requestTimeout
	p.timer.Reset(h.requestTimeout)
	return p.id
}

// sendRequest sends request id's frame to peer. When the host took no
// request or the transport will not send, it cancels the request without
// invoking its callback and returns why; the caller reports the error.
func (h *Host) sendRequest(id uint64, peer string, frame []byte) error {
	err := transport.ErrClosed
	if id != 0 {
		err = h.kch.Send(peer, frame)
	}
	if err != nil {
		h.mu.Lock()
		if i, live := h.findReqLocked(id); live {
			h.removeReqLocked(i)
		}
		h.mu.Unlock()
	}
	return err
}

// expire is the request's timer body. It times the request out only if, under
// h.mu, the record is still pending under its own ID and its deadline has
// passed: a wall-clock firing that raced a reply, a recycle and a re-arm
// finds the record gone or not yet due, and does nothing.
func (p *pendingReq) expire() {
	h := p.h
	h.mu.Lock()
	i, live := h.findReqLocked(p.id)
	if !live || h.reqs[i] != p || h.sched.Now() < p.deadline {
		h.mu.Unlock()
		return
	}
	cb, done := p.cb, p.done
	h.removeReqLocked(i)
	h.mu.Unlock()
	complete(cb, done, false, ErrTimeout.Error(), nil)
}

// findReqLocked binary-searches the pending requests for id.
func (h *Host) findReqLocked(id uint64) (int, bool) {
	return slices.BinarySearchFunc(h.reqs, id, func(p *pendingReq, id uint64) int { return cmp.Compare(p.id, id) })
}

// removeReqLocked takes request i out of the table, stops its timer and
// parks its record just past the table's end for reuse. The caller holds
// h.mu, so no path reaches the record as that request again.
func (h *Host) removeReqLocked(i int) {
	p, n := h.reqs[i], len(h.reqs)-1
	p.timer.Stop()
	p.peer, p.cb, p.done = "", nil, nil
	copy(h.reqs[i:], h.reqs[i+1:])
	h.reqs[n] = p
	h.reqs = h.reqs[:n]
}

// complete hands a request's outcome to the callback it registered: cb gets
// it raw, done gets nil or the remote's error.
func complete(cb replyFunc, done func(error), ok bool, errMsg string, rest []byte) {
	switch {
	case cb != nil:
		cb(ok, errMsg, rest)
	case ok:
		done(nil)
	default:
		done(remoteErr(errMsg))
	}
}

// resolve completes a pending request with the remote's reply. Replies are
// accepted only from the peer the request was sent to.
func (h *Host) resolve(from string, id uint64, ok bool, errMsg string, rest []byte) {
	h.mu.Lock()
	i, live := h.findReqLocked(id)
	if live && h.reqs[i].peer != from {
		h.recordLocked("forged-reply", from, "", false, "reply from wrong peer")
		h.mu.Unlock()
		return
	}
	if !live {
		h.mu.Unlock()
		return // duplicate or post-timeout reply
	}
	cb, done := h.reqs[i].cb, h.reqs[i].done
	h.removeReqLocked(i)
	h.mu.Unlock()
	complete(cb, done, ok, errMsg, rest)
}

// remoteError is an error string reported by the remote host that names no
// kernel error: "core: remote error: <msg>", matching ErrRemote.
type remoteError string

func (e remoteError) Error() string { return ErrRemote.Error() + ": " + string(e) }

func (e remoteError) Unwrap() error { return ErrRemote }

// remoteErr converts a reply's error string into a kernel error.
func remoteErr(msg string) error {
	switch msg {
	case ErrTimeout.Error():
		return ErrTimeout
	case ErrNoService.Error():
		return ErrNoService
	case ErrRefused.Error():
		return ErrRefused
	case ErrNotFound.Error():
		return ErrNotFound
	case "":
		return ErrRemote
	default:
		return remoteErrs.get(msg)
	}
}

// remoteErrs is the memo behind remoteErr: a refusal's reason repeats
// endlessly (a courier past its hop budget retries the same neighbor), and
// boxing the reason as an error allocated on every refusal. Peers choose
// the text, so the memo is bounded in entries and in reason length; past
// either bound each call boxes a fresh value.
var remoteErrs errMemo

const (
	remoteErrMemoMax    = 64
	remoteErrMemoMaxLen = 64
)

// errMemo maps a reason to its one boxed remoteError. It is safe for
// concurrent use: the TCP endpoint resolves replies on one read loop per
// peer.
type errMemo struct {
	mu   sync.RWMutex
	errs map[string]error
}

// get returns msg's remoteError, the memoized one when there is one.
func (m *errMemo) get(msg string) error {
	if len(msg) > remoteErrMemoMaxLen {
		return remoteError(msg)
	}
	m.mu.RLock()
	err, ok := m.errs[msg]
	m.mu.RUnlock()
	if ok {
		return err
	}
	err = remoteError(msg)
	m.mu.Lock()
	if prev, ok := m.errs[msg]; ok {
		err = prev // another read loop got here first
	} else if len(m.errs) < remoteErrMemoMax {
		if m.errs == nil {
			m.errs = make(map[string]error, remoteErrMemoMax)
		}
		m.errs[msg] = err
	}
	m.mu.Unlock()
	return err
}

// sendError reports a request or message the transport would not send. It
// names the operation and the peer, and wraps the transport's error.
type sendError struct {
	op      sendOp
	subject string // the service (opCall) or unit name (opFetch)
	peer    string
	err     error
}

// sendOp is the kernel operation a sendError reports.
type sendOp uint8

const (
	opCall sendOp = iota
	opEval
	opFetch
	opAgent
	opPublish
	opMessage
)

func (e *sendError) Error() string {
	var head string
	switch e.op {
	case opCall:
		head = "core: call " + e.subject + " at "
	case opEval:
		head = "core: eval at "
	case opFetch:
		head = "core: fetch " + e.subject + " from "
	case opAgent:
		head = "core: send agent to "
	case opPublish:
		head = "core: publish to "
	default:
		head = "core: message to "
	}
	return head + e.peer + ": " + e.err.Error()
}

func (e *sendError) Unwrap() error { return e.err }

// Call invokes a Client/Server service on the host at to. cb receives the
// reply frames or an error; it fires exactly once.
func (h *Host) Call(to, service string, args [][]byte, cb func(results [][]byte, err error)) {
	id := h.newRequest(to, func(ok bool, errMsg string, rest []byte) {
		if !ok {
			cb(nil, remoteErr(errMsg))
			return
		}
		r := wire.NewReader(rest)
		n := r.Uint()
		results := make([][]byte, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			results = append(results, r.Bytes())
		}
		if r.Err() != nil {
			cb(nil, fmt.Errorf("core: malformed call reply: %w", r.Err()))
			return
		}
		cb(results, nil)
	}, nil)
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(msgCall)
	b.PutUint(id)
	b.PutString(service)
	b.PutUint(uint64(len(args)))
	for _, a := range args {
		b.PutBytes(a)
	}
	if err := h.sendRequest(id, to, b.Bytes()); err != nil {
		cb(nil, &sendError{op: opCall, subject: service, peer: to, err: err})
	}
}

// Eval ships a code unit to the host at to for Remote Evaluation and returns
// the final VM stack of the named entry point. The unit should be signed
// acceptably for the remote's policy.
func (h *Host) Eval(to string, unit *lmu.Unit, entry string, args []int64, cb func(stack []int64, err error)) {
	id := h.newRequest(to, func(ok bool, errMsg string, rest []byte) {
		if !ok {
			cb(nil, remoteErr(errMsg))
			return
		}
		r := wire.NewReader(rest)
		n := r.Uint()
		stack := make([]int64, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			stack = append(stack, r.Int())
		}
		if r.Err() != nil {
			cb(nil, fmt.Errorf("core: malformed eval reply: %w", r.Err()))
			return
		}
		cb(stack, nil)
	}, nil)
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(msgEval)
	b.PutUint(id)
	b.PutPacked(unit)
	b.PutString(entry)
	b.PutUint(uint64(len(args)))
	for _, a := range args {
		b.PutInt(a)
	}
	if err := h.sendRequest(id, to, b.Bytes()); err != nil {
		cb(nil, &sendError{op: opEval, peer: to, err: err})
	}
}

// Fetch retrieves a published unit from the host at from (Code On Demand).
// On success the unit has been verified and stored in the local registry.
func (h *Host) Fetch(from, name, minVersion string, cb func(u *lmu.Unit, err error)) {
	id := h.newRequest(from, func(ok bool, errMsg string, rest []byte) {
		if !ok {
			cb(nil, remoteErr(errMsg))
			return
		}
		r := wire.NewReader(rest)
		packed := r.Bytes()
		if r.Err() != nil {
			cb(nil, fmt.Errorf("core: malformed fetch reply: %w", r.Err()))
			return
		}
		u, err := lmu.Unpack(packed)
		if err != nil {
			cb(nil, fmt.Errorf("core: fetched unit: %w", err))
			return
		}
		if err := h.verify("fetch-in", from, u); err != nil {
			cb(nil, err)
			return
		}
		if err := h.Registry().Put(u); err != nil {
			cb(nil, fmt.Errorf("core: store fetched unit: %w", err))
			return
		}
		cb(u, nil)
	}, nil)
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(msgFetch)
	b.PutUint(id)
	b.PutString(name)
	b.PutString(minVersion)
	if err := h.sendRequest(id, from, b.Bytes()); err != nil {
		cb(nil, &sendError{op: opFetch, subject: name, peer: from, err: err})
	}
}

// Ensure fetches name from remote only if no satisfying version is already
// stored locally, then returns the local unit. This is the COD fast path:
// cache hits cost no traffic.
func (h *Host) Ensure(remote, name, minVersion string, cb func(u *lmu.Unit, hit bool, err error)) {
	if u, ok := h.storedRegistry().GetAtLeast(name, minVersion); ok {
		cb(u, true, nil)
		return
	}
	h.Fetch(remote, name, minVersion, func(u *lmu.Unit, err error) {
		cb(u, false, err)
	})
}

// EnsureWithDeps ensures name and, recursively, every component in its
// dependency closure, fetching whatever is missing from the same remote. cb
// fires once, after the whole closure is locally resolvable (or with the
// first error). This is how a fetched component that builds on other
// components becomes runnable on arrival.
func (h *Host) EnsureWithDeps(remote, name, minVersion string, cb func(u *lmu.Unit, err error)) {
	h.Ensure(remote, name, minVersion, func(u *lmu.Unit, _ bool, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		h.ensureDeps(remote, u.Manifest.Deps, make(map[string]bool), func(err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			cb(u, nil)
		})
	})
}

// ensureDeps fetches missing dependencies depth-first, sequentially, cycle-
// safe via visited.
func (h *Host) ensureDeps(remote string, deps []lmu.Dep, visited map[string]bool, cb func(error)) {
	if len(deps) == 0 {
		cb(nil)
		return
	}
	d := deps[0]
	rest := deps[1:]
	if visited[d.Name] {
		h.ensureDeps(remote, rest, visited, cb)
		return
	}
	visited[d.Name] = true
	h.Ensure(remote, d.Name, d.MinVersion, func(u *lmu.Unit, _ bool, err error) {
		if err != nil {
			cb(fmt.Errorf("core: dependency %s: %w", d.Name, err))
			return
		}
		h.ensureDeps(remote, u.Manifest.Deps, visited, func(err error) {
			if err != nil {
				cb(err)
				return
			}
			h.ensureDeps(remote, rest, visited, cb)
		})
	})
}

// SendAgent transfers an agent unit to the host at to. cb reports whether
// the receiver accepted it; on acceptance the local copy should be
// considered moved.
func (h *Host) SendAgent(to string, unit *lmu.Unit, cb func(err error)) {
	id := h.newRequest(to, nil, cb)
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(msgAgent)
	b.PutUint(id)
	b.PutPacked(unit)
	if err := h.sendRequest(id, to, b.Bytes()); err != nil {
		cb(&sendError{op: opAgent, peer: to, err: err})
	}
}

// PublishTo pushes a unit to the host at to and asks it to publish it for
// Fetch service there. This is how a load driver or deployment tool
// provisions remote daemons with components they can then serve Code On
// Demand from; the receiver accepts only if configured with ServePublish
// and the unit passes its verification policy.
func (h *Host) PublishTo(to string, unit *lmu.Unit, cb func(err error)) {
	id := h.newRequest(to, nil, cb)
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(msgPublish)
	b.PutUint(id)
	b.PutPacked(unit)
	if err := h.sendRequest(id, to, b.Bytes()); err != nil {
		cb(&sendError{op: opPublish, peer: to, err: err})
	}
}

// SendMessage delivers an application-level message to the host at to.
func (h *Host) SendMessage(to, topic string, data []byte) error {
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(msgUser)
	b.PutString(topic)
	b.PutBytes(data)
	if err := h.kch.Send(to, b.Bytes()); err != nil {
		return &sendError{op: opMessage, peer: to, err: err}
	}
	return nil
}

// DeliverLocal injects an application-level message into this host's own
// handlers, as when an agent arrives and hands over its payload. Handlers
// may keep data, so the caller hands over bytes it owns and will not reuse:
// a_deliver copies the payload out of the agent's recycled frame, as a
// message from the wire is copied out of its transport frame.
func (h *Host) DeliverLocal(from, topic string, data []byte) {
	h.mu.Lock()
	handlers := make([]MessageHandler, len(h.msgHandlers))
	copy(handlers, h.msgHandlers)
	h.recordLocked("message", from, topic, true, "")
	h.mu.Unlock()
	for _, fn := range handlers {
		fn(from, topic, data)
	}
}

// handle dispatches one kernel-channel message.
func (h *Host) handle(from string, payload []byte) {
	r := wire.NewReader(payload)
	switch r.Byte() {
	case msgCall:
		h.handleCall(from, r)
	case msgCallReply, msgEvalReply, msgFetchReply, msgAgentAck, msgPublishReply:
		id := r.Uint()
		ok := r.Bool()
		errMsg := r.InternString() // a refusal's reason repeats endlessly
		if r.Err() != nil {
			return
		}
		h.resolve(from, id, ok, errMsg, r.Rest())
	case msgEval:
		h.handleEval(from, r)
	case msgFetch:
		h.handleFetch(from, r)
	case msgAgent:
		h.handleAgent(from, r)
	case msgPublish:
		h.handlePublish(from, r)
	case msgUser:
		topic := r.String()
		data := r.Bytes()
		if r.ExpectEOF() != nil {
			return
		}
		h.DeliverLocal(from, topic, data)
	}
}

// reply sends a reply frame; extra appends type-specific payload after the
// (id, ok, errMsg) header.
func (h *Host) reply(to string, kind byte, id uint64, ok bool, errMsg string, extra func(b *wire.Buffer)) {
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(kind)
	b.PutUint(id)
	b.PutBool(ok)
	b.PutString(errMsg)
	if extra != nil {
		extra(b)
	}
	_ = h.kch.Send(to, b.Bytes()) // replies are best effort
}

func (h *Host) handleCall(from string, r *reader) {
	id := r.Uint()
	service := r.String()
	n := r.Uint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return
	}
	args := make([][]byte, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		args = append(args, r.Bytes())
	}
	if r.ExpectEOF() != nil {
		return
	}
	h.mu.Lock()
	fn, ok := h.services[service]
	h.recordLocked("call", from, service, ok, "")
	h.mu.Unlock()
	if !ok {
		h.reply(from, msgCallReply, id, false, ErrNoService.Error(), nil)
		return
	}
	results, err := fn(from, args)
	if err != nil {
		h.reply(from, msgCallReply, id, false, err.Error(), nil)
		return
	}
	h.reply(from, msgCallReply, id, true, "", func(b *wire.Buffer) {
		b.PutUint(uint64(len(results)))
		for _, res := range results {
			b.PutBytes(res)
		}
	})
}

// handleEval decodes the request unit in place, aliasing the frame the
// transport lends for this call: nothing keeps the unit past the return.
// verify keeps only a digest, CachedProgram copies the code into its key,
// the VM decodes its own program, and putEval clears the context's unit.
func (h *Host) handleEval(from string, r *reader) {
	id := r.Uint()
	packed := r.AliasBytes()
	entry := r.String()
	n := r.Uint()
	if r.Err() != nil || n > uint64(r.Remaining())+1 {
		return
	}
	args := make([]int64, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		args = append(args, r.Int())
	}
	if r.ExpectEOF() != nil {
		return
	}
	if !h.serveEval {
		h.reply(from, msgEvalReply, id, false, ErrRefused.Error(), nil)
		return
	}
	u, err := lmu.Unpack(packed)
	if err != nil {
		h.reply(from, msgEvalReply, id, false, err.Error(), nil)
		return
	}
	if err := h.verify("eval", from, u); err != nil {
		h.reply(from, msgEvalReply, id, false, err.Error(), nil)
		return
	}
	stack, steps, err := h.runUnit(u, entry, args)
	if err != nil {
		h.reply(from, msgEvalReply, id, false, err.Error(), nil)
		return
	}
	send := func() {
		h.reply(from, msgEvalReply, id, true, "", func(b *wire.Buffer) {
			b.PutUint(uint64(len(stack)))
			for _, v := range stack {
				b.PutInt(v)
			}
		})
	}
	// Model compute time: the reply leaves only after the host has "spent"
	// steps/ComputeRate of virtual time on the work.
	if h.computeRate > 0 && steps > 0 {
		delay := time.Duration(float64(steps) / h.computeRate * float64(time.Second))
		h.sched.NewTimer(send).Reset(delay)
		return
	}
	send()
}

func (h *Host) handleFetch(from string, r *reader) {
	id := r.Uint()
	name := r.String()
	minVersion := r.String()
	if r.ExpectEOF() != nil {
		return
	}
	h.mu.Lock()
	pub, reg := h.published[name], h.reg
	h.recordLocked("fetch", from, name, pub, "")
	h.mu.Unlock()
	if !pub {
		h.reply(from, msgFetchReply, id, false, ErrNotFound.Error(), nil)
		return
	}
	u, ok := reg.GetAtLeast(name, minVersion)
	if !ok {
		h.reply(from, msgFetchReply, id, false, ErrNotFound.Error(), nil)
		return
	}
	h.reply(from, msgFetchReply, id, true, "", func(b *wire.Buffer) {
		b.PutPacked(u)
	})
}

// handleAgent decodes an arriving agent into a recycled unit: the frame is
// borrowed from the transport, and UnpackFrom copies it into the unit's own
// reused buffer. A unit the kernel or Admit refuses goes straight back to
// the pool; one that starts belongs to the runtime (AgentRuntime). The runtime's
// verdict is acked before an admitted agent starts, so its onward sends
// follow the ack.
func (h *Host) handleAgent(from string, r *reader) {
	id := r.Uint()
	packed := r.AliasBytes()
	if r.ExpectEOF() != nil {
		return
	}
	h.mu.Lock()
	rt := h.agents
	if rt == nil {
		h.recordLocked("agent", from, "", false, "no agent runtime")
		h.mu.Unlock()
		h.reply(from, msgAgentAck, id, false, ErrRefused.Error(), nil)
		return
	}
	u := h.getAgentLocked()
	h.mu.Unlock()
	if err := u.UnpackFrom(packed); err != nil {
		h.RecycleAgent(u)
		h.reply(from, msgAgentAck, id, false, err.Error(), nil)
		return
	}
	if u.Manifest.Kind != lmu.KindAgent {
		h.RecycleAgent(u)
		h.reply(from, msgAgentAck, id, false, "unit is not an agent", nil)
		return
	}
	if err := h.verify("agent", from, u); err != nil {
		h.RecycleAgent(u)
		h.reply(from, msgAgentAck, id, false, err.Error(), nil)
		return
	}
	if accepted, reason := rt.Admit(u); !accepted {
		if reason == "" {
			reason = ErrRefused.Error()
		}
		h.reply(from, msgAgentAck, id, false, reason, nil)
		h.RecycleAgent(u)
		return
	}
	h.reply(from, msgAgentAck, id, true, "", nil)
	rt.Start(u)
}

func (h *Host) handlePublish(from string, r *reader) {
	id := r.Uint()
	packed := r.Bytes()
	if r.ExpectEOF() != nil {
		return
	}
	if !h.servePublish {
		h.mu.Lock()
		h.recordLocked("publish", from, "", false, "publishing disabled")
		h.mu.Unlock()
		h.reply(from, msgPublishReply, id, false, ErrRefused.Error(), nil)
		return
	}
	u, err := lmu.Unpack(packed)
	if err != nil {
		h.reply(from, msgPublishReply, id, false, err.Error(), nil)
		return
	}
	if err := h.verify("publish", from, u); err != nil {
		h.reply(from, msgPublishReply, id, false, err.Error(), nil)
		return
	}
	if err := h.Publish(u); err != nil {
		h.reply(from, msgPublishReply, id, false, err.Error(), nil)
		return
	}
	h.reply(from, msgPublishReply, id, true, "", nil)
}
