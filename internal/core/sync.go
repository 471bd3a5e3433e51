package core

import (
	"context"

	"logmob/internal/lmu"
)

// Blocking wrappers over the kernel's asynchronous paradigm APIs.
//
// These are for code on the real TCP transport (cmd/logmobd and other
// daemons) that runs on a goroutine of its own. They must not be called from
// inside a handler or a kernel callback: over TCP those run on the
// connection's read goroutine (see transport.Handler), and the reply a *Sync
// call waits for could only be read by that same goroutine. Over the
// simulator the event loop is single-goroutine, with the same effect, so
// simulator code uses the callback forms.

// await runs one asynchronous kernel call to completion or ctx cancellation.
// The channel is buffered so a reply landing after the caller gave up does
// not block the kernel's handler goroutine.
func await[T any](ctx context.Context, start func(done func(T, error))) (T, error) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	start(func(v T, err error) { ch <- result{v, err} })
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// CallSync invokes a remote service and waits for the reply or ctx
// cancellation.
func (h *Host) CallSync(ctx context.Context, to, service string, args [][]byte) ([][]byte, error) {
	return await(ctx, func(done func([][]byte, error)) { h.Call(to, service, args, done) })
}

// EvalSync ships a unit for Remote Evaluation and waits for its result
// stack.
func (h *Host) EvalSync(ctx context.Context, to string, unit *lmu.Unit, entry string, args []int64) ([]int64, error) {
	return await(ctx, func(done func([]int64, error)) { h.Eval(to, unit, entry, args, done) })
}

// FetchSync retrieves a published unit and waits for it to be verified and
// stored locally.
func (h *Host) FetchSync(ctx context.Context, from, name, minVersion string) (*lmu.Unit, error) {
	return await(ctx, func(done func(*lmu.Unit, error)) { h.Fetch(from, name, minVersion, done) })
}

// PublishToSync pushes a unit to a remote host for Fetch service there and
// waits for its accept or refuse.
func (h *Host) PublishToSync(ctx context.Context, to string, unit *lmu.Unit) error {
	_, err := await(ctx, func(done func(struct{}, error)) {
		h.PublishTo(to, unit, func(err error) { done(struct{}{}, err) })
	})
	return err
}
