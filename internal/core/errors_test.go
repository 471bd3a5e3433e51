package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"logmob/internal/lmu"
	"logmob/internal/netsim"
)

// TestKernelErrorsMatchFormatted pins the typed errors that replaced
// fmt.Errorf on the refusal and send-failure paths: each reads exactly as
// the formatted error did, and errors.Is and errors.As see the same chain
// through it. Every send-failure case runs the real operation against a
// peer that is down, so the kernel's own mapping from operation to text is
// what is checked.
func TestKernelErrorsMatchFormatted(t *testing.T) {
	w := newWorld(t)
	a := w.addHost(t, "a", nil)
	w.addHost(t, "down", nil)
	w.net.SetUp("down", false)
	unit := w.signedProgram("tool/x", addSrc)

	var got error
	keep := func(err error) { got = err }
	for _, c := range []struct {
		name   string
		run    func()
		format string
		args   []any
	}{
		{"call", func() { a.Call("down", "ping", nil, func(_ [][]byte, err error) { keep(err) }) }, "core: call %s at %s: %w", []any{"ping", "down"}},
		{"eval", func() { a.Eval("down", unit, "main", nil, func(_ []int64, err error) { keep(err) }) }, "core: eval at %s: %w", []any{"down"}},
		{"fetch", func() { a.Fetch("down", "tool/x", "", func(_ *lmu.Unit, err error) { keep(err) }) }, "core: fetch %s from %s: %w", []any{"tool/x", "down"}},
		{"agent", func() { a.SendAgent("down", unit, keep) }, "core: send agent to %s: %w", []any{"down"}},
		{"publish", func() { a.PublishTo("down", unit, keep) }, "core: publish to %s: %w", []any{"down"}},
		{"message", func() { keep(a.SendMessage("down", "sms", nil)) }, "core: message to %s: %w", []any{"down"}},
	} {
		got = nil
		c.run()
		var unreachable *netsim.ErrUnreachable
		if !errors.As(got, &unreachable) {
			t.Fatalf("%s: %v does not wrap the transport's *netsim.ErrUnreachable", c.name, got)
		}
		sameError(t, c.name, got, fmt.Errorf(c.format, append(c.args, unreachable)...))
	}
	for _, msg := range []string{"hop budget exceeded", "agent capacity exhausted", "unit is not an agent"} {
		sameError(t, msg, remoteErr(msg), fmt.Errorf("%w: %s", ErrRemote, msg))
	}
	if len(a.reqs) != 0 {
		t.Errorf("failed sends left %d requests pending", len(a.reqs))
	}
}

// sameError fails unless got reads as want, and errors.Is and errors.As
// answer alike for both.
func sameError(t *testing.T, name string, got, want error) {
	t.Helper()
	if got.Error() != want.Error() {
		t.Errorf("%s: %q, want %q", name, got, want)
	}
	for _, target := range []error{ErrRemote, ErrTimeout, ErrNoService, ErrRefused, ErrNotFound} {
		if g, w := errors.Is(got, target), errors.Is(want, target); g != w {
			t.Errorf("%s: errors.Is(err, %v) = %v, want %v", name, target, g, w)
		}
	}
	var g, w *netsim.ErrUnreachable
	if okG, okW := errors.As(got, &g), errors.As(want, &w); okG != okW || g != w {
		t.Errorf("%s: errors.As(*netsim.ErrUnreachable) = %v %v, want %v %v", name, okG, g, okW, w)
	}
}

// errSink keeps the errors the allocation checks make from being optimised
// away.
var errSink error

// TestRemoteErrMemo pins the memo behind remoteErr: a repeated reason is
// answered with the one boxed error and allocates nothing; the memo stops
// filling at its bound, and a reason past the bound, or longer than the
// memo keeps, is still boxed and reads exactly as before.
func TestRemoteErrMemo(t *testing.T) {
	var m errMemo
	want := func(msg string) error { return fmt.Errorf("%w: %s", ErrRemote, msg) }
	const reason = "hop budget exceeded"
	first := m.get(reason)
	sameError(t, reason, first, want(reason))
	if got := testing.AllocsPerRun(100, func() { errSink = m.get(reason) }); got != 0 {
		t.Errorf("a repeated reason allocates %v times, want 0", got)
	}
	if m.get(reason) != first {
		t.Error("a repeated reason did not compare equal to its first error")
	}
	for i := range 2 * remoteErrMemoMax {
		msg := fmt.Sprintf("reason %d", i)
		sameError(t, msg, m.get(msg), want(msg))
	}
	if len(m.errs) != remoteErrMemoMax {
		t.Errorf("the memo holds %d reasons, want its bound %d", len(m.errs), remoteErrMemoMax)
	}
	past := fmt.Sprintf("reason %d", 2*remoteErrMemoMax-1)
	if got := testing.AllocsPerRun(100, func() { errSink = m.get(past) }); got != 1 {
		t.Errorf("a reason past the bound allocates %v times, want 1 (its box)", got)
	}
	if m.get(past) != m.get(past) {
		t.Error("equal reasons past the bound do not compare equal")
	}
	long := strings.Repeat("x", remoteErrMemoMaxLen+1)
	var fresh errMemo
	sameError(t, "long reason", fresh.get(long), want(long))
	if len(fresh.errs) != 0 {
		t.Error("the memo kept a reason longer than its length bound")
	}

	// remoteErr itself: the kernel's sentinels are still themselves, and any
	// other reason reads as ErrRemote's.
	for _, sentinel := range []error{ErrTimeout, ErrNoService, ErrRefused, ErrNotFound} {
		if got := remoteErr(sentinel.Error()); got != sentinel {
			t.Errorf("remoteErr(%q) = %v, want the sentinel", sentinel.Error(), got)
		}
	}
	if remoteErr("") != ErrRemote {
		t.Error(`remoteErr("") is not ErrRemote`)
	}
	sameError(t, reason, remoteErr(reason), want(reason))
}
