package transport

import "testing"

func TestMuxRoutesByChannel(t *testing.T) {
	sim, ea, eb := newSimPair(t)
	ma := NewMux(ea)
	mb := NewMux(eb)

	var kernelGot, beaconGot string
	mb.Channel(ChanKernel).SetHandler(func(from string, p []byte) { kernelGot = string(p) })
	mb.Channel(ChanBeacon).SetHandler(func(from string, p []byte) { beaconGot = string(p) })

	if err := ma.Channel(ChanKernel).Send("b", []byte("k")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := ma.Channel(ChanBeacon).Send("b", []byte("d")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sim.RunUntilIdle(0)
	if kernelGot != "k" || beaconGot != "d" {
		t.Errorf("kernel=%q beacon=%q", kernelGot, beaconGot)
	}
}

func TestMuxUnhandledChannelDropped(t *testing.T) {
	sim, ea, eb := newSimPair(t)
	ma := NewMux(ea)
	NewMux(eb) // no handlers installed
	if err := ma.Channel(ChanKernel).Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sim.RunUntilIdle(0) // must not panic
}

func TestMuxDoubleHandlerPanics(t *testing.T) {
	_, ea, _ := newSimPair(t)
	ma := NewMux(ea)
	ma.Channel(ChanKernel).SetHandler(func(string, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second SetHandler on same channel did not panic")
		}
	}()
	ma.Channel(ChanKernel).SetHandler(func(string, []byte) {})
}

func TestMuxChannelClose(t *testing.T) {
	sim, ea, eb := newSimPair(t)
	ma := NewMux(ea)
	mb := NewMux(eb)
	ch := mb.Channel(ChanKernel)
	count := 0
	ch.SetHandler(func(string, []byte) { count++ })
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	// The slot is free again: a fresh view of the channel installs into it.
	mb.Channel(ChanKernel).SetHandler(func(string, []byte) { count += 10 })
	if err := ma.Channel(ChanKernel).Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	sim.RunUntilIdle(0)
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

// TestMuxChannelBeyondKnownIDs: the handler table is pre-sized for the four
// known channels; a larger ID grows it on SetHandler, and a message or a
// Close for an ID nobody registered neither grows it nor panics.
func TestMuxChannelBeyondKnownIDs(t *testing.T) {
	sim, ea, eb := newSimPair(t)
	ma := NewMux(ea)
	mb := NewMux(eb)
	if err := mb.Channel(250).Close(); err != nil {
		t.Fatal(err)
	}
	if err := ma.Channel(250).Send("b", []byte("early")); err != nil {
		t.Fatal(err)
	}
	sim.RunUntilIdle(0) // dropped: no handler, ID past the table
	if got := len(mb.handlers); got != int(ChanCluster)+1 {
		t.Fatalf("table grew to %d without a handler", got)
	}
	var got string
	mb.Channel(200).SetHandler(func(_ string, p []byte) { got = string(p) })
	if err := ma.Channel(200).Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ma.Channel(201).Send("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	sim.RunUntilIdle(0)
	if got != "x" {
		t.Errorf("channel 200 got %q, want x", got)
	}
}
