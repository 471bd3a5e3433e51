package scenario

import (
	"testing"
	"time"

	"logmob/internal/app"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
)

// kernelFailedSendAllocs is what core.Host.Fetch allocates when the
// transport refuses the send: the request's reply closure, the *sendError
// and the transport's *netsim.ErrUnreachable (core/errors_test.go pins
// their text and chain).
const kernelFailedSendAllocs = 3

// TestFetchWaveRetryAllocs pins a FetchWave client whose server stays out
// of range: each retry re-arms the client's one timer from the failed
// fetch's callback, which was bound once at Start. So the queue holds two
// events however long the client retries: the retry timer's and the one the
// kernel's recycled request record keeps for its stopped timeout. A retry
// allocates nothing beyond the kernel's failed send.
func TestFetchWaveRetryAllocs(t *testing.T) {
	w := NewWorld(1)
	w.AddHost("server", netsim.Position{}, netsim.AdHoc, nil)
	w.AddHost("client", netsim.Position{X: 10 * netsim.AdHoc.Range}, netsim.AdHoc, nil)
	w.Pops["servers"], w.Pops["clients"] = []string{"server"}, []string{"client"}
	wave := &FetchWave{
		Pop: "clients", ServerPop: "servers", Retry: time.Second,
		Unit: func(w *World) *lmu.Unit { return app.BuildCodec(w.ID, "wave", "1.0", 256) },
	}
	wave.Start(w)
	retry := func() {
		w.Sim.RunFor(time.Second)
		if n := w.Sim.Pending(); n > 2 {
			t.Fatalf("%d events queued for one retrying client, want at most 2", n)
		}
	}
	for i := 0; i < 100; i++ {
		retry()
	}
	if wave.Stats.Fetched != 0 {
		t.Fatal("the out-of-range client fetched the unit")
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	if got := testing.AllocsPerRun(200, retry); got > kernelFailedSendAllocs {
		t.Errorf("a failed retry allocates %v times, want at most %d (the kernel's failed send)", got, kernelFailedSendAllocs)
	}
}
