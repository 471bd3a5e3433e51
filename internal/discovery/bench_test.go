package discovery

import (
	"fmt"
	"math"
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/transport"
)

// BenchmarkBeaconHear prices one beacon reception, the unit a crowd run does
// hundreds of thousands of times: a listener with a festival-sized table
// (45 records: 15 neighbors over a 3-interval TTL) hears
//
//	known          a sender in its table repeating last round's frame
//	new_sender     a sender new to it whose frame its batch already decoded
//	changed_frame  a known sender whose ad set changed since last round
//
// and known_kiosk is known at a kiosk-sized table of 900 records, where the
// move of the heard record to the table's end is longest.
func BenchmarkBeaconHear(b *testing.B) {
	const ivl = 20 * time.Second
	const festival, kiosk = 45, 900
	setup := func(table int) (*netsim.Sim, *Beacon, *Beacon, []string, [][]byte) {
		sim := netsim.NewSim(1)
		g := NewBeaconBatch(sim, ivl)
		other := NewBeacon(&tapeEndpoint{addr: "other"}, sim, ivl)
		l := NewBeacon(&tapeEndpoint{addr: "listener"}, sim, ivl)
		g.Add(other)
		g.Add(l)
		var from []string
		var frames [][]byte
		for i := 0; i < 2*table; i++ {
			id := fmt.Sprintf("att-%04d", i)
			from = append(from, id)
			frames = append(frames, encodeFrame(Ad{Service: "presence", Provider: id, TTL: 3 * ivl}))
			other.handle(id, frames[i])
		}
		for i := 0; i < table; i++ {
			l.handle(from[i], frames[i])
		}
		return sim, other, l, from, frames
	}

	known := func(table int) func(*testing.B) {
		return func(b *testing.B) {
			_, _, l, from, frames := setup(table)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % table
				l.handle(from[k], frames[k])
			}
		}
	}
	b.Run("known", known(festival))
	b.Run("known_kiosk", known(kiosk))
	b.Run("new_sender", func(b *testing.B) {
		const table = festival
		_, _, l, from, frames := setup(table)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Newcomers arrive until the table has doubled, then the table is
			// cut back to its standing 45 (the cut is part of a round too).
			k := table + i%table
			if k == table && i > 0 {
				for _, r := range l.nbrs[table:] {
					l.release(r.frame)
				}
				l.nbrs = l.nbrs[:table]
			}
			l.handle(from[k], frames[k])
		}
	})
	b.Run("changed_frame", func(b *testing.B) {
		_, _, l, from, _ := setup(festival)
		var alt [2][]byte
		alt[0] = encodeFrame(Ad{Service: "presence", Provider: from[7], TTL: 3 * ivl}, Ad{Service: "print", Provider: from[7], TTL: 3 * ivl})
		alt[1] = encodeFrame(Ad{Service: "presence", Provider: from[7], Attrs: map[string]string{"k": "v"}, TTL: 3 * ivl})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.handle(from[7], alt[i%2])
		}
	})
}

// BenchmarkLookupRegisterFind prices the centralised style's two server-side
// operations together: one lease renewal and one query over a 64-provider,
// 8-service index.
func BenchmarkLookupRegisterFind(b *testing.B) {
	sim := netsim.NewSim(1)
	s := NewLookupServer(&tapeEndpoint{addr: "lookup"}, sim)
	ads := make([]Ad, 64)
	for i := range ads {
		ads[i] = Ad{Provider: fmt.Sprintf("p%02d", i), Service: fmt.Sprintf("svc/%d", i%8), TTL: time.Hour}
		registerWith(s, ads[i])
	}
	q := Query{Service: "svc/3"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.table.put(ads[i%len(ads)])
		if got := s.table.find(q); len(got) != 8 {
			b.Fatalf("find returned %d ads, want 8", len(got))
		}
	}
}

// BenchmarkBeaconCadence measures one beacon interval of discovery traffic
// over a dense grid of ad-hoc nodes, n batches of one (each Start arms its
// own cadence) vs one BeaconBatch of n: the shared batch replaces n timer
// re-arms per interval with one wheel callback.
func BenchmarkBeaconCadence(b *testing.B) {
	const ivl = 30 * time.Second
	for _, mode := range []string{"perhost", "batch"} {
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/n%d", mode, n), func(b *testing.B) {
				s := netsim.NewSim(1)
				net := netsim.NewNetwork(s)
				sn := transport.NewSimNetwork(net)
				var batch *BeaconBatch
				if mode == "batch" {
					batch = NewBeaconBatch(s, ivl)
				}
				side := int(math.Ceil(math.Sqrt(float64(n))))
				class := netsim.AdHoc
				class.Loss = 0
				for i := 0; i < n; i++ {
					name := fmt.Sprintf("h%05d", i)
					pos := netsim.Position{X: float64(i%side) * 20, Y: float64(i/side) * 20}
					net.AddNode(name, pos, class)
					ep, err := sn.Endpoint(name)
					if err != nil {
						b.Fatal(err)
					}
					bcn := NewBeacon(ep, s, ivl)
					bcn.Advertise(Ad{Service: "svc/" + name})
					if batch != nil {
						batch.Add(bcn)
					} else {
						bcn.Start()
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.RunFor(ivl)
				}
			})
		}
	}
}
