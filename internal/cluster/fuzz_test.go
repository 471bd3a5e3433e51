package cluster

import (
	"slices"
	"testing"

	"logmob/internal/netsim"
	"logmob/internal/transport"
	"logmob/internal/wire"
)

// sendCounter is an Endpoint that counts the frames sent through it, and
// their bytes.
type sendCounter struct {
	transport.Endpoint
	sent, bytes int
}

func (c *sendCounter) Send(to string, payload []byte) error {
	c.sent++
	c.bytes += len(payload)
	return c.Endpoint.Send(to, payload)
}

// clusterFrame encodes one cluster frame as Node.send does.
func clusterFrame(kind byte, list ...string) []byte {
	var b wire.Buffer
	b.PutByte(kind)
	if kind == kindHello || kind == kindPeers {
		b.PutStringSlice(list)
	}
	return b.Bytes()
}

// decodeFrame reads payload as the cluster wire format defines it: a hello
// or peers frame is its kind and a string list, a ping or pong its kind
// alone. It returns the list and whether the frame decodes.
func decodeFrame(payload []byte) ([]string, bool) {
	r := wire.NewReader(payload)
	var list []string
	switch r.Byte() {
	case kindHello, kindPeers:
		list = r.StringSlice()
	case kindPing, kindPong:
	default:
		return nil, false
	}
	return list, r.ExpectEOF() == nil
}

// FuzzClusterDispatch feeds a node's receive path — what any peer can reach
// once the ack/retry layer has passed a frame up — arbitrary senders and
// bytes. The node, "self", is joined over a one-node simulated network and
// already knows one peer. It must never panic; its peer set stays sorted,
// unique and free of its own address and ""; a frame that does not decode
// changes neither the peer set nor what the node sends; and a frame that
// does adds no peer but its sender (a listed address joins only once a frame
// arrives from it) and sends at most maxHellosPerFrame hellos plus one
// answer, a peers frame or a pong. The seed
// corpus in testdata/fuzz holds real hello, peers, ping and pong frames,
// frames from the node itself and from "", and frames that do not decode.
func FuzzClusterDispatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, from string, payload []byte) {
		sim := netsim.NewSim(1)
		net := netsim.NewNetwork(sim)
		net.AddNode("self", netsim.Position{}, netsim.LAN)
		ep, err := transport.NewSimNetwork(net).Endpoint("self")
		if err != nil {
			t.Fatal(err)
		}
		raw := &sendCounter{Endpoint: ep}
		n := Join(raw, sim, Config{})
		defer n.Close()
		n.dispatch("a", clusterFrame(kindPing))
		before, sent := n.Peers(), raw.sent

		n.dispatch(from, payload)
		after := n.Peers()
		if !slices.IsSorted(after) || len(slices.Compact(slices.Clone(after))) != len(after) {
			t.Fatalf("Peers not sorted and unique: %q", after)
		}
		if slices.Contains(after, "self") || slices.Contains(after, "") {
			t.Fatalf("Peers holds the node's own address or \"\": %q", after)
		}
		list, ok := decodeFrame(payload)
		if !ok {
			if !slices.Equal(after, before) || raw.sent != sent {
				t.Fatalf("a frame that does not decode changed the node: peers %q -> %q, %d sends", before, after, raw.sent-sent)
			}
			return
		}
		for _, p := range after {
			if !slices.Contains(before, p) && p != from {
				t.Fatalf("peer %q joined from a frame by %q listing %q", p, from, list)
			}
		}
		if got := raw.sent - sent; got > maxHellosPerFrame+1 {
			t.Fatalf("a frame by %q listing %d addresses made the node send %d frames, want at most %d", from, len(list), got, maxHellosPerFrame+1)
		}
	})
}
