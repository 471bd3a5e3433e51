package agent

import (
	"logmob/internal/vm"
	"logmob/internal/wire"
)

// CourierSource is the assembly for the store-carry-forward courier agent
// used by the paper's disaster-communication scenario: "The message can be
// encapsulated in a mobile agent which migrates from host to host, until it
// reaches the required destination."
//
// The agent loops: if this host is the destination, deliver the payload and
// halt; otherwise pick a next hop (destination if adjacent, else a random
// neighbor) and migrate; if no neighbor exists or migration fails, sleep and
// retry — the "carry" in store-carry-forward, waiting for the topology to
// change under node mobility.
//
// Global 0 counts migration attempts, as an example of state that travels
// with the agent via VM snapshots.
const CourierSource = `
.globals 1
.entry main
main:
loop:
	host a_at_dest
	jnz deliver
	host a_select_toward_dest
	jz wait
	gload 0
	push 1
	add
	gstore 0              ; attempts++
	host a_migrate
	pop                   ; drop the arrived/failed flag; loop re-evaluates
	jmp loop              ; re-evaluate wherever we are now
wait:
	push 1000
	host a_sleep          ; carry: wait 1s for the topology to change
	jmp loop
deliver:
	host a_deliver
	pop                   ; drop a_deliver's result
	gload 0
	halt                  ; final stack: [attempts]
`

// CourierProgram is the assembled courier.
var CourierProgram = vm.MustAssemble(CourierSource)

// NewCourierData builds the data space for a courier carrying payload to
// dest, delivered under topic.
func NewCourierData(dest, topic string, payload []byte) map[string][]byte {
	return map[string][]byte{
		KeyDest:    []byte(dest),
		KeyTopic:   []byte(topic),
		KeyPayload: append([]byte(nil), payload...),
	}
}

// EncodeItinerary packs an ordered host list for KeyItinerary.
func EncodeItinerary(hosts []string) []byte {
	var b wire.Buffer
	b.PutStringSlice(hosts)
	return b.Bytes()
}

// DecodeItinerary unpacks KeyItinerary; malformed input yields nil.
func DecodeItinerary(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	r := wire.NewReader(data)
	hosts := r.StringSlice()
	if r.ExpectEOF() != nil {
		return nil
	}
	return hosts
}
