package scenario

import (
	"slices"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/vm"
)

// GreedyCourierSource is a crowd-grade store-carry-forward courier: greedy
// geographic forwarding (hop to the neighbor closest to the destination,
// provided by the geo_pick_greedy capability from GreedyGeoCaps) with a
// carry fallback — at a local minimum or partition edge it parks and lets
// node mobility ferry it. A pure random walk cannot cross a large field in
// time once the crowd's giant component holds over a thousand nodes.
//
// The courier is also paced to at most one hop per second. Pacing matters
// at crowd scale: an unpaced courier hops as fast as the radio allows
// (~25 hops/s), and each hop whose ack the topology breaks in flight
// resumes the retained copy on the sender while the receiver runs the
// transferred one — at thousands of link changes per second the courier
// population grows exponentially. One hop per second keeps the
// at-least-once duplication rate negligible.
const GreedyCourierSource = `
.globals 1
.entry main
main:
loop:
	host a_at_dest
	jnz deliver
	host geo_pick_greedy  ; pushes blob index, then found flag
	jz carry              ; no closer neighbor: carry (index still stacked)
	host a_select_blob    ; select the picked hop from the data space
	jz wait
	gload 0
	push 1
	add
	gstore 0              ; attempts++
	host a_migrate
	pop                   ; drop the arrived/failed flag; loop re-evaluates
	push 1000
	host a_sleep          ; pace: at most one hop per second
	jmp loop
carry:
	pop                   ; drop the unused blob index
wait:
	push 1000
	host a_sleep          ; carry: wait for mobility to change the map
	jmp loop
deliver:
	host a_deliver
	pop
	gload 0
	halt
`

// GreedyCourierProgram is the assembled GreedyCourierSource.
var GreedyCourierProgram = vm.MustAssemble(GreedyCourierSource)

// greedyHopKey is the data-space key geo_pick_greedy stores its choice
// under, addressed from the program via a_select_blob.
const greedyHopKey = "geo/hop"

// GreedyGeoCaps provides geo_pick_greedy: choose the radio neighbor
// geographically closest to the agent's destination, provided it is strictly
// closer than here (GPSR-style greedy mode; the courier carries otherwise).
// The pick is stored in the agent's data space and returned as (blob index,
// found) for a_select_blob. Neighbor iteration is insertion-ordered with
// first-wins ties, so the choice is deterministic.
func GreedyGeoCaps(w *World) []vm.HostFunc {
	return []vm.HostFunc{{
		Name: "geo_pick_greedy", Arity: 0,
		Fn: func(m *vm.Machine, _ []int64) ([]int64, int64, error) {
			p, u := agent.Current(m)
			dest := string(u.Data[agent.KeyDest])
			destNode := w.Net.Node(dest)
			hereNode := w.Net.Node(p.Host().Name())
			if destNode == nil || hereNode == nil {
				return m.Ret2(0, 0), 0, nil
			}
			best := ""
			bestD := hereNode.Pos().Dist(destNode.Pos())
			for _, nb := range w.Net.Neighbors(hereNode.ID) {
				if nb == dest {
					best = nb
					break
				}
				if d := w.Net.Node(nb).Pos().Dist(destNode.Pos()); d < bestD {
					best, bestD = nb, d
				}
			}
			if best == "" {
				return m.Ret2(0, 0), 0, nil
			}
			u.Data[greedyHopKey] = []byte(best)
			// The same key list a_select_blob indexes.
			i, _ := slices.BinarySearch(core.MachineExecCtx(m).DataKeys(), greedyHopKey)
			return m.Ret2(int64(i), 1), 0, nil
		},
	}}
}
