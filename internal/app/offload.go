package app

import (
	"logmob/internal/lmu"
	"logmob/internal/security"
	"logmob/internal/vm"
)

// The computation-distribution scenario: "REV techniques can be used to
// distribute computations to more powerful hosts ... allowing for faster
// application execution."

// primeCountSource counts primes <= n by trial division: a genuinely
// CPU-bound workload whose instruction count scales superlinearly, so the
// local-versus-offload tradeoff is real.
const primeCountSource = `
.entry main
main:                 ; arg: n
	store 0           ; n
	push 0
	store 1           ; count
	push 2
	store 2           ; i
outer:
	load 2
	load 0
	gt
	jnz done          ; i > n
	load 2
	call isprime
	jz notp
	load 1
	push 1
	add
	store 1
notp:
	load 2
	push 1
	add
	store 2
	jmp outer
done:
	load 1
	halt
isprime:              ; arg: x -> 1/0
	store 0
	push 2
	store 1           ; d
ploop:
	load 1
	load 1
	mul
	load 0
	gt
	jnz prime         ; d*d > x
	load 0
	load 1
	mod
	jz notprime
	load 1
	push 1
	add
	store 1
	jmp ploop
prime:
	push 1
	ret
notprime:
	push 0
	ret
`

// PrimeCountProgram is the assembled workload.
var PrimeCountProgram = vm.MustAssemble(primeCountSource)

// BuildPrimeJob packages the prime-count workload as a signed Remote
// Evaluation request.
func BuildPrimeJob(publisher *security.Identity) *lmu.Unit {
	u := &lmu.Unit{
		Manifest: lmu.Manifest{
			Name:      "job/primes",
			Version:   "1.0",
			Kind:      lmu.KindRequest,
			Publisher: publisher.Name,
		},
		Code: PrimeCountProgram.Encode(),
	}
	publisher.Sign(u)
	return u
}
