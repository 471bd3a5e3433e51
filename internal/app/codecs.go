// Package app is logmob's scenario library: runnable implementations of the
// paper's five motivating scenarios, shared by the examples and the
// experiment harness.
//
//   - codecs.go: "Limited Resources and Dynamic Update" — audio codecs
//     fetched on demand, evicted when space runs out.
//   - market.go: "Shopping and Limiting Connectivity Costs" — a shopping
//     agent versus interactive browsing over a costed link.
//   - cinema.go: "Location-Based Reconfigurability and Services" — a ticket
//     UI fetched on walking into a cinema.
//   - offload.go: "Distributing Computations" — compute workloads shipped
//     to stronger hosts by Remote Evaluation.
//
// (The fifth scenario, disaster messaging, lives in internal/agent as the
// courier program plus internal/baseline's messenger.)
package app

import (
	"fmt"
	"math"
	"math/rand"

	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/security"
	"logmob/internal/vm"
)

// codecSource is the decode program every synthetic codec carries: it
// "decodes" n samples by folding them through the codec's coefficient table
// (data blob 0), returning a checksum — enough real work to exercise the VM
// on every playback.
const codecSource = `
.entry decode
main:
decode:
	store 0          ; n = samples requested
	push 0
	store 1          ; acc
	push 0
	store 2          ; i
	push 0
	host blob_len
	store 3          ; table size
loop:
	load 2
	load 0
	ge
	jnz done         ; i >= n
	push 0
	load 2
	load 3
	mod
	host blob_byte   ; table[i % size]
	load 2
	mul
	load 1
	add
	store 1          ; acc += table[i%size] * i
	load 2
	push 1
	add
	store 2
	jmp loop
done:
	load 1
	halt
`

// codecProgram is the assembled decoder shared by all synthetic codecs.
var codecProgram = vm.MustAssemble(codecSource)

// CodecName returns the unit name for a format, e.g. "codec/ogg".
func CodecName(format string) string { return "codec/" + format }

// BuildCodec creates a signed codec component for format whose packed size
// is approximately tableSize bytes of coefficient table plus code.
func BuildCodec(publisher *security.Identity, format string, version string, tableSize int) *lmu.Unit {
	table := make([]byte, tableSize)
	salt := 0
	for _, c := range format {
		salt = salt*131 + int(c)
	}
	for i := range table {
		table[i] = byte((i*31 + salt) % 251)
	}
	u := &lmu.Unit{
		Manifest: lmu.Manifest{
			Name:      CodecName(format),
			Version:   version,
			Kind:      lmu.KindComponent,
			Publisher: publisher.Name,
			Attrs:     map[string]string{"format": format},
		},
		Code: codecProgram.Encode(),
		Data: map[string][]byte{"table": table},
	}
	publisher.Sign(u)
	return u
}

// CodecCatalogue builds K codecs with the given table size, named
// format-00, format-01, ...
func CodecCatalogue(publisher *security.Identity, k, tableSize int) []*lmu.Unit {
	units := make([]*lmu.Unit, 0, k)
	for i := 0; i < k; i++ {
		units = append(units, BuildCodec(publisher, fmt.Sprintf("fmt-%02d", i), "1.0", tableSize))
	}
	return units
}

// Zipf draws item ranks with popularity ∝ 1/(rank+1)^S — the classic skew
// for content popularity, so a small cache of popular codecs serves most
// plays.
type Zipf struct {
	cdf []float64
	rng *rand.Rand
}

// NewZipf builds a sampler over n ranks with exponent s (s=0 is uniform).
func NewZipf(n int, s float64, seed int64) *Zipf {
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = 1.0 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cdf[i] = acc
	}
	return &Zipf{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

// Next draws a rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	for i, c := range z.cdf {
		if u <= c {
			return i
		}
	}
	return len(z.cdf) - 1
}

// Player plays formats on a device host: it ensures the codec is present
// (COD against the given repository host) and runs its decoder.
type Player struct {
	Host *core.Host
	// Repo is the address of the codec repository host.
	Repo string
	// Samples is the per-play decode workload.
	Samples int64

	// Plays, Hits and Fetches count playback activity.
	Plays, Hits, Fetches int64
}

// Play decodes one track of the given format, fetching the codec first if
// needed. cb receives the decode checksum.
func (p *Player) Play(format string, cb func(checksum int64, hit bool, err error)) {
	p.Plays++
	p.Host.Ensure(p.Repo, CodecName(format), "", func(u *lmu.Unit, hit bool, err error) {
		if err != nil {
			cb(0, hit, err)
			return
		}
		if hit {
			p.Hits++
		} else {
			p.Fetches++
		}
		stack, rerr := p.Host.RunComponent(CodecName(format), "decode", p.Samples)
		if rerr != nil {
			cb(0, hit, rerr)
			return
		}
		cb(stack[len(stack)-1], hit, nil)
	})
}
