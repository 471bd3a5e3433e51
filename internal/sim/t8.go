package sim

import (
	"fmt"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/security"
)

// T8 measures the cost of the security machinery the paper prescribes for
// mobile code: ed25519 signing and verification plus canonical packing and
// unpacking, across unit sizes, and the re-verification of a unit the trust
// store has already verified. Wall-clock measurements on the build
// machine; the point is the shape (costs scale with hashing, verification
// is cheap enough to run on every arrival) and the byte overhead.
func T8() Experiment {
	return Experiment{
		ID:    "T8",
		Title: "Security overhead: sign/verify/pack/unpack vs unit size",
		Motivation: `"Security mechanisms such as digital signatures can be ` +
			`used to ensure the safety and authenticity of the downloaded code."`,
		Run: runT8,
	}
}

func runT8(seed int64) *Result {
	res := &Result{ID: "T8", Title: "Security overhead"}
	table := metrics.NewTable("Table T8: per-operation wall time (mean of 50 runs)",
		"unit size", "sign us", "verify us", "re-verify us", "pack us", "unpack us", "sig B added")

	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)

	for _, size := range []int{1 << 10, 10 << 10, 100 << 10, 1 << 20} {
		u := &lmu.Unit{
			Manifest: lmu.Manifest{Name: "bench/unit", Version: "1.0", Kind: lmu.KindComponent, Publisher: "publisher"},
			Code:     make([]byte, size/2),
			Data:     map[string][]byte{"payload": make([]byte, size/2)},
		}
		unsignedSize := u.Size()

		const iters = 50
		signT := stopwatch(iters, func() { id.Sign(u) })
		verify := func(t *security.TrustStore) {
			if err := security.Verify(u, t, security.Policy{}); err != nil {
				panic(err)
			}
		}
		// Each timed verify gets its own trust store, built before the clock
		// starts, so it is a first arrival's: ed25519 included. The
		// re-verify column is a repeat arrival's memo hit.
		fresh := make([]*security.TrustStore, iters)
		for i := range fresh {
			fresh[i] = security.NewTrustStore()
			fresh[i].TrustIdentity(id)
		}
		next := 0
		verifyT := stopwatch(iters, func() { verify(fresh[next]); next++ })
		verify(trust)
		reverifyT := stopwatch(iters, func() { verify(trust) })
		var packed []byte
		packT := stopwatch(iters, func() { packed = u.Pack() })
		unpackT := stopwatch(iters, func() {
			if _, err := lmu.Unpack(packed); err != nil {
				panic(err)
			}
		})
		table.AddRow(sizeLabel(size),
			fmt.Sprintf("%.1f", float64(signT.Microseconds())/iters),
			fmt.Sprintf("%.1f", float64(verifyT.Microseconds())/iters),
			fmt.Sprintf("%.1f", float64(reverifyT.Microseconds())/iters),
			fmt.Sprintf("%.1f", float64(packT.Microseconds())/iters),
			fmt.Sprintf("%.1f", float64(unpackT.Microseconds())/iters),
			u.Size()-unsignedSize)
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"below ~100KB ed25519 dominates sign/verify; above it SHA-256 over the unit does, so they scale linearly with size; the constant signature overhead is ~75 bytes",
		"re-verify is a repeat arrival: the trust store remembers the signature, so it pays the hash but not ed25519")
	return res
}

// stopwatch measures host CPU time for T8's crypto-throughput table. The
// timings are reported, never fed back into the simulation, so the goldens
// that cover T8 exclude these columns.
func stopwatch(iters int, fn func()) time.Duration {
	start := time.Now() //lint:allow wallclock T8 measures real sign/verify throughput
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) //lint:allow wallclock T8 measures real sign/verify throughput
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
