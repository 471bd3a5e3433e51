package security

import (
	"encoding/binary"
	"testing"

	"logmob/internal/lmu"
)

func benchUnit() (*Identity, *TrustStore, *lmu.Unit) {
	id := MustNewIdentity("bench")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "bench", Version: "1.0", Kind: lmu.KindComponent, Publisher: "bench"},
		Code:     make([]byte, 10<<10),
	}
	return id, trust, u
}

// BenchmarkSignVerifyCold measures the security path a unit the host has not
// seen before takes: every iteration signs a different unit, so every Verify
// misses the memo and runs ed25519.
func BenchmarkSignVerifyCold(b *testing.B) {
	id, trust, u := benchUnit()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(u.Code, uint64(i))
		id.Sign(u)
		if err := Verify(u, trust, Policy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyHit measures Verify of a unit whose signature the store has
// already verified: the rules and the covered hash, without ed25519.
func BenchmarkVerifyHit(b *testing.B) {
	id, trust, u := benchUnit()
	id.Sign(u)
	if err := Verify(u, trust, Policy{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Verify(u, trust, Policy{}); err != nil {
			b.Fatal(err)
		}
	}
}
