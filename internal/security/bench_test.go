package security

import (
	"testing"

	"logmob/internal/lmu"
)

// BenchmarkSignVerify measures the security path run on every foreign unit.
func BenchmarkSignVerify(b *testing.B) {
	id := MustNewIdentity("bench")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "bench", Version: "1.0", Kind: lmu.KindComponent, Publisher: "bench"},
		Code:     make([]byte, 10<<10),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id.Sign(u)
		if err := Verify(u, trust, Policy{}); err != nil {
			b.Fatal(err)
		}
	}
}
