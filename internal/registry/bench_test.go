package registry

import (
	"testing"

	"logmob/internal/lmu"
)

// BenchmarkRegistry measures store churn under quota pressure.
func BenchmarkRegistry(b *testing.B) {
	units := make([]*lmu.Unit, 16)
	for i := range units {
		units[i] = &lmu.Unit{
			Manifest: lmu.Manifest{Name: string(rune('a' + i)), Version: "1.0", Kind: lmu.KindComponent},
			Code:     make([]byte, 1024),
		}
	}
	quota := int64(units[0].Size()) * 4
	r := New(quota)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := units[i%len(units)]
		if err := r.Put(u); err != nil {
			b.Fatal(err)
		}
		r.Get(u.Manifest.Name)
	}
}
