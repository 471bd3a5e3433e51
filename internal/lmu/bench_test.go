package lmu

import "testing"

// BenchmarkLMUPackUnpack measures unit serialisation round trips (10KB unit).
func BenchmarkLMUPackUnpack(b *testing.B) {
	u := &Unit{
		Manifest: Manifest{Name: "bench", Version: "1.0", Kind: KindComponent},
		Code:     make([]byte, 5<<10),
		Data:     map[string][]byte{"table": make([]byte, 5<<10)},
	}
	b.SetBytes(int64(u.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed := u.Pack()
		if _, err := Unpack(packed); err != nil {
			b.Fatal(err)
		}
	}
}
