package wire

import (
	"bytes"
	"testing"
)

// encodedFrame returns one framed 512-byte payload.
func encodedFrame(tb testing.TB) []byte {
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	var enc bytes.Buffer
	if _, err := WriteFrame(&enc, payload); err != nil {
		tb.Fatal(err)
	}
	return enc.Bytes()
}

// BenchmarkReadFrame measures the transport read loop's per-frame decode
// with a recycled scratch buffer (the ReadFrameInto path every TCP and mux
// reader uses).
func BenchmarkReadFrame(b *testing.B) {
	data := encodedFrame(b)
	br := bytes.NewReader(data)
	var buf []byte
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(data)
		frame, err := ReadFrameInto(br, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = frame
	}
}

// TestReadFrameIntoAllocs pins the read loop's steady state: decoding a
// frame into a scratch buffer that already holds one allocates nothing.
func TestReadFrameIntoAllocs(t *testing.T) {
	data := encodedFrame(t)
	br := bytes.NewReader(data)
	buf, err := ReadFrameInto(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		br.Reset(data)
		if buf, err = ReadFrameInto(br, buf); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("reading a frame into a recycled scratch allocates %v times, want 0", got)
	}
}
