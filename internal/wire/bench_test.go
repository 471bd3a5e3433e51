package wire

import (
	"bytes"
	"io"
	"testing"
)

// encodedFrame returns one framed payload of size bytes.
func encodedFrame(tb testing.TB, size int) []byte {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	var enc bytes.Buffer
	if _, err := WriteFrame(&enc, payload); err != nil {
		tb.Fatal(err)
	}
	return enc.Bytes()
}

// frameBenchSizes are a small message and a wire_bulk unit.
var frameBenchSizes = []struct {
	name string
	size int
}{{"512B", 512}, {"256KiB", 256 << 10}}

// BenchmarkReadFrame measures the transport read loop's per-frame decode
// with a recycled scratch buffer (the ReadFrameInto path the TCP read loop
// uses).
func BenchmarkReadFrame(b *testing.B) {
	for _, c := range frameBenchSizes {
		b.Run(c.name, func(b *testing.B) {
			data := encodedFrame(b, c.size)
			br := bytes.NewReader(data)
			var buf []byte
			b.SetBytes(int64(c.size))
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
		})
	}
}

// BenchmarkWriteFrame measures framing a payload and handing it to a writer
// in one Write.
func BenchmarkWriteFrame(b *testing.B) {
	for _, c := range frameBenchSizes {
		b.Run(c.name, func(b *testing.B) {
			payload := make([]byte, c.size)
			b.SetBytes(int64(c.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := WriteFrame(io.Discard, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadFrameIntoAllocs pins the read loop's steady state: decoding a
// frame into a scratch buffer that already holds one allocates nothing.
func TestReadFrameIntoAllocs(t *testing.T) {
	data := encodedFrame(t, 512)
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
