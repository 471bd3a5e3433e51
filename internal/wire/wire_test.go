package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestUintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64}
	var b Buffer
	for _, v := range values {
		b.PutUint(v)
	}
	r := NewReader(b.Bytes())
	for _, want := range values {
		if got := r.Uint(); got != want {
			t.Errorf("Uint() = %d, want %d", got, want)
		}
	}
	if err := r.ExpectEOF(); err != nil {
		t.Fatalf("ExpectEOF: %v", err)
	}
}

func TestIntRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64}
	var b Buffer
	for _, v := range values {
		b.PutInt(v)
	}
	r := NewReader(b.Bytes())
	for _, want := range values {
		if got := r.Int(); got != want {
			t.Errorf("Int() = %d, want %d", got, want)
		}
	}
	if err := r.ExpectEOF(); err != nil {
		t.Fatalf("ExpectEOF: %v", err)
	}
}

func TestIntPropertyRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		var b Buffer
		b.PutInt(v)
		r := NewReader(b.Bytes())
		return r.Int() == v && r.ExpectEOF() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUintPropertyRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var b Buffer
		b.PutUint(v)
		r := NewReader(b.Bytes())
		return r.Uint() == v && r.ExpectEOF() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringBytesRoundTrip(t *testing.T) {
	var b Buffer
	b.PutString("hello")
	b.PutString("")
	b.PutBytes([]byte{1, 2, 3})
	b.PutBytes(nil)
	b.PutBool(true)
	b.PutBool(false)
	b.PutByte(0xAB)

	r := NewReader(b.Bytes())
	if got := r.String(); got != "hello" {
		t.Errorf("String() = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String() = %q, want empty", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes() = %v", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("Bytes() = %v, want empty", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte() = %#x", got)
	}
	if err := r.ExpectEOF(); err != nil {
		t.Fatalf("ExpectEOF: %v", err)
	}
}

func TestStringPropertyRoundTrip(t *testing.T) {
	f := func(s string, p []byte) bool {
		var b Buffer
		b.PutString(s)
		b.PutBytes(p)
		r := NewReader(b.Bytes())
		gs := r.String()
		gp := r.Bytes()
		return gs == s && bytes.Equal(gp, p) && r.ExpectEOF() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringMapRoundTrip(t *testing.T) {
	m := map[string]string{"b": "2", "a": "1", "": "", "key": "value"}
	var b Buffer
	b.PutStringMap(m)
	r := NewReader(b.Bytes())
	got := r.StringMap()
	if err := r.ExpectEOF(); err != nil {
		t.Fatalf("ExpectEOF: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("StringMap() = %v, want %v", got, m)
	}
}

func TestStringMapDeterministic(t *testing.T) {
	m := map[string]string{"x": "1", "y": "2", "z": "3", "w": "4"}
	var first []byte
	for i := 0; i < 10; i++ {
		var b Buffer
		b.PutStringMap(m)
		if first == nil {
			first = append([]byte(nil), b.Bytes()...)
			continue
		}
		if !bytes.Equal(first, b.Bytes()) {
			t.Fatal("map encoding is not deterministic")
		}
	}
}

// PutBytesMap's one decoder is lmu.Unpack's data-space loop; this pins the
// layout that loop reads: a count, then key/value pairs in sorted key order.
func TestBytesMapRoundTrip(t *testing.T) {
	m := map[string][]byte{"code": {1, 2}, "state": {}, "data": {0xFF}}
	var b Buffer
	b.PutBytesMap(m)
	r := NewReader(b.Bytes())
	if n := r.Uint(); n != uint64(len(m)) {
		t.Fatalf("count = %d, want %d", n, len(m))
	}
	for _, k := range []string{"code", "data", "state"} {
		if got := r.String(); got != k {
			t.Fatalf("key = %q, want %q (sorted order)", got, k)
		}
		if got := r.AliasBytes(); !bytes.Equal(got, m[k]) {
			t.Errorf("value of %q = %v, want %v", k, got, m[k])
		}
	}
	if err := r.ExpectEOF(); err != nil {
		t.Fatalf("ExpectEOF: %v", err)
	}
}

func TestStringSliceRoundTrip(t *testing.T) {
	ss := []string{"one", "", "three"}
	var b Buffer
	b.PutStringSlice(ss)
	r := NewReader(b.Bytes())
	got := r.StringSlice()
	if err := r.ExpectEOF(); err != nil {
		t.Fatalf("ExpectEOF: %v", err)
	}
	if !reflect.DeepEqual(got, ss) {
		t.Errorf("StringSlice() = %v, want %v", got, ss)
	}
}

func TestReaderTruncated(t *testing.T) {
	var b Buffer
	b.PutString("hello world")
	enc := b.Bytes()
	for cut := 0; cut < len(enc); cut++ {
		r := NewReader(enc[:cut])
		_ = r.String()
		if r.Err() == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}
}

func TestReaderErrorLatching(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uint() // fails with ErrTruncated
	first := r.Err()
	if !errors.Is(first, ErrTruncated) {
		t.Fatalf("Err() = %v, want ErrTruncated", first)
	}
	// Subsequent reads must not change the latched error and must return
	// zero values.
	if got := r.String(); got != "" {
		t.Errorf("String() after error = %q", got)
	}
	if got := r.Byte(); got != 0 {
		t.Errorf("Byte() after error = %v", got)
	}
	if r.Err() != first {
		t.Error("latched error was replaced")
	}
}

func TestReaderTooLarge(t *testing.T) {
	var b Buffer
	b.PutUint(MaxBytesLen + 1)
	r := NewReader(b.Bytes())
	_ = r.Bytes()
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("Err() = %v, want ErrTooLarge", r.Err())
	}
}

func TestReaderTrailing(t *testing.T) {
	var b Buffer
	b.PutUint(1)
	b.PutUint(2)
	r := NewReader(b.Bytes())
	_ = r.Uint()
	if err := r.ExpectEOF(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("ExpectEOF = %v, want ErrTrailing", err)
	}
}

func TestMapLengthBomb(t *testing.T) {
	// A claimed element count far beyond the actual payload must be
	// rejected, not allocated.
	var b Buffer
	b.PutUint(1 << 40)
	r := NewReader(b.Bytes())
	if m := r.StringMap(); m != nil {
		t.Errorf("StringMap() = %v, want nil", m)
	}
	if r.Err() == nil {
		t.Fatal("expected error for length bomb")
	}
}

func TestBytesDoesNotAliasInput(t *testing.T) {
	var b Buffer
	b.PutBytes([]byte{9, 9, 9})
	enc := append([]byte(nil), b.Bytes()...)
	r := NewReader(enc)
	got := r.Bytes()
	enc[1] = 0 // mutate input; decoded copy must be unaffected
	if got[0] != 9 || got[1] != 9 || got[2] != 9 {
		t.Errorf("Bytes() aliases reader input: %v", got)
	}
}

// frameSizes straddle the read steps: the first step is frameStep (64 KiB)
// and each later one at most doubles what is in hand.
var frameSizes = []int{0, 1, 64<<10 - 1, 64 << 10, 64<<10 + 1, 256 << 10, 1<<20 + 3}

// patterned returns n bytes that differ from their neighbours, so a step
// that lands one byte early or late shows up as a changed payload.
func patterned(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// rawFrame is the frame format written out by hand: uvarint(len) | body.
func rawFrame(body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestFrameRoundTrip reads frames of every size in frameSizes through a
// 16-byte bufio.Reader, recycling one buffer, each frame followed by a short
// sentinel frame. A read step that takes one byte past the frame eats the
// sentinel's prefix; one that stops a byte short misaligns the sentinel.
func TestFrameRoundTrip(t *testing.T) {
	sentinel := []byte("end")
	var buf []byte
	for _, n := range frameSizes {
		payload := patterned(n)
		var stream bytes.Buffer
		for _, p := range [][]byte{payload, sentinel} {
			if _, err := WriteFrame(&stream, p); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
		}
		br := bufio.NewReaderSize(&stream, 16)
		got, err := ReadFrameInto(br, buf)
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%d bytes: frame differs from what was written", n)
		}
		buf = got
		if got, err := ReadFrameInto(br, nil); err != nil || !bytes.Equal(got, sentinel) {
			t.Fatalf("%d bytes: sentinel after the frame = %q, %v", n, got, err)
		}
		if _, err := ReadFrameInto(br, nil); err != io.EOF {
			t.Fatalf("%d bytes: ReadFrameInto at end = %v, want io.EOF", n, err)
		}
	}
}

// TestFrameTruncatedPayload cuts a frame of every size in frameSizes inside
// each read step and expects ErrTruncated, through a small bufio.Reader and
// into a recycled buffer.
func TestFrameTruncatedPayload(t *testing.T) {
	buf := make([]byte, 0, 1<<20)
	for _, n := range frameSizes {
		frame := rawFrame(patterned(n))
		prefix := len(frame) - n
		for _, cut := range cutsInsideSteps(n) {
			br := bufio.NewReaderSize(bytes.NewReader(frame[:prefix+cut]), 16)
			if _, err := ReadFrameInto(br, buf); !errors.Is(err, ErrTruncated) {
				t.Errorf("%d bytes cut after %d: %v, want ErrTruncated", n, cut, err)
			}
		}
	}
}

// cutsInsideSteps returns payload offsets short of n on both sides of every
// step boundary (64 KiB, then each doubling) and in the middle of each step.
func cutsInsideSteps(n int) []int {
	var cuts []int
	add := func(c int) {
		if c >= 0 && c < n {
			cuts = append(cuts, c)
		}
	}
	lo := 0
	for hi := 64 << 10; lo < n; lo, hi = hi, 2*hi {
		end := min(hi, n)
		add(lo)
		add(lo + 1)
		add((lo + end) / 2)
		add(end - 1)
	}
	return cuts
}

func TestFrameTooLarge(t *testing.T) {
	var hdr Buffer
	hdr.PutUint(MaxFrameLen + 1)
	if _, err := ReadFrameInto(bytes.NewBuffer(hdr.Bytes()), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadFrameInto = %v, want ErrTooLarge", err)
	}
}

// TestFrameHostileHeaderCostsWhatArrives pins the read bound: a header that
// claims MaxFrameLen followed by 10 bytes costs one first step of memory,
// not the 64 MiB the header asks for.
func TestFrameHostileHeaderCostsWhatArrives(t *testing.T) {
	stream := append(binary.AppendUvarint(nil, MaxFrameLen), make([]byte, 10)...)
	r := bytes.NewReader(stream)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadFrameInto(r, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrameInto = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Errorf("a %d-byte stream claiming %d bytes allocated %d bytes, want < 128 KiB", len(stream), MaxFrameLen, got)
	}
}

// countingWriter counts the Write calls it receives.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite pins that a frame reaches its writer in one Write,
// prefix and payload together, byte for byte the hand-built format.
func TestWriteFrameOneWrite(t *testing.T) {
	for _, n := range []int{0, 300, 256 << 10} {
		payload := patterned(n)
		var w countingWriter
		written, err := WriteFrame(&w, payload)
		if err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%d bytes: %d Writes, want 1", n, w.writes)
		}
		if want := rawFrame(payload); !bytes.Equal(w.Bytes(), want) || written != len(want) {
			t.Errorf("%d bytes: wrote %d bytes that differ from uvarint(len) | payload", n, written)
		}
	}
}

// TestStartFrame checks that a frame built in a reused buffer is the
// hand-built format and FrameLen long, at every prefix width boundary.
func TestStartFrame(t *testing.T) {
	var b Buffer
	b.PutString("left over from the last use")
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 21} {
		body := patterned(n)
		b.StartFrame()
		b.PutRaw(body)
		got := b.Frame()
		if !bytes.Equal(got, rawFrame(body)) {
			t.Errorf("%d-byte body: frame differs from uvarint(len) | body", n)
		}
		if len(got) != FrameLen(n) {
			t.Errorf("FrameLen(%d) = %d, frame is %d bytes", n, FrameLen(n), len(got))
		}
	}
}

// TestUintLen pins the varint width at each 7-bit boundary: every size the
// experiments attribute to a message is built from these widths.
func TestUintLen(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}, {math.MaxUint64, 10},
	}
	for _, c := range cases {
		var b Buffer
		b.PutUint(c.v)
		if b.Len() != c.want {
			t.Errorf("encoded len of %d = %d, want %d", c.v, b.Len(), c.want)
		}
	}
}

func TestBufferReset(t *testing.T) {
	var b Buffer
	b.PutString("data")
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.PutUint(7)
	r := NewReader(b.Bytes())
	if got := r.Uint(); got != 7 {
		t.Errorf("Uint() = %d after reset reuse", got)
	}
}
