package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
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

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAA}, 1000)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if _, err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrameInto(&buf, nil)
		if err != nil {
			t.Fatalf("ReadFrameInto: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %v, want %v", got, want)
		}
	}
	if _, err := ReadFrameInto(&buf, nil); err != io.EOF {
		t.Fatalf("ReadFrameInto at end = %v, want io.EOF", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	trunc := bytes.NewBuffer(buf.Bytes()[:3])
	if _, err := ReadFrameInto(trunc, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrameInto = %v, want ErrTruncated", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr Buffer
	hdr.PutUint(MaxFrameLen + 1)
	if _, err := ReadFrameInto(bytes.NewBuffer(hdr.Bytes()), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadFrameInto = %v, want ErrTooLarge", err)
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
