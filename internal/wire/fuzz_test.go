package wire

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// Fuzz value kinds, selected by script bytes. Keeping the set closed means
// a corpus entry fully determines the decode/encode sequence.
const (
	opUint = iota
	opInt
	opBool
	opByte
	opString
	opBytes
	opStringMap
	opStringSlice
	opCount
)

// decodeScript decodes one value per op from r and returns them. A latched
// reader error reports ok=false.
func decodeScript(r *Reader, ops []byte) (vals []any, ok bool) {
	for _, op := range ops {
		var v any
		switch op % opCount {
		case opUint:
			v = r.Uint()
		case opInt:
			v = r.Int()
		case opBool:
			v = r.Bool()
		case opByte:
			v = r.Byte()
		case opString:
			v = r.String()
		case opBytes:
			v = r.Bytes()
		case opStringMap:
			v = r.StringMap()
		case opStringSlice:
			v = r.StringSlice()
		}
		if r.Err() != nil {
			return nil, false
		}
		vals = append(vals, v)
	}
	return vals, true
}

// encodeScript encodes vals back with the matching Put calls.
func encodeScript(ops []byte, vals []any) []byte {
	var b Buffer
	for i, op := range ops {
		switch op % opCount {
		case opUint:
			b.PutUint(vals[i].(uint64))
		case opInt:
			b.PutInt(vals[i].(int64))
		case opBool:
			b.PutBool(vals[i].(bool))
		case opByte:
			b.PutByte(vals[i].(byte))
		case opString:
			b.PutString(vals[i].(string))
		case opBytes:
			b.PutBytes(vals[i].([]byte))
		case opStringMap:
			b.PutStringMap(vals[i].(map[string]string))
		case opStringSlice:
			b.PutStringSlice(vals[i].([]string))
		}
	}
	return b.Bytes()
}

// FuzzWireRoundTrip drives the decoder over arbitrary bytes (it must never
// panic — truncated and corrupt inputs latch an error instead) and, for
// inputs that decode cleanly, checks the codec's round-trip identity:
// encode(decode(x)) re-decodes to the same values and re-encodes to the
// identical bytes (one decode+encode normalises any non-minimal varints;
// after that the encoding is a fixed point).
func FuzzWireRoundTrip(f *testing.F) {
	// Seed corpus: one entry per value kind plus a mixed frame. Layout:
	// script length byte, script bytes, then the encoded payload.
	mk := func(ops []byte, fill func(*Buffer)) []byte {
		var b Buffer
		fill(&b)
		return append(append([]byte{byte(len(ops))}, ops...), b.Bytes()...)
	}
	f.Add(mk([]byte{opUint, opInt}, func(b *Buffer) { b.PutUint(300); b.PutInt(-7) }))
	f.Add(mk([]byte{opBool, opByte}, func(b *Buffer) { b.PutBool(true); b.PutByte(0xfe) }))
	f.Add(mk([]byte{opString, opBytes}, func(b *Buffer) { b.PutString("beacon"); b.PutBytes([]byte{1, 2, 3}) }))
	f.Add(mk([]byte{opStringMap}, func(b *Buffer) { b.PutStringMap(map[string]string{"svc": "festival/info", "v": "2"}) }))
	f.Add(mk([]byte{opStringSlice}, func(b *Buffer) { b.PutStringSlice([]string{"a", "b", "c"}) }))
	f.Add(mk([]byte{opUint, opInt, opBool, opByte, opString, opBytes, opStringMap, opStringSlice}, func(b *Buffer) {
		b.PutUint(1 << 40)
		b.PutInt(-300)
		b.PutBool(false)
		b.PutByte(7)
		b.PutString("courier")
		b.PutBytes([]byte("payload"))
		b.PutStringMap(map[string]string{"dest": "host-b"})
		b.PutStringSlice([]string{"hop"})
	}))
	f.Add([]byte{3, opUint, opString, opBytes, 0x80}) // deliberately truncated
	f.Add([]byte{1, opBytes, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nops := int(data[0] % 17)
		rest := data[1:]
		if len(rest) < nops {
			return
		}
		ops, payload := rest[:nops], rest[nops:]

		// Arbitrary-input decode: must not panic; errors are fine.
		vals, ok := decodeScript(NewReader(payload), ops)

		// Frame layer on the same raw bytes: must not panic and must not
		// fabricate data (a returned frame re-frames to a prefix-compatible
		// stream).
		if frame, err := ReadFrameInto(bytes.NewReader(payload), nil); err == nil {
			var out bytes.Buffer
			if _, werr := WriteFrame(&out, frame); werr != nil {
				t.Fatalf("WriteFrame of just-read frame failed: %v", werr)
			}
			back, rerr := ReadFrameInto(bytes.NewReader(out.Bytes()), nil)
			if rerr != nil || !bytes.Equal(back, frame) {
				t.Fatalf("frame round trip changed payload: %v / %q vs %q", rerr, back, frame)
			}
		} else if err != io.EOF && frame != nil {
			t.Fatalf("ReadFrameInto returned both a frame and error %v", err)
		}

		if !ok {
			return
		}

		// Round-trip identity on the value layer.
		enc1 := encodeScript(ops, vals)
		r2 := NewReader(enc1)
		vals2, ok2 := decodeScript(r2, ops)
		if !ok2 {
			t.Fatalf("re-decode of canonical encoding failed: %v (ops=%v vals=%#v)", r2.Err(), ops, vals)
		}
		if err := r2.ExpectEOF(); err != nil {
			t.Fatalf("canonical encoding has trailing bytes: %v", err)
		}
		enc2 := encodeScript(ops, vals2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode∘decode is not a fixed point:\nops  %v\nenc1 %x\nenc2 %x", ops, enc1, enc2)
		}
	})
}

// FuzzReadFramePooled exercises the buffer-reuse contract of ReadFrameInto
// the way the transport read loops use it: one scratch buffer, drawn from
// the process-wide pool, recycled across every frame of a stream. The fuzz
// input is treated as a raw frame stream; a reference pass with
// fresh-allocating ReadFrameInto(r, nil) fixes the expected frame sequence, then several
// goroutines re-read the stream concurrently, each cycling its scratch
// through GetBuffer/PutBuffer. Run under -race this catches any aliasing
// between pooled buffers — two readers decoding into shared storage — and
// the copy checks catch a frame being scribbled on by the next read.
func FuzzReadFramePooled(f *testing.F) {
	stream := func(payloads ...[]byte) []byte {
		var out bytes.Buffer
		for _, p := range payloads {
			if _, err := WriteFrame(&out, p); err != nil {
				f.Fatal(err)
			}
		}
		return out.Bytes()
	}
	f.Add(stream([]byte("beacon"), nil, []byte("a longer payload to force scratch growth")))
	f.Add(stream(bytes.Repeat([]byte{0xab}, 4096), []byte{1}))
	f.Add([]byte{0x05, 1, 2})                   // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // header over MaxFrameLen
	// A frame longer than one read step, then another.
	f.Add(stream(bytes.Repeat([]byte{0xcd}, 64<<10+3), []byte("after")))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reference pass: fresh allocation per frame, copies retained.
		var want [][]byte
		ref := bytes.NewReader(data)
		for {
			frame, err := ReadFrameInto(ref, nil)
			if err != nil {
				break
			}
			want = append(want, append([]byte(nil), frame...))
		}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := GetBuffer()
				scratch := b.buf
				br := bytes.NewReader(data)
				var got [][]byte
				for {
					frame, err := ReadFrameInto(br, scratch)
					if err != nil {
						break
					}
					scratch = frame // reuse grown capacity, like the TCP read loop
					got = append(got, append([]byte(nil), frame...))
				}
				b.buf = scratch[:0]
				PutBuffer(b)
				if len(got) != len(want) {
					t.Errorf("pooled pass read %d frames, reference read %d", len(got), len(want))
					return
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("frame %d: pooled read %x differs from reference %x", i, got[i], want[i])
					}
				}
			}()
		}
		wg.Wait()
	})
}
