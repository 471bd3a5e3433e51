// Package wire implements the compact, self-describing binary encoding used
// for every structure that crosses a link in logmob.
//
// The middleware's experiments reason about traffic volume, airtime and
// monetary cost, so every on-wire byte must be attributable. wire gives all
// subsystems one deterministic codec: unsigned varints, zigzag-encoded signed
// varints, length-prefixed strings and byte slices, and nested sub-buffers.
// Decoding is performed through a Reader that latches the first error, so
// call sites can decode a whole structure and check a single error at the
// end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
)

// Maximum sizes accepted by the decoder. These bound memory allocation when
// parsing frames received from untrusted peers.
const (
	// MaxBytesLen is the largest length-prefixed byte slice or string the
	// Reader will accept.
	MaxBytesLen = 64 << 20 // 64 MiB
	// MaxFrameLen is the largest frame ReadFrameInto will accept.
	MaxFrameLen = 64 << 20
)

// Decoding errors. ErrTruncated and friends are matched by callers with
// errors.Is.
var (
	// ErrTruncated reports that the buffer ended before a value was complete.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrTooLarge reports a length prefix exceeding the configured maximum.
	ErrTooLarge = errors.New("wire: length exceeds maximum")
	// ErrOverflow reports a varint wider than 64 bits.
	ErrOverflow = errors.New("wire: varint overflows 64 bits")
	// ErrTrailing reports unconsumed bytes where a complete parse was expected.
	ErrTrailing = errors.New("wire: trailing bytes after value")
)

// Buffer is an append-only encoder. The zero value is an empty buffer ready
// to use.
type Buffer struct {
	buf []byte
}

// bufferPool backs GetBuffer/PutBuffer. Encoding hot paths (kernel protocol
// frames, LMU packing, transport frames) build every message in a pooled
// buffer instead of allocating a fresh one per message.
var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns an empty Buffer from the process-wide pool. Callers must
// not retain the buffer's bytes past PutBuffer; copy anything that outlives
// the encode.
func GetBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.Reset()
	return b
}

// PutBuffer returns b to the pool. Oversized buffers are dropped so one
// giant frame does not pin memory forever.
func PutBuffer(b *Buffer) {
	if b == nil || cap(b.buf) > 1<<20 {
		return
	}
	bufferPool.Put(b)
}

// Bytes returns the encoded bytes. The returned slice aliases the Buffer's
// internal storage; it is invalidated by further Put calls.
func (b *Buffer) Bytes() []byte { return b.buf }

// Len returns the number of encoded bytes so far.
func (b *Buffer) Len() int { return len(b.buf) }

// Reset truncates the buffer to zero length, retaining capacity.
func (b *Buffer) Reset() { b.buf = b.buf[:0] }

// PutUint encodes v as an unsigned varint.
func (b *Buffer) PutUint(v uint64) {
	b.buf = binary.AppendUvarint(b.buf, v)
}

// PutInt encodes v as a zigzag-encoded signed varint.
func (b *Buffer) PutInt(v int64) {
	b.buf = binary.AppendUvarint(b.buf, zigzag(v))
}

// PutBool encodes v as a single byte, 0 or 1.
func (b *Buffer) PutBool(v bool) {
	if v {
		b.buf = append(b.buf, 1)
	} else {
		b.buf = append(b.buf, 0)
	}
}

// PutByte appends a single raw byte.
func (b *Buffer) PutByte(v byte) {
	b.buf = append(b.buf, v)
}

// PutString encodes s as a varint length followed by its bytes.
func (b *Buffer) PutString(s string) {
	b.buf = binary.AppendUvarint(b.buf, uint64(len(s)))
	b.buf = append(b.buf, s...)
}

// PutBytes encodes p as a varint length followed by its bytes.
func (b *Buffer) PutBytes(p []byte) {
	b.buf = binary.AppendUvarint(b.buf, uint64(len(p)))
	b.buf = append(b.buf, p...)
}

// PutRaw appends p verbatim, with no length prefix. It exists for framing
// layers that prepend a tag byte to an already-encoded payload.
func (b *Buffer) PutRaw(p []byte) {
	b.buf = append(b.buf, p...)
}

// Interning: short strings repeat endlessly on the wire — unit names,
// data-space keys, host names, service names. A small bounded table maps
// each such byte string to one canonical Go string, making the per-decode
// string allocations disappear. Lookups convert []byte keys without
// allocating; oversized strings bypass the table.
const (
	internMaxLen = 64
	internMaxTab = 1024
)

var (
	internMu  sync.RWMutex
	internTab = make(map[string]string)
)

// InternBytes returns a canonical string with b's contents, allocating only
// the first time a given value is seen (while the table has room).
func InternBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	internMu.RLock()
	s, ok := internTab[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(internTab) < internMaxTab {
		internTab[s] = s
	}
	internMu.Unlock()
	return s
}

// Packer is anything that can append its canonical encoding to a Buffer.
type Packer interface{ PackTo(b *Buffer) }

// PutPacked encodes p's packed form as a length-prefixed byte string,
// staging it through a pooled scratch buffer instead of materialising a
// fresh intermediate slice.
func (b *Buffer) PutPacked(p Packer) {
	s := GetBuffer()
	p.PackTo(s)
	b.PutBytes(s.Bytes())
	PutBuffer(s)
}

// PutStringMap encodes m sorted by key so that the encoding is deterministic.
func (b *Buffer) PutStringMap(m map[string]string) {
	b.PutUint(uint64(len(m)))
	var stack [16]string
	for _, k := range sortedKeys(m, &stack) {
		b.PutString(k)
		b.PutString(m[k])
	}
}

// PutBytesMap encodes m (string to byte slice) sorted by key.
func (b *Buffer) PutBytesMap(m map[string][]byte) {
	b.PutUint(uint64(len(m)))
	var stack [16]string
	for _, k := range sortedKeys(m, &stack) {
		b.PutString(k)
		b.PutBytes(m[k])
	}
}

// sortedKeys returns m's keys in order, in the caller's stack array when
// they fit: a unit's attributes and data space are packed at every hop.
func sortedKeys[V any](m map[string]V, stack *[16]string) []string {
	keys := stack[:0]
	if len(m) > len(stack) {
		keys = make([]string, 0, len(m))
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// PutStringSlice encodes ss as a count followed by each string.
func (b *Buffer) PutStringSlice(ss []string) {
	b.PutUint(uint64(len(ss)))
	for _, s := range ss {
		b.PutString(s)
	}
}

// Reader decodes values from a byte slice. The first decoding error is
// latched: all subsequent reads return zero values and Err reports the
// original error. This lets callers decode a full structure and perform a
// single error check.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Rest returns the undecoded bytes without consuming them; they alias the
// Reader's input.
func (r *Reader) Rest() []byte { return r.buf[r.off:] }

// ExpectEOF latches ErrTrailing if any bytes remain undecoded.
func (r *Reader) ExpectEOF() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail(fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off))
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uint decodes an unsigned varint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.fail(ErrTruncated)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// Int decodes a zigzag-encoded signed varint.
func (r *Reader) Int() int64 {
	return unzigzag(r.Uint())
}

// Bool decodes a single byte as a boolean. Any nonzero byte is true.
func (r *Reader) Bool() bool {
	return r.Byte() != 0
}

// Byte decodes a single raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	return string(r.rawBytes())
}

// InternString decodes a length-prefixed string like String but interns the
// result: repeated wire strings (names, keys, topics) decode to one shared
// canonical string instead of a fresh allocation each time.
func (r *Reader) InternString() string {
	return InternBytes(r.rawBytes())
}

// Bytes decodes a length-prefixed byte slice. The result is a copy and does
// not alias the Reader's input.
func (r *Reader) Bytes() []byte {
	raw := r.rawBytes()
	if raw == nil {
		return nil
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// AliasBytes decodes a length-prefixed byte slice without copying: the
// result aliases the Reader's input and is only valid while that input is.
// Decoders that own their input (or whose product must not outlive it) use
// this to skip the per-value copy of Bytes.
func (r *Reader) AliasBytes() []byte {
	return r.rawBytes()
}

// rawBytes decodes a length prefix and returns the referenced sub-slice of
// the input without copying.
func (r *Reader) rawBytes() []byte {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(fmt.Errorf("%w: %d", ErrTooLarge, n))
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// StringMap decodes a map encoded by Buffer.PutStringMap.
func (r *Reader) StringMap() map[string]string {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) { // every entry needs at least 2 bytes
		r.fail(ErrTruncated)
		return nil
	}
	if n == 0 {
		return nil // don't allocate for the common empty map
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.InternString()
		m[k] = r.String()
	}
	return m
}

// StringSlice decodes a slice encoded by Buffer.PutStringSlice.
func (r *Reader) StringSlice() []string {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.String())
	}
	return out
}

func zigzag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

func unzigzag(v uint64) int64 {
	return int64(v>>1) ^ -int64(v&1)
}

// frameRoom is the room StartFrame reserves for a frame's length prefix: the
// widest uvarint.
const frameRoom = binary.MaxVarintLen64

// frameStep bounds the first bulk read of a frame's payload. Every later
// read takes at most as many bytes as the frame already holds, so a frame
// never costs much more memory than the bytes that actually arrived.
const frameStep = 64 << 10

// StartFrame empties b and reserves room for a frame's length prefix. The
// values put after it form the frame's body; Frame then returns the whole
// frame, so a frame built this way reaches a stream in one Write.
func (b *Buffer) StartFrame() {
	b.buf = slices.Grow(b.buf[:0], frameRoom)[:frameRoom]
}

// Frame writes the length prefix of the body put since StartFrame into the
// reserved room, right-aligned against the body, and returns the framed
// bytes: what ReadFrameInto reads back. Like Bytes, it aliases b.
func (b *Buffer) Frame() []byte {
	body := uint64(len(b.buf) - frameRoom)
	start := frameRoom - uvarintLen(body)
	binary.PutUvarint(b.buf[start:], body)
	return b.buf[start:]
}

// FrameLen returns the bytes a frame with a body of n bytes takes on a
// stream, its length prefix included.
func FrameLen(n int) int { return uvarintLen(uint64(n)) + n }

// uvarintLen returns the encoded length of v as an unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// WriteFrame writes payload to w, preceded by its varint length prefix, in a
// single Write, and returns the number of bytes written.
func WriteFrame(w io.Writer, payload []byte) (int, error) {
	b := GetBuffer()
	defer PutBuffer(b)
	b.StartFrame()
	b.PutRaw(payload)
	n, err := w.Write(b.Frame())
	if err != nil {
		return n, fmt.Errorf("wire: write frame: %w", err)
	}
	return n, nil
}

// ReadFrameInto reads one length-prefixed frame from r, appending it into
// buf[:0] and reusing its capacity (a nil buf allocates). It returns io.EOF
// if the stream ends cleanly before a new frame begins. The returned slice
// aliases buf's storage (when capacity sufficed): callers recycling a frame
// buffer across reads must finish with one frame before reading the next,
// and must copy anything they keep.
func ReadFrameInto(r interface {
	io.Reader
	io.ByteReader
}, buf []byte) ([]byte, error) {
	length, err := binary.ReadUvarint(r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	if length > MaxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, length)
	}
	// Grow with the bytes actually read instead of trusting the header: a
	// corrupt or hostile 2-byte stream can claim a MaxFrameLen frame, and
	// committing the full allocation before the first payload byte turns
	// that into a 64 MiB allocation per bad frame. So the payload arrives in
	// steps, each at most as long as what is already in hand.
	payload := buf[:0]
	for have := 0; have < int(length); have = len(payload) {
		end := min(int(length), have+max(have, frameStep))
		if cap(payload) < end {
			payload = append(make([]byte, 0, end), payload...)
		}
		payload = payload[:end]
		if _, err := io.ReadFull(r, payload[have:]); err != nil {
			return nil, fmt.Errorf("wire: read frame payload: %w", ErrTruncated)
		}
	}
	return payload, nil
}
