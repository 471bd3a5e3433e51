// Package lmu defines the Logical Mobility Unit, logmob's unit of code
// movement.
//
// Following Fuggetta, Picco and Vigna's decomposition of mobile code, an LMU
// bundles up to three constituents: code (a VM program), a data space (named
// byte strings) and execution state (a VM snapshot). A Code-On-Demand
// component carries code and data; a Remote Evaluation request carries code;
// a Mobile Agent carries all three. The unit also carries a manifest —
// identity, version, kind, dependencies, free-form attributes — and an
// optional digital signature added by the security layer.
//
// Packing is canonical and deterministic so that a unit's content hash is
// stable across hosts, which is what signatures are computed over.
package lmu

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"logmob/internal/wire"
)

// Kind classifies what a unit is for.
type Kind uint8

// Unit kinds.
const (
	// KindComponent is installable code fetched by COD (e.g. a codec).
	KindComponent Kind = iota + 1
	// KindAgent is an autonomous mobile agent carrying state.
	KindAgent
	// KindRequest is a Remote Evaluation request shipped for execution.
	KindRequest
	// KindData is a pure data unit with no code.
	KindData
)

// String returns the kind name used in tables and manifests.
func (k Kind) String() string {
	switch k {
	case KindComponent:
		return "component"
	case KindAgent:
		return "agent"
	case KindRequest:
		return "request"
	case KindData:
		return "data"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Dep names a component this unit requires, with a minimum version.
type Dep struct {
	Name       string
	MinVersion string
}

// Manifest identifies and describes a unit.
type Manifest struct {
	// Name is the unit's identity, e.g. "codec/ogg".
	Name string
	// Version is a dotted numeric version, e.g. "1.2.0".
	Version string
	// Kind classifies the unit.
	Kind Kind
	// Publisher names the identity that must have signed the unit; a
	// signature by anyone else is rejected.
	Publisher string
	// Deps lists components that must be resolvable before this unit runs.
	Deps []Dep
	// Attrs carries free-form metadata (e.g. "format": "ogg").
	Attrs map[string]string
}

// SigMode selects what a signature covers.
type SigMode uint8

// Signature modes.
const (
	// SigFull covers the complete unit content (manifest, code, data,
	// state). Right for immutable components: any change invalidates it.
	SigFull SigMode = iota + 1
	// SigCode covers the unit's manifest and code, not its data or state.
	// Right for mobile agents, whose data and state legitimately mutate at
	// every hop while the code, dependencies and attributes must remain
	// exactly what the publisher shipped, and accepted on agents only.
	SigCode
)

// Signature is a detached signature over one of the unit's hashes.
type Signature struct {
	// Signer names the key in the verifier's trust store.
	Signer string
	// Mode selects which hash the signature covers.
	Mode SigMode
	// Sig is the signature bytes.
	Sig []byte
}

// Unit is a Logical Mobility Unit.
type Unit struct {
	Manifest Manifest
	// Code is an encoded vm.Program, or nil for data units.
	Code []byte
	// Data is the unit's data space.
	Data map[string][]byte
	// State is a vm.Machine snapshot, or nil. Only agents carry state.
	State []byte
	// Sig is the optional signature envelope.
	Sig *Signature

	// frame is the buffer UnpackFrom copies its input into and the fields
	// above alias; the next UnpackFrom reuses it. Unpack never sets it.
	frame []byte
}

const packVersion = 1

// appendSigned encodes everything covered by the signature.
func (u *Unit) appendSigned(b *wire.Buffer) {
	b.PutUint(packVersion)
	u.appendManifest(b)
	b.PutBytes(u.Code)
	b.PutBytesMap(u.Data)
	b.PutBytes(u.State)
}

// appendManifest encodes the manifest: identity, kind, publisher,
// dependencies and attributes.
func (u *Unit) appendManifest(b *wire.Buffer) {
	b.PutString(u.Manifest.Name)
	b.PutString(u.Manifest.Version)
	b.PutByte(byte(u.Manifest.Kind))
	b.PutString(u.Manifest.Publisher)
	b.PutUint(uint64(len(u.Manifest.Deps)))
	for _, d := range u.Manifest.Deps {
		b.PutString(d.Name)
		b.PutString(d.MinVersion)
	}
	b.PutStringMap(u.Manifest.Attrs)
}

// Hash returns the unit's full content hash (SigFull coverage).
func (u *Unit) Hash() [32]byte {
	b := wire.GetBuffer()
	u.appendSigned(b)
	h := sha256.Sum256(b.Bytes())
	wire.PutBuffer(b)
	return h
}

// codeHash returns the hash covering the unit's manifest and code (SigCode
// coverage): everything but Data and State, which a mobile agent changes at
// every hop.
func (u *Unit) codeHash() [32]byte {
	b := wire.GetBuffer()
	u.appendManifest(b)
	b.PutBytes(u.Code)
	h := sha256.Sum256(b.Bytes())
	wire.PutBuffer(b)
	return h
}

// HashFor returns the hash covered by the given signature mode.
func (u *Unit) HashFor(mode SigMode) [32]byte {
	if mode == SigCode {
		return u.codeHash()
	}
	return u.Hash()
}

// Pack serialises the whole unit, including any signature.
func (u *Unit) Pack() []byte {
	var b wire.Buffer
	u.PackTo(&b)
	return b.Bytes()
}

// PackTo appends the packed unit to b. Encoding into a caller-held (pooled)
// buffer avoids a fresh allocation per shipped unit.
func (u *Unit) PackTo(b *wire.Buffer) {
	u.appendSigned(b)
	if u.Sig == nil {
		b.PutBool(false)
	} else {
		b.PutBool(true)
		b.PutString(u.Sig.Signer)
		b.PutByte(byte(u.Sig.Mode))
		b.PutBytes(u.Sig.Sig)
	}
}

// Size returns the unit's packed size in bytes: the traffic it costs to move.
func (u *Unit) Size() int {
	b := wire.GetBuffer()
	u.PackTo(b)
	n := b.Len()
	wire.PutBuffer(b)
	return n
}

// Unpack parses a packed unit. The unit takes ownership of data: its Code,
// State and Data values alias sub-ranges of it (only Sig.Sig is copied), so
// the caller must not modify or recycle data while the unit is in use.
// Aliasing turns the former copy-per-field decode into a zero-copy one. A
// unit that is kept (a fetched or published unit the registry adopts) is
// unpacked from a copy the caller owns; a unit dropped before a borrowed
// input is recycled (core's Remote Evaluation request) may be unpacked from
// that input directly. A decoder that keeps a unit decoded from borrowed
// input uses UnpackFrom instead.
func Unpack(data []byte) (*Unit, error) {
	u := &Unit{}
	if err := u.decode(data); err != nil {
		return nil, err
	}
	return u, nil
}

// maxKeptFrame bounds the frame a unit keeps for its next UnpackFrom, as
// netsim bounds its recycled delivery buffers: a larger input is decoded
// into a buffer only the decoded fields hold.
const maxKeptFrame = 64 << 10

// UnpackFrom parses a packed unit into u, replacing all of u's contents. It
// does not take ownership of src: it copies src into a frame the unit owns,
// and Code, State and the data values alias that frame (Sig.Sig is copied,
// as in Unpack). The frame and u's cleared data map are reused by the next
// UnpackFrom, which overwrites them, so nothing may still hold u's previous
// byte slices. On error u's contents are unspecified until the next
// successful decode.
func (u *Unit) UnpackFrom(src []byte) error {
	frame := u.frame
	if cap(frame) < len(src) {
		frame = make([]byte, len(src))
	}
	frame = frame[:len(src)]
	copy(frame, src)
	u.frame = nil
	if cap(frame) <= maxKeptFrame {
		u.frame = frame
	}
	return u.decode(frame)
}

// decode is the body of Unpack and UnpackFrom: it resets u, keeping only its
// data map (cleared) and its frame, and decodes data into it, aliasing data.
func (u *Unit) decode(data []byte) error {
	m := u.Data
	clear(m)
	*u = Unit{Data: m, frame: u.frame}
	r := wire.NewReader(data)
	if v := r.Uint(); r.Err() == nil && v != packVersion {
		return fmt.Errorf("lmu: unsupported pack version %d", v)
	}
	// Names, versions, publishers and data-space keys are interned: they
	// repeat endlessly as units hop between hosts (every courier carries
	// "dest", "payload", "_hops", ...).
	u.Manifest.Name = r.InternString()
	u.Manifest.Version = r.InternString()
	u.Manifest.Kind = Kind(r.Byte())
	u.Manifest.Publisher = r.InternString()
	nDeps := r.Uint()
	if nDeps > uint64(len(data)) {
		return fmt.Errorf("lmu: dependency count %d implausible", nDeps)
	}
	for i := uint64(0); i < nDeps && r.Err() == nil; i++ {
		u.Manifest.Deps = append(u.Manifest.Deps, Dep{Name: r.String(), MinVersion: r.String()})
	}
	u.Manifest.Attrs = r.StringMap()
	u.Code = clip(r.AliasBytes())
	nData := r.Uint()
	if nData > uint64(r.Remaining()) {
		return fmt.Errorf("lmu: unpack: %w", wire.ErrTruncated)
	}
	if nData > 0 {
		if u.Data == nil {
			u.Data = make(map[string][]byte, nData)
		}
		for i := uint64(0); i < nData && r.Err() == nil; i++ {
			k := r.InternString()
			u.Data[k] = clip(r.AliasBytes())
		}
	}
	u.State = clip(r.AliasBytes())
	if r.Bool() {
		u.Sig = &Signature{Signer: r.InternString(), Mode: SigMode(r.Byte()), Sig: clip(r.Bytes())}
	}
	if err := r.ExpectEOF(); err != nil {
		return fmt.Errorf("lmu: unpack: %w", err)
	}
	if u.Manifest.Name == "" {
		return fmt.Errorf("lmu: unit has empty name")
	}
	if u.Manifest.Kind < KindComponent || u.Manifest.Kind > KindData {
		return fmt.Errorf("lmu: unknown kind %d", u.Manifest.Kind)
	}
	// Normalise: empty decoded collections become nil for DeepEqual
	// friendliness with freshly built units.
	if len(u.Code) == 0 {
		u.Code = nil
	}
	if len(u.State) == 0 {
		u.State = nil
	}
	if len(u.Data) == 0 {
		u.Data = nil
	}
	if len(u.Manifest.Attrs) == 0 {
		u.Manifest.Attrs = nil
	}
	return nil
}

// clip forces cap == len so a later append on an aliased slice reallocates
// instead of scribbling over neighbouring bytes of the shared backing array.
func clip(b []byte) []byte {
	return b[:len(b):len(b)]
}

// DataKeys returns the unit's data-space keys in sorted order — the indexing
// order used by VM blob host functions.
func (u *Unit) DataKeys() []string {
	keys := make([]string, 0, len(u.Data))
	for k := range u.Data {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Clone returns a deep copy of the unit.
func (u *Unit) Clone() *Unit {
	c := &Unit{Manifest: u.Manifest}
	c.Manifest.Deps = append([]Dep(nil), u.Manifest.Deps...)
	if u.Manifest.Attrs != nil {
		c.Manifest.Attrs = make(map[string]string, len(u.Manifest.Attrs))
		for k, v := range u.Manifest.Attrs {
			c.Manifest.Attrs[k] = v
		}
	}
	c.Code = append([]byte(nil), u.Code...)
	if len(c.Code) == 0 {
		c.Code = nil
	}
	if u.Data != nil {
		c.Data = make(map[string][]byte, len(u.Data))
		for k, v := range u.Data {
			c.Data[k] = append([]byte(nil), v...)
		}
	}
	c.State = append([]byte(nil), u.State...)
	if len(c.State) == 0 {
		c.State = nil
	}
	if u.Sig != nil {
		c.Sig = &Signature{Signer: u.Sig.Signer, Mode: u.Sig.Mode, Sig: append([]byte(nil), u.Sig.Sig...)}
	}
	return c
}

// CompareVersions compares two dotted numeric versions. It returns -1, 0 or
// +1. Non-numeric segments compare lexically; missing segments compare as 0,
// so "1.2" == "1.2.0".
func CompareVersions(a, b string) int {
	as := strings.Split(a, ".")
	bs := strings.Split(b, ".")
	n := len(as)
	if len(bs) > n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		var sa, sb string
		if i < len(as) {
			sa = as[i]
		}
		if i < len(bs) {
			sb = bs[i]
		}
		na, ea := strconv.Atoi(segOrZero(sa))
		nb, eb := strconv.Atoi(segOrZero(sb))
		if ea == nil && eb == nil {
			if na != nb {
				if na < nb {
					return -1
				}
				return 1
			}
			continue
		}
		if sa != sb {
			if sa < sb {
				return -1
			}
			return 1
		}
	}
	return 0
}

func segOrZero(s string) string {
	if s == "" {
		return "0"
	}
	return s
}
