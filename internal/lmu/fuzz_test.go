package lmu_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"logmob/internal/lmu"
	"logmob/internal/security"
	"logmob/internal/wire"
)

// fuzzSigner signs every unit FuzzUnpack derives; it is the only key the
// fuzz trust store holds.
var fuzzSigner = security.MustNewIdentity("fuzz-publisher")

// signedFull returns a full-signed copy of u published by fuzzSigner.
func signedFull(u *lmu.Unit) *lmu.Unit {
	s := u.Clone()
	s.Manifest.Publisher = fuzzSigner.Name
	fuzzSigner.Sign(s)
	return s
}

// signedAgent returns a code-signed agent copy of u published by fuzzSigner.
func signedAgent(u *lmu.Unit) *lmu.Unit {
	s := u.Clone()
	s.Manifest.Kind = lmu.KindAgent
	s.Manifest.Publisher = fuzzSigner.Name
	fuzzSigner.SignCode(s)
	return s
}

// codeCovered returns the byte span of u.Pack() that SigCode covers: the
// manifest (name, version, kind, publisher, dependencies, attributes) and
// the code, contiguous after the pack version. It re-encodes the packing
// prefix; the caller checks that the prefix matches, so a layout change
// fails loudly here.
func codeCovered(u *lmu.Unit) (prefix []byte, span [2]int) {
	var b wire.Buffer
	b.PutUint(1) // pack version
	span[0] = b.Len()
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
	b.PutBytes(u.Code)
	span[1] = b.Len()
	return b.Bytes(), span
}

// flipOutcome unpacks packed with one bit flipped and reports whether the
// result is a forgery: it decodes, verifies, and differs from want.
func flipOutcome(packed []byte, bit uint32, want *lmu.Unit, trust *security.TrustStore) (forged bool, got *lmu.Unit) {
	mut := bytes.Clone(packed)
	mut[bit/8] ^= 1 << (bit % 8)
	got, err := lmu.Unpack(mut)
	if err != nil || security.Verify(got, trust, security.Policy{}) != nil {
		return false, nil
	}
	return !reflect.DeepEqual(got, want), got
}

// dirtySource is what dirtyUnit decodes before the input under test: a
// courier between hops, with a code, a data space and a state of its own.
var dirtySource = (&lmu.Unit{
	Manifest: lmu.Manifest{Name: "agent/dirty", Version: "9.9", Kind: lmu.KindAgent, Publisher: "someone",
		Deps: []lmu.Dep{{Name: "lib/x", MinVersion: "2"}}, Attrs: map[string]string{"k": "v"}},
	Code:  []byte{7, 7, 7, 7, 7, 7, 7, 7},
	Data:  map[string][]byte{"dest": []byte("far-away-host"), "payload": []byte("left over"), "_hops": {0, 0, 0, 0, 0, 0, 0, 3}},
	State: []byte{4, 4, 4, 4},
	Sig:   &lmu.Signature{Signer: "someone", Mode: lmu.SigCode, Sig: []byte{1, 2}},
}).Pack()

// dirtyUnit returns a unit in the state a host recycles one in: it has
// decoded another input and been changed the way a platform changes an
// agent between hops — a _prev key added, its State grown past its frame.
func dirtyUnit(t *testing.T) *lmu.Unit {
	u := new(lmu.Unit)
	if err := u.UnpackFrom(dirtySource); err != nil {
		t.Fatalf("dirty source: %v", err)
	}
	u.Data["_prev"] = []byte("previous-host")
	u.State = append(u.State, 5, 5, 5, 5, 5, 5)
	return u
}

// sameExported reports whether a and b agree on every exported field: the
// frame UnpackFrom keeps is the only field the two decoders may differ in.
func sameExported(a, b *lmu.Unit) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// FuzzUnpack drives lmu.Unpack, the decoder every arriving unit passes
// through, with arbitrary bytes. It checks that Unpack never panics; that a
// unit it accepts re-packs to one it decodes identically; and that no
// single-bit change to a signed unit's bytes forges a unit: flipping any bit
// of a full-signed unit, or any bit of a code-signed agent's manifest or
// code, makes Unpack fail, makes Verify fail, or decodes to the very same
// unit (a has-signature byte of 3 still reads as true).
// The second input picks the bit. Size must equal the packed length of
// every unit it decodes or signs. Unit.UnpackFrom, the decoder a host runs
// into a recycled unit, must agree with Unpack on every input, error verdict
// included, and keep nothing of the bytes it was handed.
func FuzzUnpack(f *testing.F) {
	seeds := []*lmu.Unit{
		{ // TestPackUnpackRoundTrip's unit
			Manifest: lmu.Manifest{
				Name: "codec/ogg", Version: "1.2.0", Kind: lmu.KindComponent, Publisher: "acme",
				Deps:  []lmu.Dep{{Name: "audio/core", MinVersion: "1.0"}},
				Attrs: map[string]string{"format": "ogg"},
			},
			Code:  []byte{1, 2, 3, 4},
			Data:  map[string][]byte{"table": {9, 8}},
			State: []byte{5, 5},
		},
		{Manifest: lmu.Manifest{Name: "x", Kind: lmu.KindData}}, // TestPackMinimalUnit's
		{ // a courier between hops
			Manifest: lmu.Manifest{Name: "agent/courier", Version: "1.0", Kind: lmu.KindAgent, Publisher: "publisher"},
			Code:     []byte{9, 9, 9},
			Data:     map[string][]byte{"dest": []byte("host-b"), "_hops": {2}},
			State:    []byte{1, 2, 3},
		},
	}
	for _, u := range seeds {
		f.Add(u.Pack(), uint32(0))
		// Aim one seed at each mode-byte bit that turns SigFull (1) into a
		// mode the parent accepted: 0 (bit 0) and 3 (bit 1). The mode byte
		// sits before the 64-byte signature and its one-byte length.
		modeByte := uint32(len(signedFull(u).Pack()) - 66)
		f.Add(u.Pack(), modeByte*8)
		f.Add(u.Pack(), modeByte*8+1)
	}
	withSig := seeds[0].Clone()
	withSig.Sig = &lmu.Signature{Signer: "acme", Mode: lmu.SigFull, Sig: []byte{0xDE, 0xAD}}
	f.Add(withSig.Pack(), uint32(7))

	trust := security.NewTrustStore()
	trust.TrustIdentity(fuzzSigner)
	f.Fuzz(func(t *testing.T, data []byte, bit uint32) {
		u, err := lmu.Unpack(bytes.Clone(data))
		reused, src := dirtyUnit(t), bytes.Clone(data)
		ferr := reused.UnpackFrom(src)
		if fmt.Sprint(ferr) != fmt.Sprint(err) {
			t.Fatalf("UnpackFrom error %v, Unpack error %v", ferr, err)
		}
		if err != nil {
			return
		}
		for i := range src {
			src[i] ^= 0xFF
		}
		if !sameExported(reused, u) {
			t.Fatalf("UnpackFrom into a reused unit != Unpack:\ngot  %+v\nwant %+v", reused, u)
		}
		again, err := lmu.Unpack(u.Pack())
		if err != nil {
			t.Fatalf("re-unpack of a packed decoded unit: %v", err)
		}
		if !reflect.DeepEqual(again, u) {
			t.Fatalf("Unpack(Pack(u)) != u:\ngot  %+v\nwant %+v", again, u)
		}

		full := signedFull(u)
		packed := full.Pack()
		for _, s := range []*lmu.Unit{u, full} {
			if s.Size() != len(s.Pack()) {
				t.Fatalf("Size() = %d, len(Pack()) = %d", s.Size(), len(s.Pack()))
			}
		}
		if err := security.Verify(full, trust, security.Policy{}); err != nil {
			t.Fatalf("fresh full signature rejected: %v", err)
		}
		if forged, got := flipOutcome(packed, bit%uint32(8*len(packed)), full, trust); forged {
			t.Fatalf("bit %d of a full-signed unit forged a unit that verifies:\ngot  %+v\nwant %+v",
				bit%uint32(8*len(packed)), got, full)
		}

		agent := signedAgent(u)
		packed = agent.Pack()
		prefix, span := codeCovered(agent)
		if !bytes.HasPrefix(packed, prefix) {
			t.Fatal("codeCovered's layout no longer matches Pack")
		}
		if err := security.Verify(agent, trust, security.Policy{}); err != nil {
			t.Fatalf("fresh code signature rejected: %v", err)
		}
		// Map the bit onto the covered span only.
		b := bit%uint32(8*(span[1]-span[0])) + uint32(8*span[0])
		if forged, got := flipOutcome(packed, b, agent, trust); forged {
			t.Fatalf("bit %d of a code-signed agent's covered bytes forged a unit that verifies:\ngot  %+v\nwant %+v",
				b, got, agent)
		}
	})
}
