package lmu

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"logmob/internal/wire"
)

func sampleUnit() *Unit {
	return &Unit{
		Manifest: Manifest{
			Name:      "codec/ogg",
			Version:   "1.2.0",
			Kind:      KindComponent,
			Publisher: "acme",
			Deps:      []Dep{{Name: "audio/core", MinVersion: "1.0"}},
			Attrs:     map[string]string{"format": "ogg"},
		},
		Code:  []byte{1, 2, 3, 4},
		Data:  map[string][]byte{"table": {9, 8}},
		State: []byte{5, 5},
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	u := sampleUnit()
	got, err := Unpack(u.Pack())
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(got, u) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, u)
	}
}

func TestPackUnpackWithSignature(t *testing.T) {
	u := sampleUnit()
	u.Sig = &Signature{Signer: "acme", Sig: []byte{0xDE, 0xAD}}
	got, err := Unpack(u.Pack())
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.Sig == nil || got.Sig.Signer != "acme" || !bytes.Equal(got.Sig.Sig, []byte{0xDE, 0xAD}) {
		t.Errorf("Sig = %+v", got.Sig)
	}
}

func TestPackMinimalUnit(t *testing.T) {
	u := &Unit{Manifest: Manifest{Name: "x", Kind: KindData}}
	got, err := Unpack(u.Pack())
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(got, u) {
		t.Errorf("round trip mismatch: got %+v want %+v", got, u)
	}
}

func TestHashStableAndSignatureIndependent(t *testing.T) {
	u := sampleUnit()
	h1 := u.Hash()
	u.Sig = &Signature{Signer: "s", Sig: []byte{1}}
	h2 := u.Hash()
	if h1 != h2 {
		t.Error("Hash changed when signature attached; must cover only content")
	}
	u.Data["table"][0] = 0xFF
	if u.Hash() == h1 {
		t.Error("Hash unchanged after content mutation")
	}
}

func TestHashDeterministicAcrossMapOrder(t *testing.T) {
	build := func() *Unit {
		u := &Unit{Manifest: Manifest{Name: "n", Kind: KindComponent}}
		u.Data = map[string][]byte{}
		u.Manifest.Attrs = map[string]string{}
		for _, k := range []string{"z", "a", "m", "q", "b"} {
			u.Data[k] = []byte(k)
			u.Manifest.Attrs[k] = k
		}
		return u
	}
	h := build().Hash()
	for i := 0; i < 20; i++ {
		if build().Hash() != h {
			t.Fatal("hash not deterministic over map iteration order")
		}
	}
}

func TestUnpackRejectsTruncated(t *testing.T) {
	packed := sampleUnit().Pack()
	for cut := 0; cut < len(packed); cut++ {
		if _, err := Unpack(packed[:cut]); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}
}

func TestUnpackRejectsEmptyName(t *testing.T) {
	u := &Unit{Manifest: Manifest{Name: "", Kind: KindData}}
	if _, err := Unpack(u.Pack()); err == nil {
		t.Fatal("expected error for empty name")
	}
}

func TestUnpackRejectsBadKind(t *testing.T) {
	u := &Unit{Manifest: Manifest{Name: "x", Kind: Kind(200)}}
	if _, err := Unpack(u.Pack()); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestUnpackRejectsTrailing(t *testing.T) {
	packed := append(sampleUnit().Pack(), 0xFF)
	if _, err := Unpack(packed); err == nil {
		t.Fatal("expected error for trailing bytes")
	}
}

// TestSizeMatchesPack holds Size to the length Pack writes: signed and
// unsigned, nil and empty data spaces, lengths on each side of a varint
// width, and a 256 KiB codec like the ones wire_bulk moves.
func TestSizeMatchesPack(t *testing.T) {
	sig := func(mode SigMode, n int) *Signature {
		return &Signature{Signer: "acme", Mode: mode, Sig: make([]byte, n)}
	}
	cases := []struct {
		name string
		edit func(u *Unit)
	}{
		{"unsigned", func(u *Unit) {}},
		{"full-signed", func(u *Unit) { u.Sig = sig(SigFull, 64) }},
		{"code-signed agent", func(u *Unit) { u.Manifest.Kind = KindAgent; u.Sig = sig(SigCode, 64) }},
		{"short signature", func(u *Unit) { u.Sig = sig(SigFull, 1) }},
		{"minimal, nil data", func(u *Unit) { *u = Unit{Manifest: Manifest{Name: "x", Kind: KindData}} }},
		{"empty data map", func(u *Unit) { u.Data = map[string][]byte{} }},
		{"nil data value", func(u *Unit) { u.Data[""] = nil }},
		{"name of 128 bytes", func(u *Unit) { u.Manifest.Name = string(make([]byte, 128)) }},
		{"code of 127 bytes", func(u *Unit) { u.Code = make([]byte, 127) }},
		{"code of 128 bytes", func(u *Unit) { u.Code = make([]byte, 128) }},
		{"state of 16384 bytes", func(u *Unit) { u.State = make([]byte, 16384) }},
		{"data value of 16383 bytes", func(u *Unit) { u.Data["big"] = make([]byte, 16383) }},
		{"256 KiB codec", func(u *Unit) { u.Data["table"] = make([]byte, 256<<10); u.Sig = sig(SigFull, 64) }},
	}
	for _, c := range cases {
		u := sampleUnit()
		c.edit(u)
		if got, want := u.Size(), len(u.Pack()); got != want {
			t.Errorf("%s: Size() = %d, len(Pack()) = %d", c.name, got, want)
		}
	}
}

// TestEncodeAllocs pins that encoding a unit with attributes allocates
// nothing once the buffers are warm: both of its maps sort their keys on
// the stack.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers")
	}
	u := sampleUnit()
	var b wire.Buffer
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Hash", func() { u.Hash() }},
		{"Size", func() { u.Size() }},
		{"PackTo", func() { b.Reset(); u.PackTo(&b) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != 0 {
			t.Errorf("%s of a unit with one attribute allocates %v times, want 0", c.name, got)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	u := sampleUnit()
	u.Sig = &Signature{Signer: "s", Sig: []byte{1, 2}}
	c := u.Clone()
	if !reflect.DeepEqual(c, u) {
		t.Fatalf("Clone mismatch:\ngot  %+v\nwant %+v", c, u)
	}
	c.Code[0] = 0xEE
	c.Data["table"][0] = 0xEE
	c.Sig.Sig[0] = 0xEE
	c.Manifest.Attrs["format"] = "changed"
	c.Manifest.Deps[0].Name = "changed"
	if u.Code[0] == 0xEE || u.Data["table"][0] == 0xEE || u.Sig.Sig[0] == 0xEE {
		t.Error("Clone shares byte storage with original")
	}
	if u.Manifest.Attrs["format"] == "changed" || u.Manifest.Deps[0].Name == "changed" {
		t.Error("Clone shares manifest storage with original")
	}
}

func TestPackPropertyRoundTrip(t *testing.T) {
	f := func(name, version, pub string, code, state []byte, key string, val []byte) bool {
		if name == "" {
			name = "n"
		}
		u := &Unit{
			Manifest: Manifest{Name: name, Version: version, Kind: KindAgent, Publisher: pub},
			Code:     code,
			State:    state,
		}
		if key != "" {
			u.Data = map[string][]byte{key: val}
		}
		got, err := Unpack(u.Pack())
		if err != nil {
			return false
		}
		return got.Hash() == u.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindComponent: "component", KindAgent: "agent",
		KindRequest: "request", KindData: "data", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.0", "1.0", 0},
		{"1.2", "1.2.0", 0},
		{"1.0", "1.1", -1},
		{"2.0", "1.9.9", 1},
		{"1.10", "1.9", 1},
		{"0.1", "0.0.9", 1},
		{"", "", 0},
		{"1.0-beta", "1.0-alpha", 1}, // lexical fallback on non-numeric
		{"1.0", "1.0-beta", -1},      // "0" numeric vs "0-beta" lexical
	}
	for _, c := range cases {
		if got := CompareVersions(c.a, c.b); got != c.want {
			t.Errorf("CompareVersions(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := CompareVersions(c.b, c.a); got != -c.want {
			t.Errorf("CompareVersions(%q,%q) = %d, want %d (antisymmetry)", c.b, c.a, got, -c.want)
		}
	}
}
