package security

import (
	"crypto/ed25519"
	"errors"
	"testing"

	"logmob/internal/lmu"
)

func signedUnit(t *testing.T, id *Identity) *lmu.Unit {
	t.Helper()
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "codec/mp3", Version: "1.0", Kind: lmu.KindComponent, Publisher: id.Name},
		Code:     []byte{1, 2, 3},
	}
	id.Sign(u)
	return u
}

func TestSignVerify(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := signedUnit(t, id)
	if err := Verify(u, trust, Policy{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifySurvivesPackUnpack(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := signedUnit(t, id)
	got, err := lmu.Unpack(u.Pack())
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if err := Verify(got, trust, Policy{}); err != nil {
		t.Fatalf("Verify after transport: %v", err)
	}
}

func TestVerifyRejectsTamperedCode(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := signedUnit(t, id)
	u.Code[0] ^= 0xFF
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsTamperedManifest(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := signedUnit(t, id)
	u.Manifest.Version = "9.9"
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify = %v, want ErrBadSignature", err)
	}
}

func TestVerifyUnsigned(t *testing.T) {
	trust := NewTrustStore()
	u := &lmu.Unit{Manifest: lmu.Manifest{Name: "x", Kind: lmu.KindData}}
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrUnsigned) {
		t.Fatalf("Verify = %v, want ErrUnsigned", err)
	}
	if err := Verify(u, trust, Policy{AllowUnsigned: true}); err != nil {
		t.Fatalf("Verify with AllowUnsigned: %v", err)
	}
}

func TestVerifyUnknownSigner(t *testing.T) {
	id := MustNewIdentity("acme")
	u := signedUnit(t, id)
	trust := NewTrustStore() // empty
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("Verify = %v, want ErrUnknownSigner", err)
	}
}

func TestVerifyWrongKeySameName(t *testing.T) {
	id := MustNewIdentity("acme")
	impostor := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(impostor) // trust the impostor's key
	u := signedUnit(t, id)        // signed with the real key
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify = %v, want ErrBadSignature", err)
	}
}

func TestPublisherMatchPolicy(t *testing.T) {
	signer := MustNewIdentity("third-party")
	trust := NewTrustStore()
	trust.TrustIdentity(signer)
	u := &lmu.Unit{Manifest: lmu.Manifest{Name: "x", Kind: lmu.KindComponent, Publisher: "acme"}}
	signer.Sign(u)
	// A trusted signer still may not vouch for another publisher's unit.
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("Verify = %v, want ErrUntrusted", err)
	}
	u.Manifest.Publisher = signer.Name
	signer.Sign(u)
	if err := Verify(u, trust, Policy{}); err != nil {
		t.Fatalf("Verify with matching publisher: %v", err)
	}
}

func TestRevoke(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := signedUnit(t, id)
	for range 2 { // the second verification is a memo hit
		if err := Verify(u, trust, Policy{}); err != nil {
			t.Fatalf("Verify before revoke: %v", err)
		}
	}
	trust.Revoke("acme")
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("Verify after revoke = %v, want ErrUnknownSigner", err)
	}
	if _, ok := trust.Key("acme"); ok {
		t.Error("revoked key still in the store")
	}
	if n := memoLen(trust); n != 0 {
		t.Errorf("memo holds %d entries after revoke", n)
	}
}

func TestResignAfterMutation(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := signedUnit(t, id)
	u.Data = map[string][]byte{"k": {1}}
	if err := Verify(u, trust, Policy{}); err == nil {
		t.Fatal("stale signature accepted")
	}
	id.Sign(u)
	if err := Verify(u, trust, Policy{}); err != nil {
		t.Fatalf("Verify after re-sign: %v", err)
	}
}

func TestTrustStoreCopiesKey(t *testing.T) {
	id := MustNewIdentity("acme")
	key := append([]byte(nil), id.Public()...)
	trust := NewTrustStore()
	trust.Trust("acme", key)
	key[0] ^= 0xFF // mutate caller's slice
	stored, ok := trust.Key("acme")
	if !ok {
		t.Fatal("key missing")
	}
	if stored[0] == key[0] {
		t.Error("TrustStore aliases caller's key slice")
	}
}

func TestCodeSignatureSurvivesStateMutation(t *testing.T) {
	id := MustNewIdentity("publisher")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	agent := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "agent/courier", Version: "1.0", Kind: lmu.KindAgent, Publisher: id.Name},
		Code:     []byte{9, 9, 9},
		Data:     map[string][]byte{"dest": []byte("host-b")},
	}
	id.SignCode(agent)
	// Simulate migration: data and state mutate at each hop.
	agent.State = []byte{1, 2, 3}
	agent.Data["hops"] = []byte{5}
	if err := Verify(agent, trust, Policy{}); err != nil {
		t.Fatalf("Verify after state mutation: %v", err)
	}
	// Tampering with the code still breaks it.
	agent.Code[0] ^= 0xFF
	if err := Verify(agent, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify = %v, want ErrBadSignature for code tamper", err)
	}
}

// A code signature covers the whole manifest: a host between two hops that
// rewrites a code-signed agent's dependencies or attributes breaks it.
func TestCodeSignatureCoversDepsAndAttrs(t *testing.T) {
	id := MustNewIdentity("publisher")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	rewrites := []struct {
		name string
		fn   func(*lmu.Manifest)
	}{
		{"add a dep", func(m *lmu.Manifest) { m.Deps = append(m.Deps, lmu.Dep{Name: "lib/evil", MinVersion: "1"}) }},
		{"lower a dep's version", func(m *lmu.Manifest) { m.Deps[0].MinVersion = "0.1" }},
		{"drop the deps", func(m *lmu.Manifest) { m.Deps = nil }},
		{"change an attr", func(m *lmu.Manifest) { m.Attrs["role"] = "admin" }},
		{"add an attr", func(m *lmu.Manifest) { m.Attrs["extra"] = "x" }},
		{"drop the attrs", func(m *lmu.Manifest) { m.Attrs = nil }},
	}
	for _, rw := range rewrites {
		t.Run(rw.name, func(t *testing.T) {
			agent := &lmu.Unit{
				Manifest: lmu.Manifest{
					Name: "agent/courier", Version: "1.0", Kind: lmu.KindAgent, Publisher: id.Name,
					Deps:  []lmu.Dep{{Name: "lib/route", MinVersion: "2.0"}},
					Attrs: map[string]string{"role": "courier"},
				},
				Code: []byte{9, 9, 9},
			}
			id.SignCode(agent)
			got, err := lmu.Unpack(agent.Pack())
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(got, trust, Policy{}); err != nil {
				t.Fatalf("Verify before the rewrite: %v", err)
			}
			rw.fn(&got.Manifest)
			if err := Verify(got, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("Verify after the rewrite = %v, want ErrBadSignature", err)
			}
		})
	}
}

func TestComponentRejectsCodeSig(t *testing.T) {
	id := MustNewIdentity("publisher")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := &lmu.Unit{Manifest: lmu.Manifest{Name: "c", Kind: lmu.KindComponent, Publisher: id.Name}, Code: []byte{1}}
	id.SignCode(u)
	// A component is installed with its data space: code-only coverage
	// would leave that data unauthenticated.
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("Verify = %v, want ErrUntrusted", err)
	}
	id.Sign(u)
	if err := Verify(u, trust, Policy{}); err != nil {
		t.Fatalf("Verify full sig: %v", err)
	}
}

func TestSigModeSurvivesTransport(t *testing.T) {
	id := MustNewIdentity("publisher")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := &lmu.Unit{Manifest: lmu.Manifest{Name: "a", Kind: lmu.KindAgent, Publisher: id.Name}, Code: []byte{7}}
	id.SignCode(u)
	got, err := lmu.Unpack(u.Pack())
	if err != nil {
		t.Fatal(err)
	}
	got.State = []byte{9} // mutate state in transit-equivalent way
	if err := Verify(got, trust, Policy{}); err != nil {
		t.Fatalf("Verify unpacked code-signed unit: %v", err)
	}
	if got.Sig.Mode != lmu.SigCode {
		t.Errorf("Mode = %d, want SigCode", got.Sig.Mode)
	}
}

// TestVerifyCoverageFollowsKind is the whole acceptance rule as a table: a
// trusted key signing as the manifest's publisher, with full coverage on any
// kind or code-only coverage on an agent. Every other combination is
// ErrUntrusted — including mode bytes that are neither mode, whatever hash
// they were signed over.
func TestVerifyCoverageFollowsKind(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	kinds := []lmu.Kind{lmu.KindComponent, lmu.KindAgent, lmu.KindRequest, lmu.KindData}
	modes := []lmu.SigMode{0, lmu.SigFull, lmu.SigCode, 3}
	for _, kind := range kinds {
		for _, mode := range modes {
			for _, publisher := range []string{"acme", "other"} {
				u := &lmu.Unit{
					Manifest: lmu.Manifest{Name: "u", Version: "1.0", Kind: kind, Publisher: publisher},
					Code:     []byte{1, 2},
					Data:     map[string][]byte{"k": {3}},
				}
				// Sign over exactly the hash the mode byte names, so a
				// rejection comes from the rule, not from a bad signature.
				h := u.HashFor(mode)
				u.Sig = &lmu.Signature{Signer: id.Name, Mode: mode, Sig: ed25519.Sign(id.priv, h[:])}
				want := publisher == id.Name && (mode == lmu.SigFull || (mode == lmu.SigCode && kind == lmu.KindAgent))
				err := Verify(u, trust, Policy{})
				switch {
				case want && err != nil:
					t.Errorf("%s, mode %d, publisher %q: Verify = %v, want accepted", kind, mode, publisher, err)
				case !want && !errors.Is(err, ErrUntrusted):
					t.Errorf("%s, mode %d, publisher %q: Verify = %v, want ErrUntrusted", kind, mode, publisher, err)
				}
			}
		}
	}
}
