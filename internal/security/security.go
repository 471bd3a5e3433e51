// Package security implements code signing for Logical Mobility Units.
//
// The paper: "Security mechanisms such as digital signatures can be used to
// ensure the safety and authenticity of the downloaded code." Units are
// signed with ed25519 over their canonical content hash; hosts verify
// against a local trust store before installing or executing foreign code.
// Who may sign a unit and how much of it the signature must cover are read
// from the unit's own manifest, so every host applies the same rule.
package security

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"logmob/internal/lmu"
)

// Verification errors, matched with errors.Is.
var (
	// ErrUnsigned reports a unit with no signature under a policy that
	// requires one.
	ErrUnsigned = errors.New("security: unit is not signed")
	// ErrUnknownSigner reports a signer absent from the trust store.
	ErrUnknownSigner = errors.New("security: signer not in trust store")
	// ErrBadSignature reports a signature that does not verify.
	ErrBadSignature = errors.New("security: signature verification failed")
	// ErrUntrusted reports a signature that is not acceptable for the unit
	// whatever its bytes: a signer other than the manifest's publisher, or a
	// coverage mode the unit's kind does not allow.
	ErrUntrusted = errors.New("security: signature not acceptable for this unit")
)

// Identity is a named ed25519 keypair.
type Identity struct {
	Name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewIdentity generates a fresh keypair named name.
func NewIdentity(name string) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("security: generate key for %q: %w", name, err)
	}
	return &Identity{Name: name, pub: pub, priv: priv}, nil
}

// MustNewIdentity is NewIdentity panicking on error, for test and example
// setup. Key generation fails only if the system entropy source does.
func MustNewIdentity(name string) *Identity {
	id, err := NewIdentity(name)
	if err != nil {
		panic(err)
	}
	return id
}

// Public returns the identity's public key.
func (id *Identity) Public() ed25519.PublicKey { return id.pub }

// Sign attaches a full-coverage signature envelope to the unit. Any previous
// signature is replaced. Mutating the unit after signing invalidates the
// signature.
func (id *Identity) Sign(u *lmu.Unit) {
	id.sign(u, lmu.SigFull)
}

// SignCode attaches a code-only signature: it stays valid while the unit's
// data and execution state mutate, which is what a mobile agent needs — the
// publisher vouches for the code, and each hosting environment decides
// whether to accept the travelling state. Verify accepts it on agents only.
func (id *Identity) SignCode(u *lmu.Unit) {
	id.sign(u, lmu.SigCode)
}

func (id *Identity) sign(u *lmu.Unit, mode lmu.SigMode) {
	h := u.HashFor(mode)
	u.Sig = &lmu.Signature{Signer: id.Name, Mode: mode, Sig: ed25519.Sign(id.priv, h[:])}
}

// memoMax bounds a trust store's memo of verified signatures. A full memo is
// dropped and started afresh: the units that keep arriving refill it at once.
const memoMax = 256

// memoKey names one verified signature's coverage: the signer, the mode and
// the hash that mode covers. The manifest and the code are inside the hash
// in both modes, and data and state are inside it only under SigFull, so
// nothing else of the unit can change a verdict.
type memoKey struct {
	signer string
	mode   lmu.SigMode
	hash   [32]byte
}

// TrustStore maps signer names to public keys. Safe for concurrent use.
//
// It also remembers the signatures it has verified, so a unit that arrives
// again pays its hash but not its ed25519 verification. A memo entry holds
// the exact signature bytes that verified over its key under the key then
// trusted; Trust and Revoke drop the memo, and a failed verification never
// enters it.
type TrustStore struct {
	mu       sync.RWMutex
	keys     map[string]ed25519.PublicKey            // guarded by mu
	verified map[memoKey][ed25519.SignatureSize]byte // guarded by mu; nil until the first verified signature
}

// NewTrustStore returns an empty store.
func NewTrustStore() *TrustStore {
	return &TrustStore{keys: make(map[string]ed25519.PublicKey)}
}

// Trust records the key under name, replacing any previous key.
func (t *TrustStore) Trust(name string, key ed25519.PublicKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keys[name] = append(ed25519.PublicKey(nil), key...)
	t.verified = nil
}

// TrustIdentity records the identity's public key under its name.
func (t *TrustStore) TrustIdentity(id *Identity) {
	t.Trust(id.Name, id.Public())
}

// Revoke removes name from the store.
func (t *TrustStore) Revoke(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.keys, name)
	t.verified = nil
}

// Key returns the key trusted under name.
func (t *TrustStore) Key(name string) (ed25519.PublicKey, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k, ok := t.keys[name]
	return k, ok
}

// seen reports whether sig has already verified over k under the key now
// trusted as k.signer: Trust and Revoke drop the memo, so an entry outlives
// no change of key.
func (t *TrustStore) seen(k memoKey, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, hit := t.verified[k]
	return hit && v == [ed25519.SignatureSize]byte(sig)
}

// remember records that sig verified over k under key; having verified, sig
// is ed25519.SignatureSize bytes long. It records nothing if k.signer no
// longer maps to key: a Trust or Revoke ran since Verify read the key.
func (t *TrustStore) remember(k memoKey, key ed25519.PublicKey, sig []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.keys[k.signer]; !ok || !cur.Equal(key) {
		return
	}
	if t.verified == nil || len(t.verified) >= memoMax {
		t.verified = make(map[memoKey][ed25519.SignatureSize]byte)
	}
	t.verified[k] = [ed25519.SignatureSize]byte(sig)
}

// Policy configures what a host accepts beyond the rule Verify reads from
// the unit itself.
type Policy struct {
	// AllowUnsigned accepts units with no signature. Default false: code
	// from the network must be signed.
	AllowUnsigned bool
}

// Verify checks the unit's signature against the trust store. It returns
// nil if the unit is acceptable. An unsigned unit is acceptable only under
// policy.AllowUnsigned. A signed one must be signed by a trusted key whose
// name is the manifest's Publisher, with a coverage its kind allows: SigFull
// on every kind, SigCode on agents only — a component, request or data unit
// signed code-only would carry an unauthenticated data space.
//
// Every rule runs on every call, before the covered hash is computed, so a
// unit the rules refuse is never hashed. Only the ed25519 check is skipped,
// when the trust store has already verified these signature bytes over this
// hash for this signer.
func Verify(u *lmu.Unit, trust *TrustStore, policy Policy) error {
	if u.Sig == nil {
		if policy.AllowUnsigned {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrUnsigned, u.Manifest.Name)
	}
	key, ok := trust.Key(u.Sig.Signer)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSigner, u.Sig.Signer)
	}
	if u.Sig.Signer != u.Manifest.Publisher {
		return fmt.Errorf("%w: signed by %q, published by %q",
			ErrUntrusted, u.Sig.Signer, u.Manifest.Publisher)
	}
	if u.Sig.Mode != lmu.SigFull && (u.Sig.Mode != lmu.SigCode || u.Manifest.Kind != lmu.KindAgent) {
		return fmt.Errorf("%w: signature mode %d on %s %s",
			ErrUntrusted, u.Sig.Mode, u.Manifest.Kind, u.Manifest.Name)
	}
	k := memoKey{signer: u.Sig.Signer, mode: u.Sig.Mode, hash: u.HashFor(u.Sig.Mode)}
	if trust.seen(k, u.Sig.Sig) {
		return nil
	}
	if !ed25519.Verify(key, k.hash[:], u.Sig.Sig) {
		return fmt.Errorf("%w: %s signed by %q", ErrBadSignature, u.Manifest.Name, u.Sig.Signer)
	}
	trust.remember(k, key, u.Sig.Sig)
	return nil
}
