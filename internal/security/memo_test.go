package security

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"logmob/internal/lmu"
)

// remembered reports whether the store's memo holds u's exact signature, so
// that the next Verify of u skips ed25519.
func remembered(t *TrustStore, u *lmu.Unit) bool {
	k := memoKey{signer: u.Sig.Signer, mode: u.Sig.Mode, hash: u.HashFor(u.Sig.Mode)}
	return t.seen(k, u.Sig.Sig)
}

func memoLen(t *TrustStore) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.verified)
}

// TestVerifyMemoRetrust: a key replaced under the same name drops every
// signature its predecessor verified, so a memoised unit fails as it would
// on a store that never saw it.
func TestVerifyMemoRetrust(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := signedUnit(t, id)
	for range 2 {
		if err := Verify(u, trust, Policy{}); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	}
	if !remembered(trust, u) {
		t.Fatal("a verified signature was not remembered")
	}
	trust.Trust("acme", MustNewIdentity("acme").Public())
	if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify after re-trust = %v, want ErrBadSignature", err)
	}
}

// TestVerifyMemoFailuresNotCached: a rejected signature leaves the memo as
// it was, whatever rule rejected it.
func TestVerifyMemoFailuresNotCached(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)

	forged := signedUnit(t, id)
	forged.Code[0] ^= 0xFF // the signature no longer covers the code
	short := signedUnit(t, id)
	short.Sig.Sig = short.Sig.Sig[:10]
	for _, u := range []*lmu.Unit{forged, short} {
		for range 2 {
			if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("Verify = %v, want ErrBadSignature", err)
			}
		}
	}
	if n := memoLen(trust); n != 0 {
		t.Fatalf("memo holds %d entries after failures only", n)
	}
	if trust.verified != nil {
		t.Error("memo allocated before any signature verified")
	}
}

// TestVerifyMemoBound: more distinct units than the bound never grow the
// memo past it, and every one of them still verifies.
func TestVerifyMemoBound(t *testing.T) {
	id := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	u := signedUnit(t, id)
	u.Code = make([]byte, 8)
	for i := range 3*memoMax + 1 {
		binary.LittleEndian.PutUint64(u.Code, uint64(i))
		id.Sign(u)
		if err := Verify(u, trust, Policy{}); err != nil {
			t.Fatalf("unit %d: Verify: %v", i, err)
		}
		if n := memoLen(trust); n > memoMax {
			t.Fatalf("after unit %d the memo holds %d entries, bound %d", i, n, memoMax)
		}
	}
	if !remembered(trust, u) {
		t.Error("the last verified unit is not remembered")
	}
}

// TestVerifyMemoCodeOnlyAgent: a code-signed agent whose data or state
// changed between hops hits the memo; one whose code changed misses, and
// fails unless re-signed.
func TestVerifyMemoCodeOnlyAgent(t *testing.T) {
	id := MustNewIdentity("publisher")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	agent := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "agent/courier", Version: "1.0", Kind: lmu.KindAgent, Publisher: id.Name},
		Code:     []byte{9, 9, 9},
		Data:     map[string][]byte{"dest": []byte("host-b")},
	}
	id.SignCode(agent)
	if err := Verify(agent, trust, Policy{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	agent.Data["hops"] = []byte{1}
	agent.State = []byte{1, 2, 3}
	if !remembered(trust, agent) {
		t.Fatal("an agent whose data and state changed misses the memo")
	}
	if err := Verify(agent, trust, Policy{}); err != nil {
		t.Fatalf("Verify after data and state changed: %v", err)
	}

	agent.Code = []byte{9, 9, 8}
	if remembered(trust, agent) {
		t.Fatal("an agent whose code changed hits the memo")
	}
	if err := Verify(agent, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify of changed code = %v, want ErrBadSignature", err)
	}
	id.SignCode(agent)
	if err := Verify(agent, trust, Policy{}); err != nil {
		t.Fatalf("Verify of re-signed code: %v", err)
	}
	if n := memoLen(trust); n != 2 {
		t.Errorf("memo holds %d entries, want one per code version (2)", n)
	}
}

// TestVerifyMemoConcurrent runs verifications beside Trust and Revoke under
// the race detector, then checks the memo at rest: a verification that
// looked its key up before the last Trust must not have left an entry that
// the key trusted now would not have made.
func TestVerifyMemoConcurrent(t *testing.T) {
	id := MustNewIdentity("acme")
	impostor := MustNewIdentity("acme")
	trust := NewTrustStore()
	trust.TrustIdentity(id)
	units := make([]*lmu.Unit, 4)
	for i := range units {
		units[i] = signedUnit(t, id)
		units[i].Code = []byte{byte(i)}
		id.Sign(units[i])
	}
	fake := signedUnit(t, impostor)
	units = append(units, fake)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := Verify(units[(g+i)%len(units)], trust, Policy{})
				if err != nil && !errors.Is(err, ErrUnknownSigner) && !errors.Is(err, ErrBadSignature) {
					errs <- err
					return
				}
			}
		}()
	}
	for i := range 300 {
		switch i % 3 {
		case 0:
			trust.Revoke("acme")
		case 1:
			trust.TrustIdentity(id)
		default:
			trust.TrustIdentity(impostor)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The impostor's key was trusted last: only its unit verifies.
	for _, u := range units[:len(units)-1] {
		if err := Verify(u, trust, Policy{}); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("publisher's unit under the impostor's key = %v, want ErrBadSignature", err)
		}
	}
	if err := Verify(fake, trust, Policy{}); err != nil {
		t.Fatalf("impostor's unit under its own key: %v", err)
	}
}

// FuzzVerifyMemo is FuzzUnpack's bit-flip property turned on the memo: sign
// a unit in each coverage, verify it once so the memo holds it, flip one bit
// of its packed bytes, and whenever the result still unpacks, Verify against
// the filled store must give the verdict a fresh store trusting the same key
// gives. The second input picks the bit.
func FuzzVerifyMemo(f *testing.F) {
	seeds := []*lmu.Unit{
		{
			Manifest: lmu.Manifest{
				Name: "codec/ogg", Version: "1.2.0", Kind: lmu.KindComponent, Publisher: "acme",
				Deps:  []lmu.Dep{{Name: "audio/core", MinVersion: "1.0"}},
				Attrs: map[string]string{"format": "ogg"},
			},
			Code:  []byte{1, 2, 3, 4},
			Data:  map[string][]byte{"table": {9, 8}},
			State: []byte{5, 5},
		},
		{Manifest: lmu.Manifest{Name: "x", Kind: lmu.KindData}},
		{
			Manifest: lmu.Manifest{Name: "agent/courier", Version: "1.0", Kind: lmu.KindAgent, Publisher: "publisher"},
			Code:     []byte{9, 9, 9},
			Data:     map[string][]byte{"dest": []byte("host-b"), "_hops": {2}},
			State:    []byte{1, 2, 3},
		},
	}
	for _, u := range seeds {
		// The mode byte turned to 0 and to 3, a signature bit, and the
		// pack version (see the aiming rule below).
		for _, bit := range []uint32{0, 3, 3 * (8*2 + 9), 1} {
			f.Add(u.Pack(), bit)
		}
	}

	id := MustNewIdentity("fuzz-publisher")
	f.Fuzz(func(t *testing.T, data []byte, bit uint32) {
		u, err := lmu.Unpack(bytes.Clone(data))
		if err != nil {
			return
		}
		u.Manifest.Publisher = id.Name
		full := u.Clone()
		id.Sign(full)
		agent := u.Clone()
		agent.Manifest.Kind = lmu.KindAgent
		id.SignCode(agent)

		filled := NewTrustStore()
		filled.TrustIdentity(id)
		for _, signed := range []*lmu.Unit{full, agent} {
			if err := Verify(signed, filled, Policy{}); err != nil {
				t.Fatalf("fresh signature rejected: %v", err)
			}
			packed := signed.Pack()
			// Aim every third input at the 66 bytes of mode, length and
			// signature at the end, where a memo bug would hide.
			b := bit % uint32(8*len(packed))
			if bit%3 == 0 {
				b = uint32(8*(len(packed)-66)) + bit/3%(8*66)
			}
			packed[b/8] ^= 1 << (b % 8)
			got, err := lmu.Unpack(packed)
			if err != nil {
				continue
			}
			fresh := NewTrustStore()
			fresh.TrustIdentity(id)
			want := Verify(got, fresh, Policy{})
			if err := Verify(got, filled, Policy{}); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("bit %d: filled store says %v, fresh store says %v", b, err, want)
			}
		}
	})
}
