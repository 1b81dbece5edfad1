package aria

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Attack tests through the public API and its untrusted-memory
// fault-injection methods: the library-level counterpart of the raw-memory attack tests
// in internal/core.

func corruptibleSchemes() []Scheme {
	return []Scheme{AriaHash, AriaTree, NoCacheHash, ShieldStoreScheme}
}

func loadStore(t *testing.T, scheme Scheme, n int) Store {
	t.Helper()
	st, err := Open(Options{
		Scheme:       scheme,
		EPCBytes:     16 << 20,
		ExpectedKeys: n,
		Seed:         21,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Put([]byte(fmt.Sprintf("atk-%06d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestCorrupterExposed(t *testing.T) {
	for _, s := range corruptibleSchemes() {
		st := loadStore(t, s, 100)
		if st.UntrustedSize() == 0 {
			t.Errorf("%v reports empty untrusted arena", s)
		}
		if st.FlipUntrustedByte(-1, 1) || st.FlipUntrustedByte(1<<40, 1) {
			t.Errorf("%v accepted out-of-range corruption", s)
		}
	}
}

func TestRandomCorruptionCaughtByAudit(t *testing.T) {
	for _, s := range corruptibleSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			st := loadStore(t, s, 3000)
			if err := st.VerifyIntegrity(); err != nil {
				t.Fatalf("clean audit failed: %v", err)
			}
			rng := rand.New(rand.NewSource(3))
			// Flood enough random flips that live state is hit with
			// overwhelming probability.
			for i := 0; i < 5000; i++ {
				st.FlipUntrustedByte(rng.Intn(st.UntrustedSize()), 0xA5)
			}
			if err := st.VerifyIntegrity(); !errors.Is(err, ErrIntegrity) {
				t.Errorf("audit after 5000 flips: %v, want ErrIntegrity", err)
			}
		})
	}
}

func TestWholesaleReplayCaught(t *testing.T) {
	for _, s := range []Scheme{AriaHash, AriaTree, ShieldStoreScheme} {
		t.Run(s.String(), func(t *testing.T) {
			st := loadStore(t, s, 500)
			snap := st.SnapshotUntrusted()
			// Honest overwrites advance the counters.
			for i := 0; i < 500; i++ {
				if err := st.Put([]byte(fmt.Sprintf("atk-%06d", i)), []byte("fresh!")); err != nil {
					t.Fatal(err)
				}
			}
			st.RestoreUntrusted(snap)
			// Either a targeted read or the audit must flag the replay.
			_, gerr := st.Get([]byte("atk-000000"))
			aerr := st.VerifyIntegrity()
			if !errors.Is(gerr, ErrIntegrity) && !errors.Is(aerr, ErrIntegrity) {
				t.Errorf("replay undetected: get=%v audit=%v", gerr, aerr)
			}
		})
	}
}

func TestBaselineOutOfAttackSurface(t *testing.T) {
	// Baseline stores keep everything in the EPC: there is no untrusted
	// state to corrupt. Every Store has the untrusted-memory methods, so
	// the contract is an empty arena — zero bytes, and no flip can ever
	// land.
	st := loadStore(t, BaselineHash, 10)
	if n := st.UntrustedSize(); n != 0 {
		t.Errorf("baseline store exposes %d untrusted bytes, want 0", n)
	}
	if st.FlipUntrustedByte(0, 0x01) {
		t.Error("flip landed on a store with no untrusted memory")
	}
}

func TestHonestOperationAfterFailedAttack(t *testing.T) {
	// Detection must not corrupt the trusted state: after an attack is
	// detected on one key, other (untampered) keys remain readable.
	st := loadStore(t, AriaHash, 1000)
	// Find a flip that breaks exactly one key.
	var victim []byte
	rng := rand.New(rand.NewSource(9))
	for attempt := 0; attempt < 200 && victim == nil; attempt++ {
		off := rng.Intn(st.UntrustedSize())
		st.FlipUntrustedByte(off, 0x01)
		broken := 0
		var b []byte
		for i := 0; i < 1000; i += 13 {
			k := []byte(fmt.Sprintf("atk-%06d", i))
			if _, err := st.Get(k); errors.Is(err, ErrIntegrity) {
				broken++
				b = k
			}
		}
		if broken == 1 {
			victim = b
			break
		}
		st.FlipUntrustedByte(off, 0x01) // undo and try elsewhere
	}
	if victim == nil {
		t.Skip("no single-key corruption found at this seed")
	}
	healthy := 0
	for i := 1; i < 1000; i += 13 {
		k := []byte(fmt.Sprintf("atk-%06d", i))
		if string(k) == string(victim) {
			continue
		}
		if _, err := st.Get(k); err == nil {
			healthy++
		}
	}
	if healthy == 0 {
		t.Error("detection of one attack poisoned unrelated keys")
	}
}
