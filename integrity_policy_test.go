package aria

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// Integrity-failure policy tests: FailStop preserves per-operation
// fail-fast semantics, Quarantine poisons tampered keys and keeps serving
// the rest, and Stats().Health() reflects the store's condition.

const policyKeys = 1000

func policyOptions(policy IntegrityPolicy) Options {
	return Options{
		Scheme:       AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: policyKeys,
		Seed:         21,
		// Disable the Secure Cache so every Get verifies untrusted memory:
		// with a warm cache a flipped byte may go unread and undetected,
		// which would make the victim search flaky.
		SecureCacheBytes: -1,
		IntegrityPolicy:  policy,
	}
}

func loadPolicyStore(t *testing.T, policy IntegrityPolicy) Store {
	t.Helper()
	st, err := Open(policyOptions(policy))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < policyKeys; i++ {
		if err := st.Put(policyKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func policyKey(i int) []byte { return []byte(fmt.Sprintf("atk-%06d", i)) }

// findNarrowCorruption searches (on a throwaway scout store with identical
// deterministic layout) for a single byte flip that breaks at least one
// but only a few keys. The arena is far larger than the live data, so the
// search walks the low offsets — where the allocator placed the hash
// directory — rather than sampling the whole arena. Returns the flip
// offset, or -1 if none was found.
func findNarrowCorruption(t *testing.T) int {
	t.Helper()
	st := loadPolicyStore(t, FailStop)
	limit := 65536
	if s := st.UntrustedSize(); s < limit {
		limit = s
	}
	for off := 0; off < limit; off += 61 {
		st.FlipUntrustedByte(off, 0xA5)
		broken := 0
		for i := 0; i < policyKeys; i++ {
			if _, err := st.Get(policyKey(i)); errors.Is(err, ErrIntegrity) {
				broken++
			}
		}
		st.FlipUntrustedByte(off, 0xA5) // undo before deciding
		if broken >= 1 && broken <= 8 {
			return off
		}
	}
	return -1
}

// brokenSet probes every key once and returns those failing with
// ErrIntegrity.
func brokenSet(t *testing.T, st Store) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for i := 0; i < policyKeys; i++ {
		k := policyKey(i)
		_, err := st.Get(k)
		switch {
		case err == nil:
		case errors.Is(err, ErrIntegrity):
			out[string(k)] = true
		default:
			t.Fatalf("key %s: unexpected error %v", k, err)
		}
	}
	return out
}

func TestQuarantinePolicyDegradesNotDies(t *testing.T) {
	off := findNarrowCorruption(t)
	if off < 0 {
		t.Skip("no narrow single-flip corruption found at this seed")
	}
	st := loadPolicyStore(t, Quarantine)
	if st.Stats().Health() != HealthOK {
		t.Fatalf("pre-attack health = %v", st.Stats().Health())
	}
	st.FlipUntrustedByte(off, 0x01)

	broken := brokenSet(t, st)
	if len(broken) == 0 {
		t.Skip("flip did not reproduce on the fresh store (layout drift)")
	}
	stats := st.Stats()
	if stats.QuarantinedKeys != len(broken) {
		t.Errorf("QuarantinedKeys = %d, want %d", stats.QuarantinedKeys, len(broken))
	}
	if stats.IntegrityFailures == 0 {
		t.Error("IntegrityFailures not counted")
	}
	if got := stats.Health(); got != HealthDegraded {
		t.Errorf("health = %v, want %v", got, HealthDegraded)
	}

	// Poisoned keys short-circuit with the quarantine sentinel; every
	// other key keeps serving — even after the attacker restores the
	// byte, because trust, once lost, does not silently return.
	st.FlipUntrustedByte(off, 0x01) // attacker "undoes" the tamper
	for i := 0; i < policyKeys; i++ {
		k := policyKey(i)
		v, err := st.Get(k)
		if broken[string(k)] {
			if !errors.Is(err, ErrIntegrity) || !errors.Is(err, ErrQuarantined) {
				t.Fatalf("quarantined key %s: err = %v, want ErrIntegrity+ErrQuarantined", k, err)
			}
			if err := st.Put(k, []byte("x")); !errors.Is(err, ErrQuarantined) {
				t.Fatalf("quarantined key %s accepted Put: %v", k, err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("healthy key %s failed after quarantine: %q %v", k, v, err)
		}
	}
	// Quarantine state is monotone: health stays degraded.
	if got := st.Stats().Health(); got != HealthDegraded {
		t.Errorf("post-restore health = %v, want %v", got, HealthDegraded)
	}
}

func TestFailStopPolicyStaysFailFast(t *testing.T) {
	off := findNarrowCorruption(t)
	if off < 0 {
		t.Skip("no narrow single-flip corruption found at this seed")
	}
	st := loadPolicyStore(t, FailStop)
	st.FlipUntrustedByte(off, 0x01)

	broken := brokenSet(t, st)
	if len(broken) == 0 {
		t.Skip("flip did not reproduce on the fresh store (layout drift)")
	}
	stats := st.Stats()
	if got := stats.Health(); got != HealthFailed {
		t.Errorf("health = %v, want %v", got, HealthFailed)
	}
	if stats.QuarantinedKeys != 0 {
		t.Errorf("FailStop quarantined %d keys", stats.QuarantinedKeys)
	}
	// Untampered keys keep serving (detection never corrupts trusted
	// state), and the tampered key fails again on every access.
	for k := range broken {
		if _, err := st.Get([]byte(k)); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("tampered key %s: second Get = %v, want ErrIntegrity", k, err)
		}
		if errors.Is(func() error { _, err := st.Get([]byte(k)); return err }(), ErrQuarantined) {
			t.Fatalf("FailStop store quarantined key %s", k)
		}
	}
	// FailStop is stateless per key: restoring the byte restores reads,
	// unlike Quarantine.
	st.FlipUntrustedByte(off, 0x01)
	for k := range broken {
		if _, err := st.Get([]byte(k)); err != nil {
			t.Fatalf("FailStop key %s still failing after restore: %v", k, err)
		}
	}
	// The failure record itself is sticky for operators.
	if got := st.Stats().Health(); got != HealthFailed {
		t.Errorf("health after restore = %v, want %v (sticky record)", got, HealthFailed)
	}
}

func TestHealthSurvivesStatsJSON(t *testing.T) {
	// kvnet ships Stats as JSON; the health inputs must round-trip so
	// remote clients can compute Health() identically.
	in := Stats{
		IntegrityPolicy:   Quarantine,
		IntegrityFailures: 3,
		QuarantinedKeys:   2,
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Stats
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Health() != HealthDegraded {
		t.Errorf("remote health = %v, want %v", out.Health(), HealthDegraded)
	}
	if out.Health() != in.Health() {
		t.Errorf("health changed across JSON: %v vs %v", out.Health(), in.Health())
	}
}

func TestBaselineAlwaysHealthy(t *testing.T) {
	st, err := Open(Options{Scheme: BaselineHash, EPCBytes: 16 << 20, ExpectedKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Health(); got != HealthOK {
		t.Errorf("baseline health = %v", got)
	}
}
