package aria

// Unit tests for the semantics layer: version-checked CAS, per-key TTL
// under a fake clock (lazy expiry and the background sweeper), version
// monotonicity across delete/recreate, the optimistic Txn overlay, and
// the counters all of it feeds.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// semOpts opens a small in-memory store with a controllable clock.
func semOpts(now func() time.Time) Options {
	return Options{
		Scheme:       AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: 512,
		Seed:         3,
		Now:          now,
	}
}

// fakeClock is a hand-advanced time source safe to share with the
// sweeper goroutine.
type fakeClock struct{ nanos atomic.Int64 }

func newFakeClock(at time.Time) *fakeClock {
	c := &fakeClock{}
	c.nanos.Store(at.UnixNano())
	return c
}
func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

func TestCompareAndSwapVersions(t *testing.T) {
	st := mustOpenPlain(t, semOpts(nil))

	// expect=0 creates only if absent.
	if err := st.CompareAndSwap([]byte("k"), []byte("v0"), 0); err != nil {
		t.Fatalf("create-CAS on absent key: %v", err)
	}
	if err := st.CompareAndSwap([]byte("k"), []byte("x"), 0); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("create-CAS on existing key: %v, want ErrCASMismatch", err)
	}

	_, ver, err := st.GetV([]byte("k"))
	if err != nil || ver == 0 {
		t.Fatalf("GetV: v%d, %v; want a nonzero version", ver, err)
	}
	if err := st.CompareAndSwap([]byte("k"), []byte("v1"), ver); err != nil {
		t.Fatalf("CAS at the observed version: %v", err)
	}
	// The stale loser must not clobber the winner.
	if err := st.CompareAndSwap([]byte("k"), []byte("loser"), ver); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("stale CAS: %v, want ErrCASMismatch", err)
	}
	if v, _ := st.Get([]byte("k")); string(v) != "v1" {
		t.Fatalf("after stale CAS, k = %q, want v1", v)
	}
	if got := st.Stats().CASMismatches; got != 2 {
		t.Fatalf("CASMismatches = %d, want 2", got)
	}
}

func TestVersionsMonotonicAcrossRecreate(t *testing.T) {
	st := mustOpenPlain(t, semOpts(nil))
	if err := st.Put([]byte("k"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	_, v1, err := st.GetV([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("k"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	_, v2, err := st.GetV([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	// A recreated key must never reuse an old version, or a CAS taken
	// before the delete could succeed against the new value.
	if v2 <= v1 {
		t.Fatalf("recreated key version %d not above original %d", v2, v1)
	}
	if err := st.CompareAndSwap([]byte("k"), []byte("c"), v1); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("CAS with pre-delete version: %v, want ErrCASMismatch", err)
	}
}

func TestMPutBumpsVersions(t *testing.T) {
	st := mustOpenPlain(t, semOpts(nil))
	pairs := []KV{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	}
	if errs := st.MPut(pairs); errs != nil {
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range pairs {
		_, ver, err := st.GetV(p.Key)
		if err != nil || ver == 0 {
			t.Fatalf("GetV(%s): v%d, %v; want a nonzero version", p.Key, ver, err)
		}
		// The version is live: a CAS against it succeeds.
		if err := st.CompareAndSwap(p.Key, []byte("new"), ver); err != nil {
			t.Fatalf("CAS(%s) at MPut version %d: %v", p.Key, ver, err)
		}
	}
}

func TestTTLLazyExpiry(t *testing.T) {
	clock := newFakeClock(time.Unix(1_700_000_000, 0))
	st := mustOpenPlain(t, semOpts(clock.Now))
	if err := st.PutTTL([]byte("k"), []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if v, err := st.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("inside the deadline: %q, %v", v, err)
	}
	clock.Advance(2 * time.Hour)
	if _, err := st.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("past the deadline: %v, want ErrNotFound", err)
	}
	if got := st.Stats().TTLExpired; got != 1 {
		t.Fatalf("TTLExpired = %d, want 1", got)
	}
	// The slot is free again and versions keep climbing.
	if err := st.CompareAndSwap([]byte("k"), []byte("fresh"), 0); err != nil {
		t.Fatalf("create-CAS after expiry: %v", err)
	}
	// ttl <= 0 stores without a deadline.
	if err := st.PutTTL([]byte("forever"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(1000 * time.Hour)
	if _, err := st.Get([]byte("forever")); err != nil {
		t.Fatalf("zero-TTL key expired: %v", err)
	}
}

func TestTTLSweeper(t *testing.T) {
	clock := newFakeClock(time.Unix(1_700_000_000, 0))
	opts := semOpts(clock.Now)
	opts.TTLSweepEvery = 5 * time.Millisecond
	st := mustOpenPlain(t, opts)
	for _, k := range []string{"a", "b", "c"} {
		if err := st.PutTTL([]byte(k), []byte("v"), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Hour)
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().TTLSwept < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper reaped %d of 3 expired keys", st.Stats().TTLSwept)
		}
		time.Sleep(time.Millisecond)
	}
	if got := st.Stats().TTLSweeps; got == 0 {
		t.Fatal("TTLSweeps stayed zero while TTLSwept advanced")
	}
	// Swept keys were never surfaced to a reader, so they are not
	// "expired on read".
	if got := st.Stats().TTLExpired; got != 0 {
		t.Fatalf("TTLExpired = %d, want 0 (sweeper reaps are counted separately)", got)
	}
}

func TestTxnOverlayReadYourWrites(t *testing.T) {
	st := mustOpenPlain(t, semOpts(nil))
	if err := st.Put([]byte("base"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	txn := NewTxn(st)
	txn.Put([]byte("base"), []byte("new"))
	if v, err := txn.Get([]byte("base")); err != nil || string(v) != "new" {
		t.Fatalf("overlay read = %q, %v; want the buffered write", v, err)
	}
	txn.Delete([]byte("base"))
	if _, err := txn.Get([]byte("base")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after buffered delete: %v, want ErrNotFound", err)
	}
	// Nothing reached the store yet.
	if v, _ := st.Get([]byte("base")); string(v) != "old" {
		t.Fatalf("buffered writes leaked: base = %q, want old", v)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, err := st.Get([]byte("base")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("committed delete not applied: %v", err)
	}
}

func TestTxnConflictAppliesNothing(t *testing.T) {
	st := mustOpenPlain(t, semOpts(nil))
	if err := st.Put([]byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	txn := NewTxn(st)
	if _, err := txn.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	txn.Put([]byte("k"), []byte("mine"))
	txn.Put([]byte("other"), []byte("rider"))
	// An interfering writer bumps k between read and commit.
	if err := st.Put([]byte("k"), []byte("theirs")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit after interference: %v, want ErrTxnConflict", err)
	}
	if v, _ := st.Get([]byte("k")); string(v) != "theirs" {
		t.Fatalf("conflicted txn overwrote k: %q, want theirs", v)
	}
	if _, err := st.Get([]byte("other")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("conflicted txn leaked its rider write: %v, want ErrNotFound", err)
	}
	stats := st.Stats()
	if stats.TxnConflicts != 1 {
		t.Fatalf("TxnConflicts = %d, want 1", stats.TxnConflicts)
	}
	if stats.TxnCommits != 0 {
		t.Fatalf("TxnCommits = %d, want 0 (nothing committed)", stats.TxnCommits)
	}
}

func TestTxnAbsentReadValidates(t *testing.T) {
	st := mustOpenPlain(t, semOpts(nil))
	txn := NewTxn(st)
	// Read k as absent; its continued absence is part of the snapshot.
	if _, err := txn.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	txn.Put([]byte("dep"), []byte("v"))
	if err := st.Put([]byte("k"), []byte("appeared")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit after the absent key appeared: %v, want ErrTxnConflict", err)
	}
}

func TestTxnEmptyAndTTLWrites(t *testing.T) {
	clock := newFakeClock(time.Unix(1_700_000_000, 0))
	st := mustOpenPlain(t, semOpts(clock.Now))
	if err := NewTxn(st).Commit(); err != nil {
		t.Fatalf("empty txn: %v, want nil", err)
	}
	txn := NewTxn(st)
	txn.PutTTL([]byte("lease"), []byte("held"), time.Hour)
	txn.Put([]byte("owner"), []byte("me"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := st.Get([]byte("lease")); err != nil || string(v) != "held" {
		t.Fatalf("txn TTL write inside deadline: %q, %v", v, err)
	}
	clock.Advance(2 * time.Hour)
	if _, err := st.Get([]byte("lease")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("txn TTL write past deadline: %v, want ErrNotFound", err)
	}
	if v, err := st.Get([]byte("owner")); err != nil || string(v) != "me" {
		t.Fatalf("plain txn write must not expire: %q, %v", v, err)
	}
	if got := st.Stats().TxnCommits; got != 1 {
		t.Fatalf("TxnCommits = %d, want 1", got)
	}
}

// TestTTLTxnSurviveRecovery reopens a durable store and checks that
// sealed TTL deadlines and group-committed txn writes come back
// verbatim — expiry is decided by the recovered absolute deadline, not
// re-derived.
func TestTTLTxnSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock(time.Unix(1_700_000_000, 0))
	opts := durableOpts(dir)
	opts.Now = clock.Now
	st := mustOpen(t, opts)
	if err := st.PutTTL([]byte("short"), []byte("s"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := st.PutTTL([]byte("long"), []byte("l"), 100*time.Hour); err != nil {
		t.Fatal(err)
	}
	txn := NewTxn(st)
	txn.Put([]byte("t1"), []byte("v1"))
	txn.PutTTL([]byte("t2"), []byte("v2"), 100*time.Hour)
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	_, casVer, err := st.GetV([]byte("t1"))
	if err != nil {
		t.Fatal(err)
	}
	mustClose(t, st)

	clock.Advance(2 * time.Hour) // past "short", inside every other deadline
	st = mustOpen(t, opts)
	defer mustClose(t, st)
	if _, err := st.Get([]byte("short")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("short TTL survived past its recovered deadline: %v", err)
	}
	for key, want := range map[string]string{"long": "l", "t1": "v1", "t2": "v2"} {
		if v, err := st.Get([]byte(key)); err != nil || string(v) != want {
			t.Fatalf("recovered %s = %q, %v; want %q", key, v, err, want)
		}
	}
	// Replay reassigns the same versions: a CAS taken before the crash
	// still succeeds after recovery.
	if err := st.CompareAndSwap([]byte("t1"), []byte("v1b"), casVer); err != nil {
		t.Fatalf("CAS at pre-crash version after recovery: %v", err)
	}
}

// mustOpenPlain opens a non-durable store and closes it with the test
// (Close stops the TTL sweeper).
func mustOpenPlain(t *testing.T, opts Options) Store {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}
