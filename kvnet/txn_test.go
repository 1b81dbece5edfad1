package kvnet

// Wire tests for the transactional protocol: versioned reads, CAS, TTL
// writes, and multi-key commits, plus the error round-trip pins for the
// two optimistic-concurrency sentinels across the unary, batch-shaped
// (txn), and sharded paths.

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/ariakv/aria"
)

// Sentinel stubs for the transactional surface, completing
// sentinelStore for the new ops.
func (s *sentinelStore) GetV(key []byte) ([]byte, uint64, error) { return nil, 0, s.err }
func (s *sentinelStore) CompareAndSwap(key, value []byte, expect uint64) error {
	return s.err
}
func (s *sentinelStore) PutTTL(key, value []byte, ttl time.Duration) error { return s.err }
func (s *sentinelStore) TxnCommit(ops []aria.TxnOp) error                  { return s.err }

// TestTxnSentinelsSurviveWireRoundTrip pins stCASMismatch and
// stTxnConflict: the client must report the kvnet sentinel AND the
// aria sentinel it wraps, for every transactional op.
func TestTxnSentinelsSurviveWireRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		store  error
		kvnet  error
		ariaIs error
	}{
		{"cas-mismatch", aria.ErrCASMismatch, ErrCASMismatch, aria.ErrCASMismatch},
		{"txn-conflict", aria.ErrTxnConflict, ErrTxnConflict, aria.ErrTxnConflict},
		{"not-found", aria.ErrNotFound, ErrNotFound, aria.ErrNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := startSentinelServer(t, tc.store)
			check := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, tc.kvnet) {
					t.Errorf("%s: %v does not match kvnet sentinel %v", op, err, tc.kvnet)
				}
				if !errors.Is(err, tc.ariaIs) {
					t.Errorf("%s: %v does not match aria sentinel %v", op, err, tc.ariaIs)
				}
			}
			_, _, err := cl.GetV([]byte("k"))
			check("GetV", err)
			check("CompareAndSwap", cl.CompareAndSwap([]byte("k"), []byte("v"), 1))
			check("PutTTL", cl.PutTTL([]byte("k"), []byte("v"), time.Minute))
			check("TxnCommit", cl.TxnCommit([]aria.TxnOp{{Key: []byte("k"), Value: []byte("v")}}))
		})
	}
}

// TestTxnOverWire drives the happy paths end-to-end against a real
// store: versioned reads observe CAS bumps, CAS enforces versions, TTL
// writes expire, and a multi-key commit validates and applies
// atomically.
func TestTxnOverWire(t *testing.T) {
	_, cl := startServer(t, aria.AriaHash)

	// Versioned read + CAS cycle.
	if err := cl.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ver, err := cl.GetV([]byte("k"))
	if err != nil || !bytes.Equal(v, []byte("v1")) || ver == 0 {
		t.Fatalf("GetV = %q v%d, %v; want v1 at a nonzero version", v, ver, err)
	}
	if err := cl.CompareAndSwap([]byte("k"), []byte("v2"), ver); err != nil {
		t.Fatalf("CAS at the observed version: %v", err)
	}
	if err := cl.CompareAndSwap([]byte("k"), []byte("v3"), ver); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("CAS at a stale version: %v, want ErrCASMismatch", err)
	}
	if v, _ = cl.Get([]byte("k")); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("after CAS race: %q, want v2 (loser must not apply)", v)
	}
	// expect=0 means "must be absent".
	if err := cl.CompareAndSwap([]byte("k"), []byte("x"), 0); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("create-CAS over an existing key: %v, want ErrCASMismatch", err)
	}
	if err := cl.CompareAndSwap([]byte("fresh"), []byte("x"), 0); err != nil {
		t.Fatalf("create-CAS on an absent key: %v", err)
	}

	// Multi-key commit: a check at the current version passes and both
	// writes land.
	_, kver, err := cl.GetV([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	ops := []aria.TxnOp{
		{Key: []byte("k"), Value: []byte("v-txn"), Check: true, Version: kver},
		{Key: []byte("other"), Value: []byte("w")},
		{Key: []byte("fresh"), Delete: true},
	}
	if err := cl.TxnCommit(ops); err != nil {
		t.Fatalf("TxnCommit: %v", err)
	}
	if v, _ = cl.Get([]byte("k")); !bytes.Equal(v, []byte("v-txn")) {
		t.Fatalf("txn write k = %q, want v-txn", v)
	}
	if v, _ = cl.Get([]byte("other")); !bytes.Equal(v, []byte("w")) {
		t.Fatalf("txn write other = %q, want w", v)
	}
	if _, err = cl.Get([]byte("fresh")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("txn delete fresh: %v, want ErrNotFound", err)
	}

	// A stale check aborts the whole commit: no write applies.
	bad := []aria.TxnOp{
		{Key: []byte("k"), ReadOnly: true, Check: true, Version: kver}, // stale now
		{Key: []byte("other"), Value: []byte("should-not-land")},
	}
	if err := cl.TxnCommit(bad); !errors.Is(err, ErrTxnConflict) || !errors.Is(err, aria.ErrTxnConflict) {
		t.Fatalf("stale txn: %v, want ErrTxnConflict", err)
	}
	if v, _ = cl.Get([]byte("other")); !bytes.Equal(v, []byte("w")) {
		t.Fatalf("conflicted txn leaked a write: other = %q, want w", v)
	}

	// TTL: the key serves until its deadline, then reads as absent.
	if err := cl.PutTTL([]byte("ttl"), []byte("short"), 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, err = cl.Get([]byte("ttl")); err != nil || !bytes.Equal(v, []byte("short")) {
		t.Fatalf("ttl key before deadline: %q, %v", v, err)
	}
	time.Sleep(80 * time.Millisecond)
	if _, err = cl.Get([]byte("ttl")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ttl key after deadline: %v, want ErrNotFound", err)
	}
}

// TestTxnCrossShardOverWire commits a transaction whose keys span
// shards of a sharded store and proves conflict-abort stays atomic
// across the shard boundary.
func TestTxnCrossShardOverWire(t *testing.T) {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: 4096,
		Seed:         7,
		Shards:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	srv.SetLogf(func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	// Find two keys on different shards.
	a := []byte("alpha-000")
	var b []byte
	for i := 0; i < 64 && b == nil; i++ {
		k := []byte{byte('b'), byte('0' + i%10), byte('0' + i/10)}
		if st.ShardFor(k) != st.ShardFor(a) {
			b = k
		}
	}
	if b == nil {
		t.Fatal("could not find keys on two different shards")
	}
	if err := cl.Put(a, []byte("1")); err != nil {
		t.Fatal(err)
	}
	_, averMain, err := cl.GetV(a)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-shard commit: check on shard(a), writes on both shards.
	ops := []aria.TxnOp{
		{Key: a, Value: []byte("2"), Check: true, Version: averMain},
		{Key: b, Value: []byte("2")},
	}
	if err := cl.TxnCommit(ops); err != nil {
		t.Fatalf("cross-shard commit: %v", err)
	}
	for _, k := range [][]byte{a, b} {
		if v, gerr := cl.Get(k); gerr != nil || !bytes.Equal(v, []byte("2")) {
			t.Fatalf("after cross-shard commit, %q = %q, %v", k, v, gerr)
		}
	}
	// Stale cross-shard commit: the conflict on shard(a) must abort the
	// write on shard(b) too.
	stale := []aria.TxnOp{
		{Key: a, Value: []byte("3"), Check: true, Version: averMain}, // stale
		{Key: b, Value: []byte("3")},
	}
	if err := cl.TxnCommit(stale); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("stale cross-shard commit: %v, want ErrTxnConflict", err)
	}
	if v, _ := cl.Get(b); !bytes.Equal(v, []byte("2")) {
		t.Fatalf("conflicted cross-shard txn leaked onto shard(b): %q, want 2", v)
	}
}

// FuzzDecodeTxnRequest hammers the transaction decoder with arbitrary
// bytes: it must never panic, and every accepted payload must re-encode
// to an equivalent op list (decode∘encode = identity on the accepted
// set).
func FuzzDecodeTxnRequest(f *testing.F) {
	seed := func(ops []aria.TxnOp) {
		if p, err := encodeTxnRequest(ops); err == nil {
			f.Add(p)
		}
	}
	seed([]aria.TxnOp{{Key: []byte("k"), Value: []byte("v")}})
	seed([]aria.TxnOp{
		{Key: []byte("a"), ReadOnly: true, Check: true, Version: 7},
		{Key: []byte("b"), Delete: true},
		{Key: []byte("c"), Value: []byte("v"), TTL: time.Minute, Check: true, Version: 9},
	})
	f.Add([]byte{opTxnCommit})
	f.Add([]byte{opTxnCommit, 0, 0, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rq, err := decodeTxnRequest(data)
		if err != nil {
			return
		}
		if len(rq.tops) == 0 {
			t.Fatal("accepted a transaction with zero ops")
		}
		re, rerr := encodeTxnRequest(rq.tops)
		if rerr != nil {
			t.Fatalf("accepted ops failed to re-encode: %v", rerr)
		}
		rq2, derr := decodeTxnRequest(re)
		if derr != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", derr)
		}
		if len(rq2.tops) != len(rq.tops) {
			t.Fatalf("round trip changed op count: %d != %d", len(rq2.tops), len(rq.tops))
		}
	})
}
