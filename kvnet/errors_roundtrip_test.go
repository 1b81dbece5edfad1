package kvnet

// Round-trip tests for typed errors: every store sentinel the server
// can emit must come back out of the client still matching errors.Is
// against BOTH the kvnet sentinel and the aria sentinel it wraps —
// over the unary path and inside positional batch errors. This is the
// wire-protocol analogue of the in-process error contract, and it pins
// the errResponse → status → statusErr mapping so a new sentinel
// cannot silently fall into the generic stError bucket.

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"github.com/ariakv/aria"
)

func mustListen(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return lis
}

// sentinelStore returns a fixed error from every operation, letting
// the table drive each sentinel through the real server and client.
type sentinelStore struct {
	aria.Store // panics if an unstubbed method is hit
	err        error
}

func (s *sentinelStore) Get(key []byte) ([]byte, error) { return nil, s.err }
func (s *sentinelStore) Put(key, value []byte) error    { return s.err }
func (s *sentinelStore) Delete(key []byte) error        { return s.err }
func (s *sentinelStore) ChargeEcall()                   {}

func (s *sentinelStore) MGet(keys [][]byte) ([][]byte, []error) {
	errs := make([]error, len(keys))
	for i := range errs {
		errs[i] = s.err
	}
	return make([][]byte, len(keys)), errs
}

func (s *sentinelStore) MPut(pairs []aria.KV) []error {
	errs := make([]error, len(pairs))
	for i := range errs {
		errs[i] = s.err
	}
	return errs
}

func (s *sentinelStore) MDelete(keys [][]byte) []error {
	_, errs := s.MGet(keys)
	return errs
}

func startSentinelServer(t *testing.T, err error) *Client {
	t.Helper()
	srv := NewServer(&sentinelStore{err: err})
	srv.SetLogf(func(string, ...any) {})
	lis := mustListen(t)
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	cl, derr := Dial(lis.Addr().String())
	if derr != nil {
		t.Fatal(derr)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestSentinelsSurviveWireRoundTrip(t *testing.T) {
	key := [][]byte{[]byte("k")}
	pair := []aria.KV{{Key: []byte("k"), Value: []byte("v")}}
	for _, tc := range []struct {
		name   string
		store  error // what the store returns server-side
		kvnet  error // the kvnet sentinel the client must report
		ariaIs error // the aria sentinel errors.Is must still reach
	}{
		{"not-found", aria.ErrNotFound, ErrNotFound, aria.ErrNotFound},
		{"integrity", aria.ErrIntegrity, ErrIntegrityRemote, aria.ErrIntegrity},
		{"too-large", aria.ErrTooLarge, ErrTooLarge, aria.ErrTooLarge},
		{"empty-key", aria.ErrEmptyKey, ErrEmptyKey, aria.ErrEmptyKey},
		{"not-durable", aria.ErrNotDurable, ErrNotDurable, aria.ErrNotDurable},
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
			_, err := cl.Get([]byte("k"))
			check("Get", err)
			check("Put", cl.Put([]byte("k"), []byte("v")))
			check("Delete", cl.Delete([]byte("k")))

			_, gerrs := cl.MGet(key)
			if gerrs == nil {
				t.Fatal("MGet returned no errors")
			}
			check("MGet", gerrs[0])
			if perrs := cl.MPut(pair); perrs == nil {
				t.Fatal("MPut returned no errors")
			} else {
				check("MPut", perrs[0])
			}
			if derrs := cl.MDelete(key); derrs == nil {
				t.Fatal("MDelete returned no errors")
			} else {
				check("MDelete", derrs[0])
			}
		})
	}
}

// TestRealStoreSentinelsOverWire drives the sentinels that a real
// store produces end-to-end, without stubs: empty keys, oversized
// keys, scans on an unordered index, and checkpoints without a data
// dir.
func TestRealStoreSentinelsOverWire(t *testing.T) {
	_, cl := startServer(t, aria.AriaHash)

	if err := cl.Put(nil, []byte("v")); !errors.Is(err, aria.ErrEmptyKey) {
		t.Errorf("empty-key put: %v, want aria.ErrEmptyKey", err)
	}
	big := bytes.Repeat([]byte("k"), 9999) // within wire limits, over store limits
	if err := cl.Put(big, []byte("v")); !errors.Is(err, aria.ErrTooLarge) {
		t.Errorf("oversized put: %v, want aria.ErrTooLarge", err)
	}
	err := cl.Scan(nil, nil, 0, func(k, v []byte) bool { return true })
	if !errors.Is(err, aria.ErrNoScan) || !errors.Is(err, ErrNoScan) {
		t.Errorf("scan on hash index: %v, want ErrNoScan", err)
	}
	if err := cl.Checkpoint(); !errors.Is(err, aria.ErrNotDurable) || !errors.Is(err, ErrNotDurable) {
		t.Errorf("checkpoint without data dir: %v, want ErrNotDurable", err)
	}
}

// TestCheckpointOverWire runs a durable store behind the server and
// checkpoints it remotely.
func TestCheckpointOverWire(t *testing.T) {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: 4096,
		Seed:         7,
		DataDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := NewServer(st)
	srv.SetLogf(func(string, ...any) {})
	lis := mustListen(t)
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatalf("remote checkpoint: %v", err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", stats.Checkpoints)
	}
	if stats.WALRecords == 0 {
		t.Error("WALRecords = 0 over the wire (stats JSON dropped wal fields?)")
	}
}
