package kvnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/ariakv/aria"
)

// fastRetry is a retry policy tuned for tests: quick and bounded.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    attempts,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Multiplier:     2,
		Jitter:         0.2,
	}
}

func startServerConfig(t *testing.T, store aria.Store, cfg ServerConfig) *Server {
	t.Helper()
	srv := NewServerConfig(store, cfg)
	srv.SetLogf(func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return srv
}

func openStore(t *testing.T) aria.Store {
	t.Helper()
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: 4096,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// ---- scan frame-cap regression (client/server caps must agree) ----------

// bigPairStore serves one near-wire-max pair without the enclave
// simulator, to exercise the framing layer at its limits.
type bigPairStore struct {
	aria.Store // unimplemented surface (GetV, CAS, TTL, txn, Checkpoint) panics if reached
	key, value []byte
}

func (s *bigPairStore) Put(key, value []byte) error { return nil }
func (s *bigPairStore) Get(key []byte) ([]byte, error) {
	if bytes.Equal(key, s.key) {
		return s.value, nil
	}
	return nil, aria.ErrNotFound
}
func (s *bigPairStore) Delete(key []byte) error { return aria.ErrNotFound }
func (s *bigPairStore) MGet(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	var errs []error
	for i, k := range keys {
		v, err := s.Get(k)
		if err != nil {
			if errs == nil {
				errs = make([]error, len(keys))
			}
			errs[i] = err
			continue
		}
		vals[i] = v
	}
	return vals, errs
}
func (s *bigPairStore) MPut(pairs []aria.KV) []error { return nil }
func (s *bigPairStore) MDelete(keys [][]byte) []error {
	errs := make([]error, len(keys))
	for i := range errs {
		errs[i] = aria.ErrNotFound
	}
	return errs
}
func (s *bigPairStore) Stats() aria.Stats      { return aria.Stats{Keys: 1} }
func (s *bigPairStore) VerifyIntegrity() error { return nil }
func (s *bigPairStore) SetMeasuring(on bool)   {}
func (s *bigPairStore) ResetStats()            {}
func (s *bigPairStore) ChargeEcall()           {}
func (s *bigPairStore) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	fn(s.key, s.value)
	return nil
}

func TestScanDeliversNearMaxPair(t *testing.T) {
	// A pair whose encodePair body exceeds the client's former read cap
	// of 16+maxValueWire: klen+vlen must beat 13+maxValueWire.
	key := bytes.Repeat([]byte{'k'}, 65535)
	value := bytes.Repeat([]byte{'v'}, maxValueWire)
	fake := &bigPairStore{key: key, value: value}
	srv := startServerConfig(t, fake, ServerConfig{DrainTimeout: 200 * time.Millisecond})
	addr := waitAddr(t, srv)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	got := 0
	err = cl.Scan(nil, nil, 0, func(k, v []byte) bool {
		got++
		if len(k) != len(key) || len(v) != len(value) {
			t.Errorf("pair sizes = %d/%d, want %d/%d", len(k), len(v), len(key), len(value))
		}
		return true
	})
	if err != nil {
		t.Fatalf("near-max pair killed the scan: %v", err)
	}
	if got != 1 {
		t.Fatalf("delivered %d pairs, want 1", got)
	}
	// The connection must remain usable after the giant frame.
	if _, err := cl.Get(key); err != nil {
		t.Fatalf("connection unusable after near-max scan: %v", err)
	}
}

// ---- client resilience ---------------------------------------------------

func TestClientReconnectsAfterServerDropsConn(t *testing.T) {
	// An aggressive idle timeout makes the server drop the connection
	// between operations; the client must redial transparently.
	srv := startServerConfig(t, openStore(t), ServerConfig{
		IdleTimeout:  5 * time.Millisecond,
		DrainTimeout: 200 * time.Millisecond,
	})
	cl, err := DialConfig(waitAddr(t, srv), ClientConfig{Retry: fastRetry(5)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(30 * time.Millisecond) // let the server expire the conn
		if _, err := cl.Get([]byte("k")); err != nil {
			t.Fatalf("round %d: reconnect failed: %v", i, err)
		}
	}
}

func TestClientCloseIsIdempotentAndRaceSafe(t *testing.T) {
	srv := startServerConfig(t, openStore(t), ServerConfig{DrainTimeout: 200 * time.Millisecond})
	cl, err := DialConfig(waitAddr(t, srv), ClientConfig{Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Put([]byte("k"), []byte("v"))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := cl.Get([]byte("k")); errors.Is(err, ErrClientClosed) {
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	for g := 0; g < 3; g++ { // concurrent closes
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := cl.Close(); err != nil {
		t.Errorf("repeated Close: %v", err)
	}
	if _, err := cl.Get([]byte("k")); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Get after Close = %v, want ErrClientClosed", err)
	}
	if err := cl.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Put after Close = %v, want ErrClientClosed", err)
	}
}

// ---- server lifecycle ----------------------------------------------------

func TestServeTwiceAndAfterCloseRejected(t *testing.T) {
	srv := NewServerConfig(openStore(t), ServerConfig{DrainTimeout: 100 * time.Millisecond})
	srv.SetLogf(func(string, ...any) {})
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis1) //nolint:errcheck
	waitAddr(t, srv)

	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(lis2); err == nil {
		t.Fatal("second Serve succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	srv2 := NewServer(openStore(t))
	srv2.SetLogf(func(string, ...any) {})
	if err := srv2.Close(); err != nil {
		t.Fatalf("Close before Serve: %v", err)
	}
	lis3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Serve(lis3); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Close = %v, want ErrServerClosed", err)
	}
}

func TestLoadSheddingAtConnectionLimit(t *testing.T) {
	srv := startServerConfig(t, openStore(t), ServerConfig{
		MaxConns:     1,
		DrainTimeout: 200 * time.Millisecond,
	})
	addr := waitAddr(t, srv)

	hog, err := DialConfig(addr, ClientConfig{Retry: NoRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if err := hog.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Without retries the shed connection surfaces ErrServerBusy.
	turned, err := DialConfig(addr, ClientConfig{Retry: NoRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer turned.Close()
	if _, err := turned.Get([]byte("k")); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-limit op = %v, want ErrServerBusy", err)
	}
	if srv.ShedConns() == 0 {
		t.Error("server did not count the shed connection")
	}

	// A retrying client rides out the busy period: free the slot shortly
	// after it starts retrying.
	patient, err := DialConfig(addr, ClientConfig{Retry: fastRetry(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer patient.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		hog.Close()
	}()
	if _, err := patient.Get([]byte("k")); err != nil {
		t.Fatalf("retrying client failed through busy period: %v", err)
	}
}

// ---- panic isolation -----------------------------------------------------

// panicStore panics on a trigger key, modelling a handler bug.
type panicStore struct {
	aria.Store
}

func (p *panicStore) Get(key []byte) ([]byte, error) {
	if bytes.Equal(key, []byte("boom")) {
		panic("handler bug")
	}
	return p.Store.Get(key)
}

func TestPanicIsolatedToConnection(t *testing.T) {
	srv := startServerConfig(t, &panicStore{Store: openStore(t)},
		ServerConfig{DrainTimeout: 200 * time.Millisecond})
	addr := waitAddr(t, srv)

	cl, err := DialConfig(addr, ClientConfig{Retry: NoRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("boom")); err == nil {
		t.Fatal("panicking op reported success")
	}
	// The server process survives: a fresh connection still works.
	cl2, err := DialConfig(addr, ClientConfig{Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if v, err := cl2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("server unusable after panic: %q %v", v, err)
	}
}

// ---- adversarial wire input ---------------------------------------------

func TestServerSurvivesMalformedFrameFlood(t *testing.T) {
	srv := startServerConfig(t, openStore(t), ServerConfig{
		IdleTimeout:  200 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
		DrainTimeout: 200 * time.Millisecond,
	})
	addr := waitAddr(t, srv)

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		switch i % 5 {
		case 0: // oversized frame header
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(maxFrameWire+1+rng.Intn(1<<20)))
			conn.Write(hdr[:])
		case 1: // truncated frame: header promises more than is sent
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], 100)
			conn.Write(hdr[:])
			conn.Write([]byte{1, 2, 3})
		case 2: // pure garbage
			junk := make([]byte, 64+rng.Intn(512))
			rng.Read(junk)
			conn.Write(junk)
		case 3: // valid frame, garbage payload
			junk := make([]byte, 7+rng.Intn(64))
			rng.Read(junk)
			writeFrame(conn, junk)
		case 4: // lying length fields inside the payload
			writeFrame(conn, encodeResponse(opGet, []byte{0xff, 0xff, 0xff, 0xff}))
		}
		// Drain whatever the server answers, then hang up.
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		io.Copy(io.Discard, conn) //nolint:errcheck
		conn.Close()
	}

	// The process survived and still serves well-formed traffic.
	cl, err := DialConfig(addr, ClientConfig{Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put([]byte("alive"), []byte("yes")); err != nil {
		t.Fatalf("server dead after malformed flood: %v", err)
	}
	if v, err := cl.Get([]byte("alive")); err != nil || string(v) != "yes" {
		t.Fatalf("get after flood: %q %v", v, err)
	}
}

func TestIdleConnectionReaped(t *testing.T) {
	srv := startServerConfig(t, openStore(t), ServerConfig{
		IdleTimeout:  20 * time.Millisecond,
		DrainTimeout: 100 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", waitAddr(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection produced data")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("idle connection not reaped within its timeout")
	}
}
