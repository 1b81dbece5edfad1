package kvnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ariakv/aria"
)

func startServer(t *testing.T, scheme aria.Scheme) (*Server, *Client) {
	t.Helper()
	st, err := aria.Open(aria.Options{
		Scheme:       scheme,
		EPCBytes:     16 << 20,
		ExpectedKeys: 4096,
		Seed:         7,
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
	return srv, cl
}

func TestClientServerRoundTrip(t *testing.T) {
	_, cl := startServer(t, aria.AriaHash)
	if err := cl.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get([]byte("alpha"))
	if err != nil || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("get = %q, %v", v, err)
	}
	if err := cl.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("alpha")); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted get: %v", err)
	}
	if err := cl.Delete([]byte("alpha")); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestManyPairsAndStats(t *testing.T) {
	_, cl := startServer(t, aria.AriaHash)
	for i := 0; i < 500; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 7 {
		v, err := cl.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d: %q %v", i, v, err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 500 {
		t.Errorf("remote keys = %d, want 500", st.Keys)
	}
	if st.Ecalls == 0 {
		t.Error("no ECALLs charged for networked requests")
	}
}

func TestScanOverWire(t *testing.T) {
	_, cl := startServer(t, aria.AriaBPTree)
	for i := 0; i < 200; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("sk-%04d", i)), []byte(fmt.Sprintf("sv-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	err := cl.Scan([]byte("sk-0050"), []byte("sk-0060"), 0, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 || keys[0] != "sk-0050" || keys[9] != "sk-0059" {
		t.Errorf("scan keys = %v", keys)
	}
	// Limit.
	keys = nil
	if err := cl.Scan(nil, nil, 5, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 {
		t.Errorf("limited scan returned %d keys", len(keys))
	}
	// Early client stop still leaves the connection usable.
	n := 0
	if err := cl.Scan(nil, nil, 50, func(k, v []byte) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("sk-0000")); err != nil {
		t.Fatalf("connection unusable after early-stopped scan: %v", err)
	}
}

func TestScanOnHashStore(t *testing.T) {
	_, cl := startServer(t, aria.AriaHash)
	err := cl.Scan(nil, nil, 0, func(k, v []byte) bool { return true })
	if err == nil {
		t.Error("scan on hash store succeeded")
	}
}

// waitAddr polls until Serve has published the bound address.
func waitAddr(t *testing.T, srv *Server) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			return a.String()
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never published its address")
	return ""
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, aria.AriaHash)
	addr := waitAddr(t, srv)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("c%d-k%03d", c, i))
				if err := cl.Put(k, []byte("v")); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Get(k); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestIntegrityErrorOverWire(t *testing.T) {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: 1024,
		Seed:         7,
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
	defer srv.Close()
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 200; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("ik-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the server's untrusted memory behind its back.
	snap := st.SnapshotUntrusted()
	for i := 0; i < 200; i++ {
		_ = cl.Put([]byte(fmt.Sprintf("ik-%03d", i)), []byte("w"))
	}
	st.RestoreUntrusted(snap)

	sawIntegrity := false
	for i := 0; i < 200 && !sawIntegrity; i++ {
		if _, err := cl.Get([]byte(fmt.Sprintf("ik-%03d", i))); errors.Is(err, ErrIntegrityRemote) {
			sawIntegrity = true
		}
	}
	if !sawIntegrity {
		t.Error("replay attack on the server not surfaced to the client")
	}
}

func TestProtocolCodecs(t *testing.T) {
	rq := encodeRequest(opPut, []byte("k"), []byte("value"), 7)
	dec, err := decodeRequest(rq)
	if err != nil {
		t.Fatal(err)
	}
	if dec.op != opPut || string(dec.key) != "k" || string(dec.value) != "value" || dec.limit != 7 {
		t.Errorf("decoded = %+v", dec)
	}
	if _, err := decodeRequest([]byte{1, 2}); err == nil {
		t.Error("truncated request accepted")
	}
	k, v, err := decodePair(encodePair([]byte("kk"), []byte("vv")))
	if err != nil || string(k) != "kk" || string(v) != "vv" {
		t.Errorf("pair round trip: %q %q %v", k, v, err)
	}
	if _, _, err := decodePair([]byte{9}); err == nil {
		t.Error("truncated pair accepted")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	_, cl := startServer(t, aria.AriaHash)
	if err := cl.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted over wire")
	}
}
