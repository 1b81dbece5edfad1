package kvnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/kvnet/chaos"
)

// Concurrency tests for the lock-free serving path: the server takes no
// lock of its own, so two in-flight requests overlap unless the store's
// own shard lock orders them.

// gatedStore wraps a store and stalls Get on one chosen key until
// released, making "a request is in flight inside the store" observable.
// The stall sits in front of the wrapped store, so it holds no shard
// lock: only a lock the server takes itself could delay other requests.
type gatedStore struct {
	aria.Store
	gate    string
	other   []byte        // a loaded key on a different shard than gate, when there are two
	entered chan struct{} // closed when the gated Get has entered the store
	release chan struct{} // the gated Get returns once this closes
}

func (g *gatedStore) Get(key []byte) ([]byte, error) {
	if string(key) == g.gate {
		close(g.entered)
		<-g.release
	}
	return g.Store.Get(key)
}

// twoShardKeys returns two loaded keys, on different shards when the
// store has more than one.
func twoShardKeys(t *testing.T, st aria.Store) (a, b []byte) {
	t.Helper()
	for i := 0; i < 256; i++ {
		k := []byte(fmt.Sprintf("gk-%04d", i))
		if err := st.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		switch {
		case a == nil:
			a = k
		case b == nil && (st.NumShards() == 1 || st.ShardFor(k) != st.ShardFor(a)):
			b = k
		}
	}
	if b == nil {
		t.Fatal("could not find keys on two different shards")
	}
	return a, b
}

func startGatedServer(t *testing.T, shards int) (*gatedStore, *Client, *Client) {
	t.Helper()
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: 1024,
		Seed:         7,
		Shards:       shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoShardKeys(t, st)
	gs := &gatedStore{
		Store:   st,
		gate:    string(a),
		other:   b,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}

	srv := NewServer(gs)
	srv.SetLogf(func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	// Cleanups run last-registered first: the gate opens before the
	// server drains, so a failed test cannot leave a worker parked in it.
	t.Cleanup(func() {
		select {
		case <-gs.release:
		default:
			close(gs.release)
		}
	})

	dial := func() *Client {
		cl, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	return gs, dial(), dial()
}

// TestConcurrentStoreRequestsOverlap is the acceptance check for the
// removed server lock: while one request is parked in the server on its
// way into the store, a request on another connection completes — on a
// one-shard store as on a sharded one. A server-wide lock around the
// store would hold the second request until the first is released.
func TestConcurrentStoreRequestsOverlap(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gs, cl1, cl2 := startGatedServer(t, shards)

			gateDone := make(chan error, 1)
			go func() {
				_, err := cl1.Get([]byte(gs.gate))
				gateDone <- err
			}()
			select {
			case <-gs.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("gated request never reached the store")
			}

			otherDone := make(chan error, 1)
			go func() {
				_, err := cl2.Get(gs.other)
				otherDone <- err
			}()
			select {
			case err := <-otherDone:
				if err != nil {
					t.Fatalf("overlapping request failed: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a second request did not overlap an in-flight request")
			}

			close(gs.release)
			if err := <-gateDone; err != nil {
				t.Fatalf("gated request failed after release: %v", err)
			}
		})
	}
}

// TestOneShardDurableUnderConcurrentClients drives one Shards: 1
// durable store from four clients — puts, gets and batched puts — while
// a fifth connection checkpoints over the wire. With no server lock the
// shard's own lock is all that orders them: no request may fail, the race
// detector must stay quiet, and every acknowledged key must read back.
func TestOneShardDurableUnderConcurrentClients(t *testing.T) {
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
	srv := startServerConfig(t, st, ServerConfig{})
	addr := waitAddr(t, srv)
	dial := func() *Client {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}

	const clients, rounds = 4, 60
	val := func(k string) []byte { return []byte("v-" + k) }
	stop := make(chan struct{})
	ckptDone := make(chan error, 1)
	ckpt := dial()
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				if n == 0 {
					ckptDone <- errors.New("no checkpoint ran during the workload")
					return
				}
				ckptDone <- nil
				return
			default:
			}
			if err := ckpt.Checkpoint(); err != nil {
				ckptDone <- fmt.Errorf("checkpoint %d: %w", n, err)
				return
			}
			n++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	errc := make(chan error, clients)
	acked := make([][]string, clients)
	for c := 0; c < clients; c++ {
		cl := dial()
		go func(c int) {
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("c%d-k%03d", c, r)
				if err := cl.Put([]byte(k), val(k)); err != nil {
					errc <- fmt.Errorf("put %s: %w", k, err)
					return
				}
				acked[c] = append(acked[c], k)
				if v, err := cl.Get([]byte(k)); err != nil || !bytes.Equal(v, val(k)) {
					errc <- fmt.Errorf("get %s = %q, %v", k, v, err)
					return
				}
				pairs := []aria.KV{
					{Key: []byte(k + "-m0"), Value: val(k + "-m0")},
					{Key: []byte(k + "-m1"), Value: val(k + "-m1")},
				}
				if errs := cl.MPut(pairs); errs != nil {
					errc <- fmt.Errorf("mput %s: %v", k, errs)
					return
				}
				acked[c] = append(acked[c], k+"-m0", k+"-m1")
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}

	check := dial()
	for _, keys := range acked {
		for _, k := range keys {
			if v, err := check.Get([]byte(k)); err != nil || !bytes.Equal(v, val(k)) {
				t.Fatalf("acked key %s = %q, %v", k, v, err)
			}
		}
	}
	if got, want := st.Stats().Keys, clients*rounds*3; got != want {
		t.Fatalf("store holds %d keys, want %d", got, want)
	}
}

// TestShardedServerRoundTrip drives the full wire protocol against a
// sharded store: point ops, stats aggregation, and concurrent clients.
func TestShardedServerRoundTrip(t *testing.T) {
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
	defer srv.Close()

	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 400; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("sk-%04d", i)), []byte(fmt.Sprintf("sv-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i += 13 {
		v, err := cl.Get([]byte(fmt.Sprintf("sk-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("sv-%d", i) {
			t.Fatalf("get %d = %q, %v", i, v, err)
		}
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keys != 400 {
		t.Errorf("remote aggregate keys = %d, want 400", stats.Keys)
	}
	if stats.Ecalls == 0 {
		t.Error("no ECALLs charged across shards")
	}
}

// TestShardedScanOverWire checks the merged cross-shard scan through the
// protocol: global order and exact range bounds, same as unsharded.
func TestShardedScanOverWire(t *testing.T) {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaBPTree,
		EPCBytes:     16 << 20,
		ExpectedKeys: 1024,
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
	defer srv.Close()
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 300; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("wk-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	if err := cl.Scan([]byte("wk-0050"), []byte("wk-0070"), 0, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 20 || keys[0] != "wk-0050" || keys[19] != "wk-0069" {
		t.Fatalf("sharded wire scan = %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("wire scan order violated: %q before %q", keys[i-1], keys[i])
		}
	}
}

// TestShardedChaosScansStayConsistent reruns the chaos scan-consistency
// suite against a sharded store: through transport faults, the merged
// scan either completes in order, fails cleanly, or reports
// ErrScanInterrupted — and never delivers duplicates, preserving the
// single-store semantics through the k-way merge.
func TestShardedChaosScansStayConsistent(t *testing.T) {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaBPTree,
		EPCBytes:     16 << 20,
		ExpectedKeys: 4096,
		Seed:         7,
		Shards:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerConfig(st, ServerConfig{
		IdleTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		DrainTimeout: 200 * time.Millisecond,
	})
	srv.SetLogf(func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()

	for i := 0; i < 300; i++ {
		if err := st.Put([]byte(fmt.Sprintf("ck-%04d", i)), []byte(fmt.Sprintf("cv-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	px, err := chaos.New(lis.Addr().String(), chaos.Config{
		Seed: 99,
		Down: chaos.Faults{MeanBytes: 2000, Drop: 1, Delay: 2, Truncate: 1, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	cl, err := DialConfig(px.Addr(), ClientConfig{
		Retry:     fastRetry(6),
		OpTimeout: 500 * time.Millisecond,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	completed, interrupted := 0, 0
	for round := 0; round < 30; round++ {
		seen := make(map[string]bool)
		prev := ""
		err := cl.Scan(nil, nil, 0, func(k, v []byte) bool {
			ks := string(k)
			if seen[ks] {
				t.Fatalf("sharded scan delivered duplicate key %q", ks)
			}
			if ks <= prev {
				t.Fatalf("sharded scan order violated: %q after %q", ks, prev)
			}
			seen[ks] = true
			prev = ks
			return true
		})
		switch {
		case err == nil:
			if len(seen) != 300 {
				t.Fatalf("completed scan returned %d keys, want 300", len(seen))
			}
			completed++
		case errors.Is(err, ErrScanInterrupted):
			interrupted++
		}
	}
	if completed == 0 {
		t.Fatal("no sharded scan ever completed through the proxy")
	}
	t.Logf("sharded chaos scans: %d completed, %d interrupted", completed, interrupted)
}
