package bench

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/kvnet"
)

// wireExp measures what the version-2 multiplexed transport buys a
// single connection: throughput of one client issuing gets lock-step
// (depth 1 — each request waits for its response, the version-1 wire
// discipline) against the same client with N requests pipelined on the
// SAME connection. Lock-step pays one full service round trip per
// operation; pipelining overlaps the round trips, so the connection is
// bounded by server capacity instead of latency.
//
// The store is wrapped with a fixed per-get service latency
// (wireServiceLat). That stands in for the request latency of a real
// deployment — enclave edge crossings, cross-machine RTT — which
// loopback hides: on loopback the round trip is so short that both
// wire disciplines just measure CPU, and on a single-core runner they
// measure the SAME CPU. Overlapping waits is precisely the property
// the tagged-frame transport adds, and with the latency made explicit
// the measured speedup is a transport property, not a machine property.
//
// Unlike the other experiments this one runs on the real network stack
// and the wall clock, not the simulated cost model — absolute numbers
// still vary by machine, but the depth-16 speedup over lock-step is
// pinned (>= 3x) by TestWireSpeedupFloor. The wire snapshot is
// therefore NOT part of the exact-match guard.

func init() {
	register("wire", "Extension: pipelined multiplexed transport, one-connection throughput vs depth", wireExp)
}

// wireDepths is the swept pipeline depth. 1 is the lock-step baseline
// every speedup is relative to.
var wireDepths = []int{1, 4, 16, 64}

// wireKeys is the preloaded keyspace. Small on purpose: the experiment
// measures the transport, not the store, so every get must hit.
const wireKeys = 4096

// wireServiceLat is the modelled per-get service latency. 200us is
// roughly one cross-rack RTT; it is two orders of magnitude above
// loopback, so the wait — the thing pipelining overlaps — dominates
// the per-op cost on any machine.
const wireServiceLat = 200 * time.Microsecond

// wireWorkers sizes the per-connection pool so the deepest swept
// pipeline is not capped by workers (see DESIGN.md on pool sizing:
// workers bound in-flight service, depth bounds in-flight requests).
const wireWorkers = 64

// latStore adds the modelled service latency to every get. The wait is
// a sleep, not spin: workers parked in it overlap, exactly like
// requests parked in a real enclave transition or remote hop.
type latStore struct {
	aria.Store
}

func (l *latStore) Get(key []byte) ([]byte, error) {
	time.Sleep(wireServiceLat)
	return l.Store.Get(key)
}

func wireExp(p Params, w io.Writer) error {
	p = p.withDefaults()
	banner(w, p, "wire", "tagged-frame pipelining on one connection; lock-step pays RTT per op")

	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     p.epc(),
		ExpectedKeys: wireKeys,
		Seed:         uint64(p.Seed),
		Shards:       4, // four shard locks, so the server pool's store calls overlap
	})
	if err != nil {
		return err
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("wire-%05d", i%wireKeys)) }
	val := make([]byte, 128)
	for i := 0; i < wireKeys; i++ {
		if err := st.Put(key(i), val); err != nil {
			return err
		}
	}

	srv := kvnet.NewServerConfig(&latStore{Store: st}, kvnet.ServerConfig{ConnWorkers: wireWorkers})
	srv.SetLogf(func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()

	cl, err := kvnet.Dial(lis.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()

	// Warm the connection, the pool, and the store's read path.
	for i := 0; i < 64; i++ {
		if _, err := cl.Get(key(i)); err != nil {
			return fmt.Errorf("warmup get: %w", err)
		}
	}

	// Each op waits out wireServiceLat, so the point budget is ops/10
	// (floor 512): at the default Params that keeps the lock-step
	// baseline around a second instead of half a minute.
	ops := p.Ops / 10
	if ops < 512 {
		ops = 512
	}
	t := newTable("depth", "ops", "elapsed-ms", "throughput", "speedup")
	base := 0.0
	for _, depth := range wireDepths {
		thr, elapsed, err := wirePoint(cl, key, ops, depth)
		if err != nil {
			return fmt.Errorf("wire depth=%d: %w", depth, err)
		}
		if depth == 1 {
			base = thr
		}
		speedup := 0.0
		if base > 0 {
			speedup = thr / base
		}
		t.add(fmt.Sprintf("%d", depth), fmt.Sprintf("%d", ops),
			fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1e3),
			kops(thr), fmt.Sprintf("%.2fx", speedup))
	}
	t.write(w)
	return nil
}

// wirePoint issues ops gets through one client, depth goroutines deep,
// and returns the wall-clock throughput. depth=1 is strict lock-step:
// one goroutine, each get blocking on its own response. Higher depths
// keep up to depth requests in flight on the shared connection; the
// client's tag table routes each response to its issuer.
func wirePoint(cl *kvnet.Client, key func(int) []byte, ops, depth int) (float64, time.Duration, error) {
	perG := ops / depth
	errs := make([]error, depth)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < depth; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := cl.Get(key(g*perG + i)); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return float64(perG*depth) / elapsed.Seconds(), elapsed, nil
}
