package bench

import (
	"fmt"
	"io"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/ccache"
	"github.com/ariakv/aria/internal/workload"
)

// ccacheExp measures what the coherent client-side cache (package
// ccache) buys a skewed read workload. The paper's premise is that
// Zipf-0.99 concentrates most reads on a tiny hot set; a bounded LRU on
// the client serves exactly that hot set with zero network hops and
// zero enclave edge crossings. The experiment drives the production
// LRU — the same eviction, fill-guard, and invalidation code the
// Cache runs — against an in-process store under the simulated clock:
// a cache hit costs nothing, a miss pays the enclave ECALL edge cost
// plus the store read, and every write pays the edge cost, the store
// write, and the coherence invalidation (exactly what the server's
// push stream does to remote caches). The sweep crosses workload shape
// with cache capacity; the uniform rows are the control — when there
// is no skew, a small cache buys little, which is why this is a
// skew-tolerance experiment and not a free lunch.

func init() {
	register("ccache", "Extension: coherent client cache, hit rate and read speedup under skew", ccacheExp)
}

// ccachePcts is the swept cache capacity, as a percentage of the
// keyspace. 0 is the cache-off baseline each speedup is relative to.
var ccachePcts = []int{0, 1, 10, 50, 75}

func ccacheExp(p Params, w io.Writer) error {
	p = p.withDefaults()
	banner(w, p, "ccache", "client LRU over the hot set; hits bypass the enclave edge entirely")
	keys := p.keys10M()
	t := newTable("workload", "cache", "entries", "hit-rate", "throughput", "speedup")
	for _, wl := range []struct {
		name      string
		dist      workload.Dist
		readRatio float64
	}{
		{"uniform-R95", workload.Uniform, 0.95},
		{"zipf0.99-R95", workload.Zipfian, 0.95},
		{"zipf0.99-R100", workload.Zipfian, 1.0},
	} {
		base := 0.0
		for _, pct := range ccachePcts {
			thr, hitRate, entries, err := ccachePoint(p, keys, wl.dist, wl.readRatio, pct)
			if err != nil {
				return fmt.Errorf("ccache %s cache=%d%%: %w", wl.name, pct, err)
			}
			if pct == 0 {
				base = thr
			}
			speedup := 0.0
			if base > 0 {
				speedup = thr / base
			}
			t.add(wl.name, fmt.Sprintf("%d%%", pct), fmt.Sprintf("%d", entries),
				fmt.Sprintf("%.1f%%", hitRate*100), kops(thr),
				fmt.Sprintf("%.2fx", speedup))
		}
	}
	t.write(w)
	return nil
}

// ccachePoint replays one workload through a ccache.LRU sized to pct%
// of the keyspace (0 = cache off) in front of one store, and returns
// the client-observed throughput plus the measured hit rate. Misses
// and writes pay the enclave edge cost a networked client pays per
// request; hits never reach the store, so they accrue zero simulated
// time — the whole point of the cache.
func ccachePoint(p Params, keys int, dist workload.Dist, readRatio float64, pct int) (thr, hitRate float64, entries int, err error) {
	wcfg := ycsb(keys, dist, readRatio, 16, 0.99, p.Seed)
	loadGen, err := workload.New(wcfg)
	if err != nil {
		return 0, 0, 0, err
	}
	st, err := buildStore(p.baseOptions(aria.AriaHash, keys), loadGen)
	if err != nil {
		return 0, 0, 0, err
	}
	var lru *ccache.LRU
	maxEntries := keys * pct / 100
	if maxEntries > 0 {
		lru = ccache.NewLRU(maxEntries, -1, 0)
	}

	gen, err := workload.New(wcfg)
	if err != nil {
		return 0, 0, 0, err
	}
	var hits, misses uint64
	run := func(ops int, count bool) error {
		var op workload.Op
		for i := 0; i < ops; i++ {
			gen.Next(&op)
			if !op.Read {
				// Writes go to the server regardless of the cache, and
				// coherence drops the local copy — the same work the
				// push stream performs on every remote cache.
				st.ChargeEcall()
				if err := st.Put(op.Key, op.Value); err != nil {
					return err
				}
				if lru != nil {
					lru.InvalidateKey(op.Key)
				}
				continue
			}
			if lru != nil {
				if _, ok := lru.Get(op.Key); ok {
					if count {
						hits++
					}
					continue // zero network hops, zero enclave entries
				}
			}
			if count {
				misses++
			}
			var tok ccache.FillToken
			if lru != nil {
				tok = lru.Begin(op.Key)
			}
			st.ChargeEcall()
			v, err := st.Get(op.Key)
			if err != nil {
				if err == aria.ErrNotFound {
					continue
				}
				return err
			}
			if lru != nil {
				lru.Commit(tok, op.Key, v)
			}
		}
		return nil
	}
	// Warm until the cache has seen at least two full turnovers of its
	// capacity, so the measured window reflects the steady state.
	warm := p.Warmup
	if min := 2 * maxEntries; warm < min {
		warm = min
	}
	if err := run(warm, false); err != nil {
		return 0, 0, 0, err
	}
	st.SetMeasuring(true)
	st.ResetStats()
	if err := run(p.Ops, true); err != nil {
		return 0, 0, 0, err
	}
	s := st.Stats()
	st.SetMeasuring(false)
	if s.SimSeconds <= 0 {
		return 0, 0, 0, fmt.Errorf("no simulated time accrued (hit rate 100%%?)")
	}
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	if lru != nil {
		entries = lru.Len()
	}
	return float64(p.Ops) / s.SimSeconds, hitRate, entries, nil
}
