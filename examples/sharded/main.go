// Sharded store example: scale out past the single-enclave design by hash-
// partitioning the keyspace across four independent Aria instances
// (Options.Shards). Each shard gets a 1/4 slice of the EPC budget and its
// own lock, so goroutines touching different shards proceed concurrently.
// The demo drives a mixed read/write workload from several goroutines and
// prints the aggregate throughput, the per-shard breakdown, and the
// store's health.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/workload"
)

func main() {
	var (
		shards  = flag.Int("shards", 4, "independent enclave instances")
		keys    = flag.Int("keys", 50_000, "keyspace size")
		ops     = flag.Int("ops", 200_000, "total operations across all workers")
		workers = flag.Int("workers", 8, "concurrent client goroutines")
	)
	flag.Parse()

	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     8 << 20, // total; split fairly across shards
		ExpectedKeys: *keys,
		Shards:       *shards,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Bulk-load the keyspace, then measure a concurrent mixed workload.
	loader, err := workload.New(workload.Config{Keys: *keys, ValueSize: 64, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < loader.Keys(); i++ {
		if err := st.Put(loader.KeyAt(i), loader.ValueAt(i)); err != nil {
			log.Fatal(err)
		}
	}

	st.SetMeasuring(true)
	st.ResetStats() // zeroes the simulated clock; op counters stay cumulative
	perWorker := *ops / *workers
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		// One generator per goroutine: generators are not concurrency-
		// safe, and distinct seeds keep the streams independent.
		gen, err := workload.New(workload.Config{
			Keys:      *keys,
			Dist:      workload.Zipfian,
			Skew:      0.99,
			ReadRatio: 0.9,
			ValueSize: 64,
			Seed:      int64(100 + w),
		})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(gen *workload.Generator) {
			defer wg.Done()
			var op workload.Op
			for i := 0; i < perWorker; i++ {
				gen.Next(&op)
				if op.Read {
					if _, err := st.Get(op.Key); err != nil && err != aria.ErrNotFound {
						log.Fatal(err)
					}
				} else if err := st.Put(op.Key, op.Value); err != nil {
					log.Fatal(err)
				}
			}
		}(gen)
	}
	wg.Wait()
	st.SetMeasuring(false)

	// Aggregate view: counters are summed across shards; the simulated
	// clock is the slowest shard's (shards run in parallel).
	stats := st.Stats()
	done := perWorker * *workers
	fmt.Printf("%d workers, %d shards, %d ops (90%% reads, Zipf-0.99)\n",
		*workers, *shards, done)
	fmt.Printf("aggregate: %.0f ops/s simulated, cache hit ratio %.0f%%, health %s\n\n",
		float64(done)/stats.SimSeconds, stats.CacheHitRatio*100, stats.Health())

	// Per-shard breakdown: keys and gets show how evenly the hash router
	// spread the keyspace and the traffic.
	fmt.Println("shard  keys   gets    hit-ratio  epc-used")
	for i := 0; i < st.NumShards(); i++ {
		ss := st.ShardStats(i)
		fmt.Printf("%-5d  %-5d  %-6d  %-9s  %d KB\n",
			i, ss.Keys, ss.Gets, fmt.Sprintf("%.0f%%", ss.CacheHitRatio*100),
			ss.EPCUsedBytes>>10)
	}
}
