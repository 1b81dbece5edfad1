package aria

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// Sharded-store tests: routing, aggregation rules (summed counters,
// slowest-shard clock, worst-of health), per-shard failure isolation, and
// the cross-shard merged Scan.

const shardTestKeys = 1000

func shardKey(i int) []byte { return []byte(fmt.Sprintf("shk-%06d", i)) }

func openShardedStore(t *testing.T, opts Options) Store {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func loadShardedStore(t *testing.T, opts Options) Store {
	t.Helper()
	st := openShardedStore(t, opts)
	for i := 0; i < shardTestKeys; i++ {
		if err := st.Put(shardKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func shardedOptions(shards int) Options {
	return Options{
		Scheme:       AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: shardTestKeys,
		Seed:         31,
		Shards:       shards,
	}
}

func TestShardsOneIsPlainStore(t *testing.T) {
	// Shards <= 1 is one enclave with no routing layer on top: the shard
	// itself, reporting one shard that serves every key, and — when
	// durable — its lineage sits at the top of DataDir, with no manifest
	// and no shard-0/ subdirectory.
	for _, n := range []int{0, 1} {
		opts := shardedOptions(n)
		opts.DataDir = t.TempDir()
		st := openShardedStore(t, opts)
		if _, ok := st.(*shard); !ok {
			t.Fatalf("Shards=%d put %T on top of the shard", n, st)
		}
		if err := st.Put(shardKey(0), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if got := st.NumShards(); got != 1 {
			t.Fatalf("Shards=%d: NumShards = %d, want 1", n, got)
		}
		if got := st.ShardFor(shardKey(0)); got != 0 {
			t.Fatalf("Shards=%d: ShardFor = %d, want 0", n, got)
		}
		if got := st.ShardStats(0).Puts; got != st.Stats().Puts || got != 1 {
			t.Fatalf("Shards=%d: ShardStats(0).Puts = %d, want Stats().Puts = 1", n, got)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(opts.DataDir)
		if err != nil {
			t.Fatal(err)
		}
		wal := false
		for _, e := range entries {
			if e.IsDir() || e.Name() == manifestName {
				t.Errorf("Shards=%d wrote %s into DataDir", n, e.Name())
			}
			wal = wal || strings.HasPrefix(e.Name(), "wal-")
		}
		if !wal {
			t.Errorf("Shards=%d left no WAL segment at the top of DataDir (%v)", n, entries)
		}
	}
}

func TestShardedRoundTripAndRouting(t *testing.T) {
	st := loadShardedStore(t, shardedOptions(4))
	if st.NumShards() != 4 {
		t.Fatalf("NumShards = %d", st.NumShards())
	}
	used := make(map[int]int)
	for i := 0; i < shardTestKeys; i++ {
		k := shardKey(i)
		v, err := st.Get(k)
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("get %s = %q, %v", k, v, err)
		}
		idx := st.ShardFor(k)
		if idx < 0 || idx >= 4 {
			t.Fatalf("ShardFor out of range: %d", idx)
		}
		used[idx]++
	}
	if len(used) != 4 {
		t.Errorf("1000 keys landed on only %d of 4 shards: %v", len(used), used)
	}
	// Deletes route the same way.
	if err := st.Delete(shardKey(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(shardKey(0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key get = %v", err)
	}
}

func TestShardedStatsAggregation(t *testing.T) {
	st := loadShardedStore(t, shardedOptions(4))
	for i := 0; i < 200; i++ {
		if _, err := st.Get(shardKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	var sumGets, sumPuts, sumCycles, maxCycles uint64
	var sumKeys int
	for i := 0; i < st.NumShards(); i++ {
		ss := st.ShardStats(i)
		sumGets += ss.Gets
		sumPuts += ss.Puts
		sumKeys += ss.Keys
		sumCycles += ss.SimCycles
		if ss.SimCycles > maxCycles {
			maxCycles = ss.SimCycles
		}
	}
	agg := st.Stats()
	if agg.Gets != sumGets || agg.Gets != 200 {
		t.Errorf("aggregate Gets = %d, shard sum %d, want 200", agg.Gets, sumGets)
	}
	if agg.Puts != sumPuts || agg.Puts != shardTestKeys {
		t.Errorf("aggregate Puts = %d, shard sum %d, want %d", agg.Puts, sumPuts, shardTestKeys)
	}
	if agg.Keys != sumKeys || agg.Keys != shardTestKeys {
		t.Errorf("aggregate Keys = %d, shard sum %d, want %d", agg.Keys, sumKeys, shardTestKeys)
	}
	// Shards execute in parallel: the aggregate clock is the straggler's,
	// not the sum of sequentialized shards.
	if agg.SimCycles != maxCycles {
		t.Errorf("aggregate SimCycles = %d, want slowest shard %d", agg.SimCycles, maxCycles)
	}
	if agg.SimCycles >= sumCycles {
		t.Errorf("aggregate clock (%d) not smaller than serialized sum (%d)", agg.SimCycles, sumCycles)
	}
	if agg.Health() != HealthOK {
		t.Errorf("healthy store reports %v", agg.Health())
	}
}

// findShardCorruption searches one shard's untrusted arena (via the
// concatenated untrusted-memory address space) for a single-byte flip that
// breaks at least one but only a few keys — the same scout technique as
// the integrity-policy tests, aimed at exactly one shard.
func findShardCorruption(t *testing.T, opts Options, victim int) int {
	t.Helper()
	st := loadShardedStore(t, opts)
	// The shards are configured alike and the router spreads keys evenly,
	// so shard i's arena starts near i/n of the concatenation. That only
	// aims the search: a flip counts when every key it breaks routes to
	// the victim, which is what proves whose memory it hit.
	total := st.UntrustedSize()
	start := total / st.NumShards() * victim
	for off := start; off < total && off < start+65536; off += 61 {
		st.FlipUntrustedByte(off, 0xA5)
		broken, elsewhere := 0, 0
		for i := 0; i < shardTestKeys; i++ {
			if _, err := st.Get(shardKey(i)); errors.Is(err, ErrIntegrity) {
				broken++
				if st.ShardFor(shardKey(i)) != victim {
					elsewhere++
				}
			}
		}
		st.FlipUntrustedByte(off, 0xA5) // undo before deciding
		if broken >= 1 && broken <= 8 && elsewhere == 0 {
			return off
		}
	}
	return -1
}

func TestShardedQuarantineIsolation(t *testing.T) {
	opts := shardedOptions(4)
	// Disable the Secure Cache so every Get verifies untrusted memory
	// (same reasoning as the single-store policy tests).
	opts.SecureCacheBytes = -1
	opts.IntegrityPolicy = Quarantine
	const victim = 3
	off := findShardCorruption(t, opts, victim)
	if off < 0 {
		t.Skip("no narrow single-flip corruption found at this seed")
	}

	st := loadShardedStore(t, opts)
	st.FlipUntrustedByte(off, 0x01)

	broken := make(map[string]bool)
	for i := 0; i < shardTestKeys; i++ {
		k := shardKey(i)
		_, err := st.Get(k)
		switch {
		case err == nil:
		case errors.Is(err, ErrIntegrity):
			broken[string(k)] = true
			if got := st.ShardFor(k); got != victim {
				t.Fatalf("tampered shard %d broke key %s of shard %d", victim, k, got)
			}
		default:
			t.Fatalf("key %s: unexpected error %v", k, err)
		}
	}
	if len(broken) == 0 {
		t.Skip("flip did not reproduce on the fresh store (layout drift)")
	}

	// Aggregate: degraded, with the poisoned set counted once.
	agg := st.Stats()
	if agg.Health() != HealthDegraded {
		t.Errorf("aggregate health = %v, want %v", agg.Health(), HealthDegraded)
	}
	if agg.QuarantinedKeys != len(broken) {
		t.Errorf("aggregate QuarantinedKeys = %d, want %d", agg.QuarantinedKeys, len(broken))
	}
	if agg.IntegrityFailures == 0 {
		t.Error("aggregate IntegrityFailures not counted")
	}

	// Isolation: shards 0..2 report their own health as OK and keep
	// serving every one of their keys; only the victim is degraded.
	var sumQuarantined int
	var sumFailures uint64
	for i := 0; i < st.NumShards(); i++ {
		ss := st.ShardStats(i)
		sumQuarantined += ss.QuarantinedKeys
		sumFailures += ss.IntegrityFailures
		if i == victim {
			if ss.Health() != HealthDegraded {
				t.Errorf("victim shard %d health = %v", i, ss.Health())
			}
			continue
		}
		if ss.Health() != HealthOK {
			t.Errorf("untouched shard %d health = %v", i, ss.Health())
		}
		if ss.QuarantinedKeys != 0 {
			t.Errorf("untouched shard %d quarantined %d keys", i, ss.QuarantinedKeys)
		}
	}
	if agg.QuarantinedKeys != sumQuarantined || agg.IntegrityFailures != sumFailures {
		t.Errorf("aggregate (%d keys, %d failures) != shard sums (%d, %d)",
			agg.QuarantinedKeys, agg.IntegrityFailures, sumQuarantined, sumFailures)
	}

	// Every key outside the poisoned set still serves, including the
	// victim shard's untampered keys.
	for i := 0; i < shardTestKeys; i++ {
		k := shardKey(i)
		v, err := st.Get(k)
		if broken[string(k)] {
			if !errors.Is(err, ErrQuarantined) {
				t.Fatalf("poisoned key %s: err = %v, want ErrQuarantined", k, err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("healthy key %s failed during quarantine: %q %v", k, v, err)
		}
	}
}

func TestShardedVerifyIntegrityAuditsAllShards(t *testing.T) {
	opts := shardedOptions(4)
	opts.SecureCacheBytes = -1
	st := loadShardedStore(t, opts)
	if err := st.VerifyIntegrity(); err != nil {
		t.Fatalf("clean store failed audit: %v", err)
	}
	// Damage the last shard's arena; the joined audit must still surface
	// ErrIntegrity even though shards 0..2 pass. The shards are configured
	// alike, so the last arena starts near (n-1)/n of the concatenated
	// address space; that only aims the search — which shard's failure
	// count moved is what proves whose memory a flip hit.
	last := st.NumShards() - 1
	failures := func() []uint64 {
		out := make([]uint64, st.NumShards())
		for i := range out {
			out[i] = st.ShardStats(i).IntegrityFailures
		}
		return out
	}
	total := st.UntrustedSize()
	start := total / st.NumShards() * last
	tampered := false
	for off := start; off < total && off < start+65536 && !tampered; off += 127 {
		before := failures()
		st.FlipUntrustedByte(off, 0xFF)
		err := st.VerifyIntegrity()
		after := failures()
		tampered = errors.Is(err, ErrIntegrity) && after[last] > before[last]
		for i := 0; i < last; i++ {
			tampered = tampered && after[i] == before[i]
		}
		if !tampered {
			st.FlipUntrustedByte(off, 0xFF) // undo and keep looking
		}
	}
	if !tampered {
		t.Skip("no audit-visible flip found at this seed")
	}
}

func TestShardedConcurrentOps(t *testing.T) {
	// The per-shard locks must make the whole store goroutine-safe, the
	// engine's reused buffers (tree node arena, MACer) included; the race
	// detector turns any violation into a failure, and every read must
	// see a value some writer stored.
	for _, scheme := range []Scheme{AriaHash, AriaTree, AriaBPTree} {
		t.Run(scheme.String(), func(t *testing.T) {
			opts := shardedOptions(4)
			opts.Scheme = scheme
			st := loadShardedStore(t, opts)
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						n := (g*300 + i) % shardTestKeys
						k := shardKey(n)
						if i%3 == 0 {
							if err := st.Put(k, []byte("w")); err != nil {
								errs <- err
								return
							}
						} else if v, err := st.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
							errs <- err
							return
						} else if err == nil && string(v) != "w" && string(v) != fmt.Sprintf("v-%d", n) {
							errs <- fmt.Errorf("Get(%s) = %q", k, v)
							return
						}
						if i%97 == 0 {
							_ = st.Stats()
						}
						if scheme == AriaBPTree && i%50 == 0 {
							if err := st.Scan(k, nil, func(_, _ []byte) bool { return false }); err != nil {
								errs <- err
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if st.Stats().Keys != shardTestKeys {
				t.Errorf("keys after concurrent churn = %d", st.Stats().Keys)
			}
		})
	}
}

// ---- cross-shard Scan -----------------------------------------------------------

func scanKey(i int) []byte { return []byte(fmt.Sprintf("sck-%06d", i)) }

func loadScanStore(t *testing.T, shards int) Store {
	t.Helper()
	st := openShardedStore(t, Options{
		Scheme:       AriaBPTree,
		EPCBytes:     16 << 20,
		ExpectedKeys: 600,
		Seed:         13,
		Shards:       shards,
	})
	for i := 0; i < 600; i++ {
		if err := st.Put(scanKey(i), []byte(fmt.Sprintf("sv-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestShardedScanGlobalOrder(t *testing.T) {
	st := loadScanStore(t, 4)
	var got []string
	prev := ""
	seen := make(map[string]bool)
	err := st.Scan(nil, nil, func(k, v []byte) bool {
		ks := string(k)
		if seen[ks] {
			t.Fatalf("duplicate key %q delivered", ks)
		}
		if prev != "" && ks <= prev {
			t.Fatalf("order violated: %q after %q", ks, prev)
		}
		seen[ks] = true
		prev = ks
		got = append(got, ks)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 600 {
		t.Fatalf("scan delivered %d keys, want 600", len(got))
	}
	for i, ks := range got {
		if ks != string(scanKey(i)) {
			t.Fatalf("key %d = %q, want %q", i, ks, scanKey(i))
		}
	}
}

func TestShardedScanRangeAndEarlyStop(t *testing.T) {
	st := loadScanStore(t, 4)
	// Bounded range: [100, 160).
	var got []string
	if err := st.Scan(scanKey(100), scanKey(160), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 || got[0] != string(scanKey(100)) || got[59] != string(scanKey(159)) {
		t.Fatalf("range scan = %d keys [%s..%s]", len(got), got[0], got[len(got)-1])
	}
	// Early stop: the callback's false return ends the merge cleanly.
	n := 0
	if err := st.Scan(nil, nil, func(k, v []byte) bool {
		n++
		return n < 37
	}); err != nil {
		t.Fatal(err)
	}
	if n != 37 {
		t.Errorf("early stop delivered %d pairs, want 37", n)
	}
}

func TestShardedScanValuesIntact(t *testing.T) {
	st := loadScanStore(t, 2)
	if err := st.Scan(nil, nil, func(k, v []byte) bool {
		var i int
		if _, err := fmt.Sscanf(string(k), "sck-%06d", &i); err != nil {
			t.Fatalf("unparseable key %q", k)
		}
		if string(v) != fmt.Sprintf("sv-%d", i) {
			t.Fatalf("key %q carries value %q", k, v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedScanUnsupportedSchemes(t *testing.T) {
	// Hash indexes have no order; the sharded wrapper must preserve the
	// exact ErrNoScan sentinel through the merge.
	for _, scheme := range []Scheme{AriaHash, ShieldStoreScheme, BaselineHash} {
		st := openShardedStore(t, Options{
			Scheme: scheme, EPCBytes: 16 << 20, ExpectedKeys: 64, Shards: 2,
		})
		if err := st.Scan(nil, nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrNoScan) {
			t.Errorf("%v: scan error = %v, want ErrNoScan", scheme, err)
		}
	}
}

func TestShardedEcallChargesSpread(t *testing.T) {
	st := openShardedStore(t, shardedOptions(4))
	for i := 0; i < 40; i++ {
		st.ChargeEcall()
	}
	agg := st.Stats()
	if agg.Ecalls < 40 {
		t.Errorf("aggregate Ecalls = %d, want >= 40", agg.Ecalls)
	}
	for i := 0; i < 4; i++ {
		if got := st.ShardStats(i).Ecalls; got < 10 {
			t.Errorf("shard %d received %d of 40 round-robin charges", i, got)
		}
	}
}
