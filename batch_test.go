package aria

import (
	"bytes"
	"errors"
	"testing"

	"github.com/ariakv/aria/obs"
)

// batchSchemes covers one representative of each implementation family:
// the Aria core engine, the ShieldStore comparator, and the EPC baseline.
var batchSchemes = []Scheme{AriaHash, ShieldStoreScheme, BaselineHash}

func openBatchStore(t *testing.T, scheme Scheme, shards int) Store {
	t.Helper()
	st, err := Open(Options{
		Scheme:       scheme,
		EPCBytes:     16 << 20,
		ExpectedKeys: 4096,
		Shards:       shards,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBatchRoundTrip checks the positional contract on every scheme
// family: MPut then MGet returns each value at its key's position, a fully
// successful batch returns a nil error slice, failures land at their own
// positions only, and MDelete removes exactly its keys.
func TestBatchRoundTrip(t *testing.T) {
	for _, scheme := range batchSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			st := openBatchStore(t, scheme, 1)
			const n = 64
			pairs := make([]KV, n)
			keys := make([][]byte, n)
			for i := range pairs {
				pairs[i] = KV{Key: testKey(i), Value: testValue(i)}
				keys[i] = pairs[i].Key
			}
			if errs := st.MPut(pairs); errs != nil {
				t.Fatalf("MPut errs = %v, want nil", errs)
			}
			vals, errs := st.MGet(keys)
			if errs != nil {
				t.Fatalf("MGet errs = %v, want nil", errs)
			}
			for i, v := range vals {
				if !bytes.Equal(v, testValue(i)) {
					t.Fatalf("vals[%d] = %q, want %q", i, v, testValue(i))
				}
			}

			// A miss must land at its own position and leave the rest whole.
			probe := [][]byte{testKey(0), []byte("absent"), testKey(1)}
			vals, errs = st.MGet(probe)
			if len(vals) != 3 || len(errs) != 3 {
				t.Fatalf("lengths = %d/%d, want 3/3", len(vals), len(errs))
			}
			if errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], ErrNotFound) {
				t.Fatalf("errs = %v, want ErrNotFound only at [1]", errs)
			}
			if vals[1] != nil || !bytes.Equal(vals[0], testValue(0)) || !bytes.Equal(vals[2], testValue(1)) {
				t.Fatalf("vals around the miss are wrong: %q", vals)
			}

			if errs := st.MDelete(keys[:8]); errs != nil {
				t.Fatalf("MDelete errs = %v, want nil", errs)
			}
			if _, err := st.Get(keys[0]); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after MDelete = %v, want ErrNotFound", err)
			}
			if _, err := st.Get(keys[8]); err != nil {
				t.Fatalf("Get of surviving key = %v, want nil", err)
			}
		})
	}
}

// TestBatchPerKeyErrors checks that an invalid key fails alone: the empty
// key is rejected per position while its batch-mates commit.
func TestBatchPerKeyErrors(t *testing.T) {
	st := openBatchStore(t, AriaHash, 1)
	errs := st.MPut([]KV{
		{Key: testKey(1), Value: testValue(1)},
		{Key: nil, Value: testValue(2)},
		{Key: testKey(3), Value: testValue(3)},
	})
	if len(errs) != 3 || errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], ErrEmptyKey) {
		t.Fatalf("MPut errs = %v, want ErrEmptyKey only at [1]", errs)
	}
	for _, i := range []int{1, 3} {
		if _, err := st.Get(testKey(i)); err != nil {
			t.Fatalf("batch-mate %d did not commit: %v", i, err)
		}
	}
}

// TestBatchEdgeAccounting checks the tentpole's cost model: one batch is
// one ECALL/OCALL bracket regardless of size, Stats reports the realized
// batch size, and the per-key cycle cost falls as the batch grows.
func TestBatchEdgeAccounting(t *testing.T) {
	for _, scheme := range batchSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			st := openBatchStore(t, scheme, 1)
			const n = 64
			keys := make([][]byte, n)
			pairs := make([]KV, n)
			for i := range keys {
				pairs[i] = KV{Key: testKey(i), Value: testValue(i)}
				keys[i] = pairs[i].Key
			}
			if errs := st.MPut(pairs); errs != nil {
				t.Fatal(errs)
			}
			st.ResetStats()

			// One n-key batch: exactly one edge round trip.
			if _, errs := st.MGet(keys); errs != nil {
				t.Fatal(errs)
			}
			s1 := st.Stats()
			if s1.Batches != 1 || s1.BatchedKeys != n {
				t.Fatalf("Batches/BatchedKeys = %d/%d, want 1/%d", s1.Batches, s1.BatchedKeys, n)
			}
			if s1.Ecalls != 1 || s1.Ocalls != 1 {
				t.Fatalf("Ecalls/Ocalls = %d/%d, want 1/1", s1.Ecalls, s1.Ocalls)
			}
			batched := s1.SimCycles

			// n single-key batches: n edge round trips, higher total cost.
			st.ResetStats()
			for _, k := range keys {
				if _, errs := st.MGet([][]byte{k}); errs != nil {
					t.Fatal(errs)
				}
			}
			s2 := st.Stats()
			if s2.Batches != n || s2.BatchedKeys != n {
				t.Fatalf("Batches/BatchedKeys = %d/%d, want %d/%d", s2.Batches, s2.BatchedKeys, n, n)
			}
			if s2.Ecalls != n {
				t.Fatalf("Ecalls = %d, want %d", s2.Ecalls, n)
			}
			if batched >= s2.SimCycles {
				t.Fatalf("batched %d cycles not cheaper than %d singles at %d cycles",
					batched, n, s2.SimCycles)
			}
		})
	}
}

// TestShardedBatchFanOut checks order-preserving reassembly across
// parallel shards and that the aggregate Stats sums each shard's batched
// entries.
func TestShardedBatchFanOut(t *testing.T) {
	const shards, n = 4, 200
	st := openBatchStore(t, AriaHash, shards)
	pairs := make([]KV, n)
	keys := make([][]byte, n)
	for i := range pairs {
		pairs[i] = KV{Key: testKey(i), Value: testValue(i)}
		keys[i] = pairs[i].Key
	}
	if errs := st.MPut(pairs); errs != nil {
		t.Fatalf("MPut errs = %v", errs)
	}
	vals, errs := st.MGet(keys)
	if errs != nil {
		t.Fatalf("MGet errs = %v", errs)
	}
	for i, v := range vals {
		if !bytes.Equal(v, testValue(i)) {
			t.Fatalf("vals[%d] = %q, want %q (reassembly broke ordering)", i, v, testValue(i))
		}
	}

	// Every shard served a sub-batch (200 keys over 4 shards cannot all
	// land on one), and the aggregate sums them.
	var batches, batchedKeys uint64
	for i := 0; i < st.NumShards(); i++ {
		ss := st.ShardStats(i)
		if ss.Batches == 0 {
			t.Fatalf("shard %d served no batches", i)
		}
		batches += ss.Batches
		batchedKeys += ss.BatchedKeys
	}
	agg := st.Stats()
	if agg.Batches != batches || agg.BatchedKeys != batchedKeys {
		t.Fatalf("aggregate Batches/BatchedKeys = %d/%d, want %d/%d",
			agg.Batches, agg.BatchedKeys, batches, batchedKeys)
	}
	if batchedKeys != 2*n {
		t.Fatalf("BatchedKeys = %d, want %d (MPut + MGet)", batchedKeys, 2*n)
	}

	// Positional errors survive the scatter/gather.
	probe := [][]byte{[]byte("absent-a"), testKey(5), []byte("absent-b")}
	_, errs = st.MGet(probe)
	if len(errs) != 3 || errs[1] != nil ||
		!errors.Is(errs[0], ErrNotFound) || !errors.Is(errs[2], ErrNotFound) {
		t.Fatalf("sharded MGet errs = %v, want misses at [0] and [2]", errs)
	}

	if errs := st.MDelete(keys); errs != nil {
		t.Fatalf("MDelete errs = %v", errs)
	}
	if st.Stats().Keys != 0 {
		t.Fatalf("keys after MDelete = %d, want 0", st.Stats().Keys)
	}
}

// TestMeteredBatch checks the new metric families: batch counters, the
// batch-size histogram, and the amortized per-key cycle histogram, all
// labelled by op.
func TestMeteredBatch(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(Options{
		Scheme: AriaHash, EPCBytes: 16 << 20, ExpectedKeys: 4096,
		Shards: 2, Seed: 5, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	pairs := make([]KV, n)
	keys := make([][]byte, n)
	for i := range pairs {
		pairs[i] = KV{Key: testKey(i), Value: testValue(i)}
		keys[i] = pairs[i].Key
	}
	if errs := st.MPut(pairs); errs != nil {
		t.Fatal(errs)
	}
	if _, errs := st.MGet(keys); errs != nil {
		t.Fatal(errs)
	}
	_, _ = st.MGet([][]byte{[]byte("absent")})

	snap := reg.Snapshot()
	if got, _ := snap.Value(metricBatchKeysTotal, obs.Labels{"op": "mget"}); got != n+1 {
		t.Fatalf("%s{op=mget} = %v, want %d", metricBatchKeysTotal, got, n+1)
	}
	if got, _ := snap.Value(metricBatchKeysTotal, obs.Labels{"op": "mput"}); got != n {
		t.Fatalf("%s{op=mput} = %v, want %d", metricBatchKeysTotal, got, n)
	}
	// Not-found is a normal outcome, not a per-key error.
	if got, _ := snap.Value(metricBatchKeyErrors, obs.Labels{"op": "mget"}); got != 0 {
		t.Fatalf("%s{op=mget} = %v, want 0", metricBatchKeyErrors, got)
	}
	var sizeCount uint64
	for _, shard := range []string{"0", "1"} {
		if h, ok := snap.Histogram(metricBatchSize, obs.Labels{"op": "mget", "shard": shard}); ok {
			sizeCount += h.Count
		}
	}
	if sizeCount == 0 {
		t.Fatalf("%s recorded no batches", metricBatchSize)
	}
	found := false
	for _, shard := range []string{"0", "1"} {
		if h, ok := snap.Histogram(metricBatchKeySimCycles, obs.Labels{"op": "mget", "shard": shard}); ok && h.Count > 0 && h.Sum > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s recorded no per-key cycle samples", metricBatchKeySimCycles)
	}
}

// TestBatchEmpty checks the degenerate batch: no keys, no errors, and no
// panic — but the edge bracket is still charged, matching "one enclave
// entry per MGet call" exactly.
func TestBatchEmpty(t *testing.T) {
	st := openBatchStore(t, AriaHash, 1)
	vals, errs := st.MGet(nil)
	if len(vals) != 0 || errs != nil {
		t.Fatalf("MGet(nil) = %v, %v", vals, errs)
	}
	if errs := st.MPut(nil); errs != nil {
		t.Fatalf("MPut(nil) = %v", errs)
	}
	if errs := st.MDelete(nil); errs != nil {
		t.Fatalf("MDelete(nil) = %v", errs)
	}
}
