package aria

// Tests for the compressed cold tier (Options.ColdCompress; DESIGN.md
// §15): segment checkpoints, demotion/promotion transparency across the
// whole operation surface, recovery equivalence with the snapshot path,
// two-generation retention on disk, and toggling the tier across
// reopens. The cold-tier crash matrix lives in crash_matrix_test.go.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// coldOpts is durableOpts with the cold tier on.
func coldOpts(dir string) Options {
	opts := durableOpts(dir)
	opts.ColdCompress = true
	return opts
}

// coldValue builds the repo's compressible corpus value for key i.
func coldValueAt(i int) []byte {
	v := make([]byte, 64)
	for j := range v {
		v[j] = byte('a' + (i+j)%26)
	}
	return v
}

func coldKey(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }

// fillCold loads n corpus pairs.
func fillCold(t *testing.T, st Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.Put(coldKey(i), coldValueAt(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

// checkpoint runs one explicit checkpoint, failing the test on error.
func checkpoint(t *testing.T, st Store) {
	t.Helper()
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}

func TestColdCheckpointWritesSegments(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, coldOpts(dir))
	defer mustClose(t, st)
	fillCold(t, st, 300)
	checkpoint(t, st)
	stats := st.Stats()
	if stats.Segments == 0 || stats.SegmentBytes == 0 {
		t.Fatalf("no segments after checkpoint: %+v", stats)
	}
	if stats.CompRawBytes == 0 || stats.CompBytes >= stats.CompRawBytes {
		t.Errorf("corpus did not compress: comp=%d raw=%d", stats.CompBytes, stats.CompRawBytes)
	}
	names := 0
	for _, e := range mustReadDir(t, dir) {
		if strings.HasPrefix(e, "seg-") || strings.HasPrefix(e, "segset-") {
			names++
		}
		if strings.HasPrefix(e, "snap-") {
			t.Errorf("cold checkpoint left a raw snapshot: %s", e)
		}
	}
	if names < 2 {
		t.Fatalf("expected a segment and a set manifest on disk, found %d files", names)
	}
}

func mustReadDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestColdDemotionAndPromotion: after two checkpoints, untouched keys
// are demoted; every read route must still see exact values, and the
// stats must show the demotion.
func TestColdDemotionAndPromotion(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, coldOpts(dir))
	defer mustClose(t, st)
	fillCold(t, st, 400)
	checkpoint(t, st)
	// Touch a small hot set, then checkpoint: everything else demotes.
	for i := 0; i < 20; i++ {
		if err := st.Put(coldKey(i), coldValueAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(t, st)
	stats := st.Stats()
	if stats.ColdKeys == 0 || stats.ColdBytes == 0 {
		t.Fatalf("nothing demoted: %+v", stats)
	}
	if stats.Keys != 400 {
		t.Fatalf("Keys = %d after demotion, want 400 (logical count)", stats.Keys)
	}
	// Point reads promote with the exact value.
	for _, i := range []int{0, 19, 20, 200, 399} {
		v, err := st.Get(coldKey(i))
		if err != nil || !bytes.Equal(v, coldValueAt(i)) {
			t.Fatalf("get %d: %v %q", i, err, v)
		}
	}
	if st.Stats().ColdHits == 0 {
		t.Error("reads of demoted keys counted no cold hits")
	}
	// Batch read across hot and cold.
	keys := [][]byte{coldKey(21), coldKey(350), coldKey(399)}
	vals, errs := st.MGet(keys)
	if len(vals) != len(keys) {
		t.Fatalf("mget returned %d values for %d keys", len(vals), len(keys))
	}
	for i := range keys {
		// nil errs means all-success, matching the batch-op convention.
		if len(errs) != 0 && errs[i] != nil {
			t.Fatalf("mget %s: %v", keys[i], errs[i])
		}
	}
	for i, want := range [][]byte{coldValueAt(21), coldValueAt(350), coldValueAt(399)} {
		if !bytes.Equal(vals[i], want) {
			t.Fatalf("mget %s = %q, want corpus value", keys[i], vals[i])
		}
	}
	// Scan sees the whole keyspace in order.
	if got := dump(t, st); len(got) != 400 {
		t.Fatalf("scan saw %d keys, want 400", len(got))
	}
	if st.Stats().ColdKeys != 0 {
		t.Errorf("scan left %d keys cold; range promotion should cover all", st.Stats().ColdKeys)
	}
}

// TestColdMissCounting: only reads that fall past both tiers count.
func TestColdMissCounting(t *testing.T) {
	st := mustOpen(t, coldOpts(t.TempDir()))
	defer mustClose(t, st)
	fillCold(t, st, 10)
	if _, err := st.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if err := st.Put([]byte("fresh"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.ColdMisses != 1 {
		t.Errorf("ColdMisses = %d, want 1 (the absent read; the fresh put is not a miss)", stats.ColdMisses)
	}
}

// TestColdVersionAndTTLSurviveDemotion: CAS versions and TTL deadlines
// must round-trip through demotion exactly.
func TestColdVersionAndTTLSurviveDemotion(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, coldOpts(dir))
	defer mustClose(t, st)
	fillCold(t, st, 50)
	// A TTL'd key with a long deadline.
	if err := st.PutTTL([]byte("ttl-key"), []byte("ttl-val"), time.Hour); err != nil {
		t.Fatal(err)
	}
	_, verBefore, err := st.GetV(coldKey(7))
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(t, st) // round 1: everything hot
	// Advance the log so the second checkpoint is not a no-op; every key
	// other than this one is untouched and demotes.
	if err := st.Put([]byte("hot-marker"), []byte("hot")); err != nil {
		t.Fatal(err)
	}
	checkpoint(t, st) // round 2: all untouched keys demote
	if st.Stats().ColdKeys == 0 {
		t.Fatal("setup failed: nothing demoted")
	}
	// CAS against the pre-demotion version must succeed after promotion.
	if err := st.CompareAndSwap(coldKey(7), []byte("cas-new"), verBefore); err != nil {
		t.Fatalf("CAS with pre-demotion version: %v", err)
	}
	// And a stale version must still be rejected.
	if err := st.CompareAndSwap(coldKey(7), []byte("cas-stale"), verBefore); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("stale CAS: %v", err)
	}
	// The TTL key promoted with its deadline intact.
	if v, err := st.Get([]byte("ttl-key")); err != nil || string(v) != "ttl-val" {
		t.Fatalf("ttl key after demotion: %v %q", err, v)
	}
	// Transactions across hot and cold keys.
	err = st.TxnCommit([]TxnOp{
		{Key: coldKey(8), Value: []byte("txn-8")},
		{Key: coldKey(9), Value: []byte("txn-9")},
	})
	if err != nil {
		t.Fatalf("txn over cold keys: %v", err)
	}
	if v, _ := st.Get(coldKey(8)); string(v) != "txn-8" {
		t.Fatalf("txn write lost: %q", v)
	}
}

// TestColdRecoveryMatchesSnapshotRecovery: the same operation history
// recovered through segments and through snapshots yields identical
// state.
func TestColdRecoveryMatchesSnapshotRecovery(t *testing.T) {
	history := func(st Store) error {
		for i := 0; i < 200; i++ {
			if err := st.Put(coldKey(i), coldValueAt(i)); err != nil {
				return err
			}
		}
		if err := st.Checkpoint(); err != nil {
			return err
		}
		for i := 0; i < 60; i += 2 {
			if err := st.Put(coldKey(i), []byte(fmt.Sprintf("v2-%d", i))); err != nil {
				return err
			}
		}
		for i := 100; i < 120; i++ {
			if err := st.Delete(coldKey(i)); err != nil {
				return err
			}
		}
		if err := st.Checkpoint(); err != nil {
			return err
		}
		// Tail ops that stay WAL-only past the last checkpoint.
		return st.Put([]byte("tail"), []byte("tail-v"))
	}
	states := make([]map[string]string, 2)
	for i, cold := range []bool{false, true} {
		dir := t.TempDir()
		opts := durableOpts(dir)
		opts.ColdCompress = cold
		st := mustOpen(t, opts)
		if err := history(st); err != nil {
			t.Fatalf("cold=%v history: %v", cold, err)
		}
		mustClose(t, st)
		st = mustOpen(t, opts)
		states[i] = dump(t, st)
		mustClose(t, st)
	}
	if len(states[0]) != len(states[1]) {
		t.Fatalf("state sizes differ: snapshot %d vs segments %d", len(states[0]), len(states[1]))
	}
	for k, v := range states[0] {
		if states[1][k] != v {
			t.Errorf("key %q: snapshot %q vs segments %q", k, v, states[1][k])
		}
	}
}

// TestColdRetentionKeepsTwoGenerations: after many checkpoints the disk
// holds at most two set manifests, and every referenced segment file.
func TestColdRetentionKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	opts := coldOpts(dir)
	opts.CompactEvery = 4
	st := mustOpen(t, opts)
	defer mustClose(t, st)
	fillCold(t, st, 100)
	for round := 0; round < 12; round++ {
		for i := 0; i < 10; i++ {
			k := (round*10 + i) % 100
			if err := st.Put(coldKey(k), coldValueAt(k+round)); err != nil {
				t.Fatal(err)
			}
		}
		checkpoint(t, st)
	}
	sets, segs := 0, 0
	for _, name := range mustReadDir(t, dir) {
		switch {
		case strings.HasPrefix(name, "segset-"):
			sets++
		case strings.HasPrefix(name, "seg-"):
			segs++
		}
	}
	if sets > 2 {
		t.Errorf("%d set manifests on disk, retention should keep 2", sets)
	}
	if segs == 0 {
		t.Error("no segments on disk")
	}
	// At CompactEvery=4 a surviving generation holds at most 4+1 segments;
	// two generations can share members, so 10 is a conservative ceiling.
	if segs > 10 {
		t.Errorf("%d segments on disk for two generations of <=5", segs)
	}
	if st.Stats().Compactions == 0 {
		t.Error("12 checkpoints at CompactEvery=4 performed no compaction")
	}
}

// TestColdToggleAcrossReopen: a lineage written with the tier on opens
// with it off (and vice versa) without losing state.
func TestColdToggleAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	// Start cold, write, checkpoint into segments.
	st := mustOpen(t, coldOpts(dir))
	fillCold(t, st, 120)
	checkpoint(t, st)
	if err := st.Put([]byte("after-seg"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, st)

	// Reopen with the tier off: recovery must read the segment set.
	st = mustOpen(t, durableOpts(dir))
	if v, err := st.Get(coldKey(5)); err != nil || !bytes.Equal(v, coldValueAt(5)) {
		t.Fatalf("segment state lost with tier off: %v %q", err, v)
	}
	if v, err := st.Get([]byte("after-seg")); err != nil || string(v) != "v1" {
		t.Fatalf("WAL tail lost: %v %q", err, v)
	}
	checkpoint(t, st) // writes a raw snapshot
	if err := st.Put([]byte("after-snap"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, st)

	// Back on: recovery must prefer the newer snapshot over older sets.
	st = mustOpen(t, coldOpts(dir))
	defer mustClose(t, st)
	for _, check := range []struct{ k, v string }{
		{string(coldKey(5)), string(coldValueAt(5))},
		{"after-seg", "v1"},
		{"after-snap", "v2"},
	} {
		if v, err := st.Get([]byte(check.k)); err != nil || string(v) != check.v {
			t.Fatalf("key %q after toggle: %v %q", check.k, err, v)
		}
	}
}

// TestColdShardedStatsAggregate: the sharded wrapper sums the cold-tier
// stats across shards.
func TestColdShardedStatsAggregate(t *testing.T) {
	dir := t.TempDir()
	opts := coldOpts(dir)
	opts.Shards = 2
	st := mustOpen(t, opts)
	defer mustClose(t, st)
	fillCold(t, st, 200)
	checkpoint(t, st)
	stats := st.Stats()
	if stats.Segments < 2 {
		t.Errorf("sharded Segments = %d, want >= 2 (one per shard)", stats.Segments)
	}
	if stats.CompRawBytes == 0 {
		t.Error("sharded CompRawBytes = 0")
	}
	if stats.Keys != 200 {
		t.Errorf("sharded Keys = %d, want 200", stats.Keys)
	}
}
