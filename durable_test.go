package aria

// Tests for the sealed durability wrapper: persistence across reopen,
// group commit, checkpoint/truncate, tamper handling under both
// integrity policies, sharded recovery, and the cost accounting of the
// sealing boundary. The exhaustive crash matrix lives in
// crash_matrix_test.go.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ariakv/aria/obs"
)

// durableOpts returns small-store options rooted at dir. Callers mutate
// the result for policy/fsync/shard variations.
func durableOpts(dir string) Options {
	return Options{
		Scheme:               AriaBPTree,
		EPCBytes:             32 << 20,
		ExpectedKeys:         2048,
		SecureCacheBytes:     1 << 20,
		PinBudgetBytes:       64 << 10,
		ShieldStoreRootBytes: 16 << 10,
		Seed:                 5,
		DataDir:              dir,
	}
}

func mustOpen(t *testing.T, opts Options) Store {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustClose(t *testing.T, st Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// dump scans the whole keyspace into a map for state comparison.
func dump(t *testing.T, st Store) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if err := st.Scan(nil, nil, func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func TestDurablePersistsAcrossReopen(t *testing.T) {
	for _, scheme := range []Scheme{AriaHash, AriaBPTree} {
		t.Run(scheme.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOpts(dir)
			opts.Scheme = scheme

			st := mustOpen(t, opts)
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("key-%05d", i))
				if err := st.Put(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			for i := 0; i < 200; i += 3 {
				if err := st.Delete([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
			}
			mustClose(t, st)

			st2 := mustOpen(t, opts)
			defer mustClose(t, st2)
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("key-%05d", i))
				v, err := st2.Get(k)
				if i%3 == 0 {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("deleted key %d resurrected: %v", i, err)
					}
					continue
				}
				if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
					t.Fatalf("get %d after reopen: %v", i, err)
				}
			}
			stats := st2.Stats()
			if stats.RecoveredRecords == 0 {
				t.Error("RecoveredRecords = 0 after replaying a WAL")
			}
			if stats.IntegrityFailures != 0 {
				t.Errorf("IntegrityFailures = %d on a clean log", stats.IntegrityFailures)
			}
		})
	}
}

func TestDurableBatchIsOneGroupCommit(t *testing.T) {
	st := mustOpen(t, durableOpts(t.TempDir()))
	defer mustClose(t, st)

	before := st.Stats()
	pairs := make([]KV, 50)
	for i := range pairs {
		pairs[i] = KV{Key: []byte(fmt.Sprintf("b-%03d", i)), Value: []byte("v")}
	}
	if errs := st.MPut(pairs); errs != nil {
		t.Fatalf("mput: %v", errs)
	}
	after := st.Stats()
	if got := after.WALAppends - before.WALAppends; got != 1 {
		t.Errorf("WALAppends delta = %d, want 1 (group commit)", got)
	}
	if got := after.WALRecords - before.WALRecords; got != 50 {
		t.Errorf("WALRecords delta = %d, want 50", got)
	}
	if got := after.WALFsyncs - before.WALFsyncs; got != 1 {
		t.Errorf("WALFsyncs delta = %d, want 1 under FsyncBatch", got)
	}

	// 50 singleton puts cost 50 appends and 50 fsyncs: the edge the
	// batch amortizes.
	before = after
	for i := range pairs {
		if err := st.Put([]byte(fmt.Sprintf("s-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	after = st.Stats()
	if got := after.WALFsyncs - before.WALFsyncs; got != 50 {
		t.Errorf("singleton WALFsyncs delta = %d, want 50", got)
	}
}

func TestDurableFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy FsyncPolicy
		want   uint64 // fsyncs for one 10-record batch
	}{
		{FsyncBatch, 1},
		{FsyncAlways, 10},
		{FsyncNever, 0},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			opts := durableOpts(t.TempDir())
			opts.Fsync = tc.policy
			st := mustOpen(t, opts)
			defer mustClose(t, st)
			pairs := make([]KV, 10)
			for i := range pairs {
				pairs[i] = KV{Key: []byte(fmt.Sprintf("k-%d", i)), Value: []byte("v")}
			}
			before := st.Stats().WALFsyncs
			if errs := st.MPut(pairs); errs != nil {
				t.Fatalf("mput: %v", errs)
			}
			if got := st.Stats().WALFsyncs - before; got != tc.want {
				t.Errorf("fsyncs = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestDurableCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	st := mustOpen(t, opts)

	putRange := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ckpt := func() {
		t.Helper()
		if err := st.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	count := func(pattern string) int {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}

	// First checkpoint: there is no previous snapshot generation, so the
	// full WAL stays as the fallback — one closed segment plus the fresh
	// active one, and one snapshot.
	putRange(0, 100)
	ckpt()
	if got := st.Stats().Checkpoints; got != 1 {
		t.Errorf("Checkpoints = %d, want 1", got)
	}
	if got := count("wal-*.log"); got != 2 {
		t.Errorf("segments after first checkpoint = %d, want 2 (previous generation retained)", got)
	}
	if got := count("snap-*.seal"); got != 1 {
		t.Errorf("snapshots after first checkpoint = %d, want 1", got)
	}

	// Second checkpoint: the store now retains two snapshot generations
	// and prunes WAL history only up to the older one, so a tampered
	// newest snapshot always leaves a working fallback.
	putRange(100, 120)
	ckpt()
	if got := count("snap-*.seal"); got != 2 {
		t.Errorf("snapshots after second checkpoint = %d, want 2 generations", got)
	}
	if got := count("wal-*.log"); got != 2 {
		t.Errorf("segments after second checkpoint = %d, want 2 (replay above the older snapshot)", got)
	}

	// Third checkpoint: the oldest generation is now obsolete and gets
	// pruned — retention stays bounded at two.
	putRange(120, 130)
	ckpt()
	if got := count("snap-*.seal"); got != 2 {
		t.Errorf("snapshots after third checkpoint = %d, want 2 (oldest pruned)", got)
	}
	if got := count("wal-*.log"); got != 2 {
		t.Errorf("segments after third checkpoint = %d, want 2 (oldest pruned)", got)
	}
	// A checkpoint with nothing new logged is a no-op, not a file churn.
	ckpt()
	if got := st.Stats().Checkpoints; got != 3 {
		t.Errorf("Checkpoints = %d, want 3 (empty checkpoint skipped)", got)
	}
	want := dump(t, st)
	mustClose(t, st)

	st2 := mustOpen(t, opts)
	defer mustClose(t, st2)
	got := dump(t, st2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
	// Snapshot restore + skip of already-covered WAL records, not a
	// 130-record replay.
	if rec := st2.Stats().RecoveredRecords; rec != 130 {
		t.Errorf("RecoveredRecords = %d, want 130 (snapshot pairs, nothing replayed)", rec)
	}
}

// TestDurableTamperedSnapshotFallsBack is the reason two snapshot
// generations are retained: flipping a byte in the newest snapshot must
// not cost any committed data. Under Quarantine the store comes up
// degraded but complete — older snapshot plus the retained WAL above it
// — and under FailStop the open refuses.
func TestDurableTamperedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.IntegrityPolicy = Quarantine
	st := mustOpen(t, opts)
	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 50)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(50, 70)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(70, 80) // tail records beyond the newest snapshot
	want := dump(t, st)
	mustClose(t, st)

	// Flip one byte in the newest snapshot.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.seal"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots = %v (err %v), want 2 generations", snaps, err)
	}
	newest := snaps[len(snaps)-1] // glob sorts ascending; highest covered last
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// FailStop: tampered snapshot refuses the open.
	fs := opts
	fs.IntegrityPolicy = FailStop
	if _, err := Open(fs); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("FailStop open of tampered snapshot: %v, want ErrIntegrity", err)
	}

	// Quarantine: degraded but with the complete committed state.
	st2 := mustOpen(t, opts)
	defer mustClose(t, st2)
	stats := st2.Stats()
	if stats.IntegrityFailures == 0 {
		t.Error("IntegrityFailures = 0 after skipping a tampered snapshot")
	}
	if stats.Health() != HealthDegraded {
		t.Errorf("Health = %v, want degraded", stats.Health())
	}
	if got := dump(t, st2); !mapsEqual(got, want) {
		t.Fatalf("fallback recovery lost data: %d keys recovered, want %d", len(got), len(want))
	}
}

// TestDurableRejectsUnframeableMaxKeySize pins the WAL framing guard: a
// durable store must refuse a MaxKeySize the uint16 key-length prefix
// cannot represent (silent key/value re-splitting on replay otherwise),
// while the purely in-memory store is free to allow it.
func TestDurableRejectsUnframeableMaxKeySize(t *testing.T) {
	opts := durableOpts(t.TempDir())
	opts.MaxKeySize = 1 << 16
	if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "MaxKeySize") {
		t.Fatalf("durable Open with MaxKeySize 65536: err = %v, want framing-limit error", err)
	}
	opts.Shards = 2
	if _, err := Open(opts); err == nil {
		t.Fatal("sharded durable Open with MaxKeySize 65536 succeeded")
	}
	if _, err := encodeWalRecord(walOpPut, make([]byte, 1<<16), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("encodeWalRecord oversize key: %v, want ErrTooLarge", err)
	}
}

func TestDurableBackgroundCheckpointer(t *testing.T) {
	opts := durableOpts(t.TempDir())
	opts.CheckpointEvery = 10
	st := mustOpen(t, opts)
	defer mustClose(t, st)

	for i := 0; i < 40; i++ {
		if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDurableBackgroundCheckpointFailureSurfaces breaks the snapshot
// directory under a running store: the background run must fail cleanly —
// counted, timed, no run record left, the lineage where it was — keep
// serving, and hand the error to Close.
func TestDurableBackgroundCheckpointFailureSurfaces(t *testing.T) {
	opts := durableOpts(t.TempDir())
	opts.CheckpointEvery = 10
	opts.Metrics = obs.NewRegistry()
	st := mustOpen(t, opts)
	s := st.(*shard)
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.dur.dir = filepath.Join(blocker, "not-a-dir") // snapshots only: the log keeps its own path
	s.mu.Unlock()
	for i := 0; i < 10; i++ {
		if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.ins.bgCkptErrs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the failed background checkpoint was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if v, err := st.Get([]byte("key-00003")); err != nil || string(v) != "v" {
		t.Fatalf("store stopped serving after a failed checkpoint: %q, %v", v, err)
	}
	if stats := st.Stats(); stats.Checkpoints != 0 {
		t.Fatalf("Checkpoints = %d after a failed run", stats.Checkpoints)
	}
	s.mu.Lock()
	run, hasSnap := s.run, s.dur.hasSnap
	s.mu.Unlock()
	if run != nil || hasSnap {
		t.Fatalf("failed run left state behind: run %v, hasSnap %v", run, hasSnap)
	}
	if err := st.Close(); err == nil || !strings.Contains(err.Error(), "write snapshot") {
		t.Fatalf("Close = %v, want the background checkpoint's failure", err)
	}
}

func TestDurableTamperedWALFailStop(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	st := mustOpen(t, opts)
	for i := 0; i < 20; i++ {
		if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, st)

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no wal segment written")
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(opts)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("FailStop open of tampered wal: err = %v, want ErrIntegrity", err)
	}
}

func TestDurableTamperedWALQuarantineSalvages(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.IntegrityPolicy = Quarantine
	st := mustOpen(t, opts)
	for i := 0; i < 20; i++ {
		if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, st)

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the back half: a prefix must survive.
	data[len(data)*3/4] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, opts)
	defer mustClose(t, st2)
	stats := st2.Stats()
	if stats.IntegrityFailures == 0 {
		t.Error("IntegrityFailures = 0 after salvaging a tampered wal")
	}
	if stats.Health() != HealthDegraded {
		t.Errorf("Health = %v, want degraded", stats.Health())
	}
	if stats.RecoveredRecords == 0 {
		t.Error("no prefix salvaged")
	}
	// The salvaged store accepts new writes and survives another cycle.
	if err := st2.Put([]byte("after-salvage"), []byte("ok")); err != nil {
		t.Fatalf("put after salvage: %v", err)
	}
}

func TestDurableShardedRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.Shards = 4
	st := mustOpen(t, opts)
	for i := 0; i < 200; i++ {
		if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, st)

	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%d", i))); err != nil {
			t.Errorf("shard-%d lineage dir missing: %v", i, err)
		}
	}

	st2 := mustOpen(t, opts)
	defer mustClose(t, st2)
	for i := 0; i < 200; i++ {
		v, err := st2.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("get %d after sharded reopen: %v", i, err)
		}
	}
	if rec := st2.Stats().RecoveredRecords; rec != 200 {
		t.Errorf("aggregate RecoveredRecords = %d, want 200", rec)
	}
	if err := st2.Checkpoint(); err != nil {
		t.Fatalf("sharded checkpoint: %v", err)
	}
	if ck := st2.Stats().Checkpoints; ck != 4 {
		t.Errorf("aggregate Checkpoints = %d, want 4 (one per shard)", ck)
	}
}

// TestDurableShardManifest pins the sealed shard manifest: a durable
// sharded store records its shard count in DataDir, and every reopen —
// with a different count, as an unsharded store, after the manifest is
// deleted, or after it is tampered with — fails loudly instead of
// recovering lineages under the wrong router and stranding keys.
func TestDurableShardManifest(t *testing.T) {
	newShardedDir := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		opts := durableOpts(dir)
		opts.Shards = 4
		st := mustOpen(t, opts)
		for i := 0; i < 40; i++ {
			if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		mustClose(t, st)
		return dir
	}

	t.Run("shard-count-mismatch", func(t *testing.T) {
		dir := newShardedDir(t)
		opts := durableOpts(dir)
		opts.Shards = 2
		if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "4-shard") {
			t.Fatalf("reopen with Shards=2 of a 4-shard dir: %v, want shard-count error", err)
		}
	})

	t.Run("unsharded-reopen", func(t *testing.T) {
		dir := newShardedDir(t)
		if _, err := Open(durableOpts(dir)); err == nil || !strings.Contains(err.Error(), "4-shard") {
			t.Fatalf("unsharded reopen of a 4-shard dir: %v, want shard-count error", err)
		}
	})

	t.Run("deleted-manifest", func(t *testing.T) {
		dir := newShardedDir(t)
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		opts := durableOpts(dir)
		opts.Shards = 4
		if _, err := Open(opts); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("sharded reopen without manifest: %v, want ErrIntegrity", err)
		}
		// The unsharded path must refuse too: it would otherwise start an
		// empty top-level lineage over the shard subdirectories.
		if _, err := Open(durableOpts(dir)); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("unsharded reopen without manifest: %v, want ErrIntegrity", err)
		}
	})

	t.Run("tampered-manifest", func(t *testing.T) {
		dir := newShardedDir(t)
		path := filepath.Join(dir, manifestName)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := durableOpts(dir)
		opts.Shards = 4
		if _, err := Open(opts); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("reopen with tampered manifest: %v, want ErrIntegrity", err)
		}
	})

	t.Run("sharded-over-single", func(t *testing.T) {
		dir := t.TempDir()
		st := mustOpen(t, durableOpts(dir))
		if err := st.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		mustClose(t, st)
		opts := durableOpts(dir)
		opts.Shards = 4
		if _, err := Open(opts); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("sharded open of an unsharded dir: %v, want ErrIntegrity", err)
		}
		// The original unsharded layout stays manifest-free and reopens.
		st2 := mustOpen(t, durableOpts(dir))
		mustClose(t, st2)
	})
}

func TestDurableNotDurableSentinel(t *testing.T) {
	opts := durableOpts("")
	opts.DataDir = ""

	// Unsharded: Close stops the expiry sweeper, but Checkpoint reports
	// the sentinel and there is no lineage to replicate.
	plain := mustOpen(t, opts)
	if err := plain.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Errorf("non-durable Checkpoint: %v, want ErrNotDurable", err)
	}
	if n := plain.WALShards(); n != 0 {
		t.Errorf("non-durable WALShards = %d, want 0", n)
	}
	if err := plain.Close(); err != nil {
		t.Errorf("non-durable Close: %v, want nil no-op", err)
	}

	// Sharded: the router reports the sentinel per shard.
	so := opts
	so.Shards = 2
	sh := mustOpen(t, so)
	if err := sh.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Errorf("sharded non-durable Checkpoint: %v, want ErrNotDurable", err)
	}
	if n := sh.WALShards(); n != 0 {
		t.Errorf("sharded non-durable WALShards = %d, want 0", n)
	}
	if err := sh.Close(); err != nil {
		t.Errorf("sharded non-durable Close: %v, want nil no-op", err)
	}
}

func TestDurableSealingIsCharged(t *testing.T) {
	base := durableOpts("")
	base.DataDir = ""
	dry := mustOpen(t, base)

	wet := mustOpen(t, durableOpts(t.TempDir()))
	defer mustClose(t, wet)

	run := func(st Store) Stats {
		for i := 0; i < 50; i++ {
			if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		return st.Stats()
	}
	ds, ws := run(dry), run(wet)
	if ws.Ocalls <= ds.Ocalls {
		t.Errorf("durable Ocalls %d not above in-memory %d (sealing boundary unpriced)", ws.Ocalls, ds.Ocalls)
	}
	if ws.MACs <= ds.MACs {
		t.Errorf("durable MACs %d not above in-memory %d", ws.MACs, ds.MACs)
	}
	if ws.CTROps <= ds.CTROps {
		t.Errorf("durable CTROps %d not above in-memory %d", ws.CTROps, ds.CTROps)
	}
	if ws.SimCycles <= ds.SimCycles {
		t.Errorf("durable SimCycles %d not above in-memory %d", ws.SimCycles, ds.SimCycles)
	}
}

func TestDurableMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	opts := durableOpts(t.TempDir())
	opts.Metrics = reg
	st := mustOpen(t, opts)
	defer mustClose(t, st)

	for i := 0; i < 30; i++ {
		if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		metricWALAppends, metricWALRecords, metricWALBytes,
		metricWALFsyncs, metricCheckpoints, metricCheckpointWallNs,
		metricCheckpointStallNs, metricCkptPreimages, metricBackgroundErrors,
		metricRecoveredRecords,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("family %s missing from scrape", family)
		}
	}
	if !strings.Contains(text, metricWALRecords+`{shard="0"} 30`) {
		t.Errorf("wal records total not 30 in scrape:\n%s", grepMetric(text, metricWALRecords))
	}
	if !strings.Contains(text, metricCheckpoints+`{shard="0"} 1`) {
		t.Errorf("checkpoints total not 1 in scrape:\n%s", grepMetric(text, metricCheckpoints))
	}
}

// grepMetric pulls one family's lines out of a scrape for error output.
func grepMetric(text, family string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, family) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
