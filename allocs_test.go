package aria

import (
	"testing"
	"unsafe"

	"github.com/ariakv/aria/obs"
)

// TestOpPathAllocs pins the heap allocations of one Get and one Put
// (overwriting a resident key) at each depth of the op path: nothing on
// the path — the op value, the stage helpers, the instruments — may
// escape to the heap per operation. Most of each number is the engine's:
// one CTR stream per entry or tree node decrypted or sealed, and the
// returned copy. The path's own share is the key string of each row it
// writes and, when durable, the WAL record. The decorator stack this path
// replaced measured aria-h Get 5 / Put 9 in memory, Put 20 durable, Get 6
// / Put 21 with ColdCompress; the reusable CMAC took two allocations off
// each engine op. The tree rows run on 256 keys: aria-t Get stops
// at the level holding the key, aria-bp Get always reaches a leaf, and
// each costs at most one CTR stream per level plus the copy (they made
// 19 / 23 and 27 / 29 before tree nodes were recycled).
func TestOpPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     func(o *Options)
		get, put float64
	}{
		{"memory", func(o *Options) {}, 3, 5},
		{"memory+shards+metrics", func(o *Options) { o.Shards, o.Metrics = 2, obs.NewRegistry() }, 3, 5},
		{"durable", func(o *Options) { o.DataDir = t.TempDir() }, 3, 14},
		{"durable+cold", func(o *Options) { o.DataDir, o.ColdCompress = t.TempDir(), true }, 3, 14},
		{"aria-t", func(o *Options) { o.Scheme = AriaTree }, 3, 4},
		{"aria-bp", func(o *Options) { o.Scheme = AriaBPTree }, 4, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Scheme: AriaHash, EPCBytes: 16 << 20, ExpectedKeys: 1024, Seed: 5, Fsync: FsyncNever}
			tc.opts(&opts)
			st := mustOpenPlain(t, opts)
			for i := 0; i < 256; i++ {
				if err := st.Put(testKey(i), testValue(i)); err != nil {
					t.Fatal(err)
				}
			}
			key, value := testKey(17), testValue(18)
			get := testing.AllocsPerRun(500, func() {
				if _, err := st.Get(key); err != nil {
					t.Fatal(err)
				}
			})
			put := testing.AllocsPerRun(500, func() {
				if err := st.Put(key, value); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("allocs/op: Get %v, Put %v", get, put)
			if get > tc.get || put > tc.put {
				t.Errorf("allocs/op: Get %v (budget %v), Put %v (budget %v)", get, tc.get, put, tc.put)
			}
		})
	}
}

// TestKeyRecSize pins the per-key table's row at 16 bytes: a shard with
// a million keys and none of the optional state (store_b_big in
// benchmarks/) must pay no more heap per key than a version and a
// deadline cost.
func TestKeyRecSize(t *testing.T) {
	if got := unsafe.Sizeof(keyRec{}); got != 16 {
		t.Fatalf("keyRec is %d bytes, want 16", got)
	}
}
