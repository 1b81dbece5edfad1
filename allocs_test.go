package aria

import (
	"testing"
	"unsafe"

	"github.com/ariakv/aria/obs"
)

// TestOpPathAllocs pins the heap allocations of one Get and one Put
// (aria-h, overwriting a resident key) at each depth of the op path:
// nothing on the path — the op value, the stage helpers, the instruments
// — may escape to the heap per operation. Most of each number is the
// engine's (sealing buffers, the returned copy); the path's own share is
// the key string of each row it writes and, when durable, the WAL
// record. The decorator stack this path replaced measured Get 5 / Put 9
// in memory at either depth, Put 20 durable, Get 6 / Put 21 with
// ColdCompress; a budget never rises above those.
func TestOpPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     func(o *Options)
		get, put float64
	}{
		{"memory", func(o *Options) {}, 5, 9},
		{"memory+shards+metrics", func(o *Options) { o.Shards, o.Metrics = 2, obs.NewRegistry() }, 5, 9},
		{"durable", func(o *Options) { o.DataDir = t.TempDir() }, 5, 19},
		{"durable+cold", func(o *Options) { o.DataDir, o.ColdCompress = t.TempDir(), true }, 5, 19},
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
