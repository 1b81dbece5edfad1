package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// fakeShard is an ordered in-memory map with Store.Scan semantics,
// including the only-valid-during-the-call slice contract (it reuses one
// buffer across callbacks so aliasing bugs in Merge surface immediately).
type fakeShard struct {
	keys   []string
	vals   map[string]string
	scans  int // bounded scans issued (merge refills)
	failAt string
}

func newFakeShard(pairs map[string]string) *fakeShard {
	f := &fakeShard{vals: pairs}
	for k := range pairs {
		f.keys = append(f.keys, k)
	}
	sort.Strings(f.keys)
	return f
}

var errShardBroken = errors.New("shard scan failed")

func (f *fakeShard) scan(start, end []byte, fn func(k, v []byte) bool) error {
	f.scans++
	buf := make([]byte, 0, 64)
	for _, k := range f.keys {
		if start != nil && k < string(start) {
			continue
		}
		if end != nil && k >= string(end) {
			break
		}
		if f.failAt != "" && k >= f.failAt {
			return errShardBroken
		}
		buf = append(buf[:0], k...)
		if !fn(buf, []byte(f.vals[k])) {
			return nil
		}
	}
	return nil
}

// buildShards partitions count keys across n fake shards with the real
// router, returning the shards and the globally sorted key list.
func buildShards(n, count int) ([]*fakeShard, []string) {
	r := NewRouter(n)
	parts := make([]map[string]string, n)
	for i := range parts {
		parts[i] = make(map[string]string)
	}
	var all []string
	for i := 0; i < count; i++ {
		k := fmt.Sprintf("mk-%05d", i)
		parts[r.Pick([]byte(k))][k] = "v" + k
		all = append(all, k)
	}
	sort.Strings(all)
	shards := make([]*fakeShard, n)
	for i := range shards {
		shards[i] = newFakeShard(parts[i])
	}
	return shards, all
}

func scanFuncs(shards []*fakeShard) []ScanFunc {
	out := make([]ScanFunc, len(shards))
	for i, s := range shards {
		out[i] = s.scan
	}
	return out
}

func TestMergeGlobalOrderNoDuplicates(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1, 3, 64} {
			shards, want := buildShards(n, 500)
			var got []string
			prev := ""
			err := Merge(scanFuncs(shards), nil, nil, batch, func(k, v []byte) bool {
				ks := string(k)
				if prev != "" && ks <= prev {
					t.Fatalf("n=%d batch=%d: order violated: %q after %q", n, batch, ks, prev)
				}
				if string(v) != "v"+ks {
					t.Fatalf("n=%d batch=%d: key %q got value %q", n, batch, ks, v)
				}
				prev = ks
				got = append(got, ks)
				return true
			})
			if err != nil {
				t.Fatalf("n=%d batch=%d: %v", n, batch, err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d batch=%d: delivered %d keys, want %d", n, batch, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d batch=%d: key %d = %q, want %q", n, batch, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergeRangeBounds(t *testing.T) {
	shards, all := buildShards(4, 300)
	start, end := []byte(all[50]), []byte(all[120])
	var got []string
	if err := Merge(scanFuncs(shards), start, end, 7, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := all[50:120] // start inclusive, end exclusive
	if len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
		t.Fatalf("range merge delivered %d keys [%s..%s], want %d [%s..%s]",
			len(got), got[0], got[len(got)-1], len(want), want[0], want[len(want)-1])
	}
}

func TestMergeEarlyStop(t *testing.T) {
	shards, _ := buildShards(4, 300)
	seen := 0
	if err := Merge(scanFuncs(shards), nil, nil, 8, func(k, v []byte) bool {
		seen++
		return seen < 25
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 25 {
		t.Errorf("early stop delivered %d pairs, want 25", seen)
	}
	// After the stop, no shard may be scanned again: count total bounded
	// scans and re-merge to confirm no state leaked (fresh cursors).
	total := 0
	for _, s := range shards {
		total += s.scans
	}
	if total > 4+4 { // initial fill (4) plus at most one refill each
		t.Errorf("early-stopped merge issued %d bounded scans", total)
	}
}

func TestMergeShardErrorPropagates(t *testing.T) {
	shards, all := buildShards(4, 200)
	// Break one shard partway through its own keyspace.
	victim := shards[2]
	if len(victim.keys) < 4 {
		t.Fatal("victim shard too small for the test")
	}
	victim.failAt = victim.keys[len(victim.keys)/2]

	prev := ""
	delivered := 0
	err := Merge(scanFuncs(shards), nil, nil, 5, func(k, v []byte) bool {
		ks := string(k)
		if prev != "" && ks <= prev {
			t.Fatalf("order violated before error: %q after %q", ks, prev)
		}
		prev = ks
		delivered++
		return true
	})
	if !errors.Is(err, errShardBroken) {
		t.Fatalf("merge error = %v, want errShardBroken", err)
	}
	if delivered == 0 || delivered >= len(all) {
		t.Errorf("delivered %d of %d pairs before the error", delivered, len(all))
	}
}

func TestMergeSingleShardPassThrough(t *testing.T) {
	// With one shard the merge must not copy: the callback sees the
	// shard's own (reused) buffer, same as scanning the store directly.
	shards, _ := buildShards(1, 50)
	var first []byte
	aliased := false
	if err := Merge(scanFuncs(shards), nil, nil, 0, func(k, v []byte) bool {
		if first == nil {
			first = k
		} else if &first[0] == &k[0] {
			aliased = true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !aliased {
		t.Error("single-shard merge copied pairs instead of passing through")
	}
	if shards[0].scans != 1 {
		t.Errorf("single-shard merge issued %d scans, want 1", shards[0].scans)
	}
}

func TestMergeTieBreaksByShardIndex(t *testing.T) {
	// Partitioned keyspaces never tie, but the merge must still be
	// deterministic and lossless if streams overlap.
	a := newFakeShard(map[string]string{"dup": "from-a", "a1": "va"})
	b := newFakeShard(map[string]string{"dup": "from-b", "z1": "vz"})
	var got []string
	if err := Merge([]ScanFunc{a.scan, b.scan}, nil, nil, 4, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1=va", "dup=from-a", "dup=from-b", "z1=vz"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMergeCopiesSurviveCallback(t *testing.T) {
	// Multi-shard merges buffer pairs; the slices handed to the callback
	// must not be clobbered by the shard's buffer reuse mid-batch.
	shards, _ := buildShards(4, 100)
	var keys [][]byte
	if err := Merge(scanFuncs(shards), nil, nil, 16, func(k, v []byte) bool {
		keys = append(keys, k) // retain without copying: merge owns these
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("retained key %d (%q) clobbered (prev %q)", i, keys[i], keys[i-1])
		}
	}
}
