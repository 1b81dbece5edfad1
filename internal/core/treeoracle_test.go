package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/ariakv/aria/internal/sgx"
)

// Oracles for the tree indexes' node path. TestBTreeCostFingerprint pins
// every outcome and every simulated charge of a long seeded op mix, so a
// host-side change to how nodes are opened and sealed (buffers, MAC
// kernel) must leave the simulated clock byte for byte where it was. The
// reuse-safety tests pin what such a change must not break: no value
// handed to a caller, and no caller buffer handed to the store, may alias
// memory the index reuses, and a failed open must leave nothing behind.

// treeKinds lists the two tree indexes, whose nodes are sealed items.
var treeKinds = []IndexKind{BTreeIndex, BPTreeIndex}

// treeCostGolden holds each tree index's fingerprint over outcomes and
// enclave statistics, recorded before the node arena and the chained
// CMAC existed.
var treeCostGolden = map[IndexKind]uint64{
	BTreeIndex:  0xa2d1c7125e535929,
	BPTreeIndex: 0x243a6d1af932ea9e,
}

// treeHeight reads the trusted height of a tree index.
func treeHeight(e *Engine) int {
	switch idx := e.idx.(type) {
	case *btreeIndex:
		return idx.height
	case *bptreeIndex:
		return idx.height
	}
	return 0
}

// TestBTreeCostFingerprint runs 5 000 keys through a seeded Put/Get/
// Delete mix deep enough for a tree of height ≥ 3, sibling borrows and
// merges, relocating reseals and root shrinks, and folds every outcome
// and the enclave's statistics after every op into one hash.
func TestBTreeCostFingerprint(t *testing.T) {
	const keys = 5000
	for _, kind := range treeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := newEngine(t, Options{Index: kind, Seed: 34})
			rng := rand.New(rand.NewSource(34))
			h := fnv.New64a()
			val := func(i int) []byte {
				v := make([]byte, 1+rng.Intn(300))
				for j := range v {
					v[j] = byte(i + j)
				}
				return v
			}
			fold := func(op string, i int, v []byte, err error) {
				class := "ok"
				switch {
				case errors.Is(err, ErrNotFound):
					class = "notfound"
				case err != nil:
					t.Fatalf("%s %d: %v", op, i, err)
				}
				fmt.Fprintf(h, "%s %d %s %x|%+v\n", op, i, class, v, e.enc.Stats())
			}
			maxHeight := 0
			put := func(i int) {
				err := e.Put(key(i), val(i))
				fold("put", i, nil, err)
				if ht := treeHeight(e); ht > maxHeight {
					maxHeight = ht
				}
			}
			get := func(i int) {
				v, err := e.Get(key(i))
				fold("get", i, v, err)
			}
			del := func(i int) { fold("del", i, nil, e.Delete(key(i))) }

			for _, i := range rng.Perm(keys) {
				put(i)
			}
			for n := 0; n < 6000; n++ {
				i := rng.Intn(keys + keys/5)
				switch r := rng.Intn(100); {
				case r < 45:
					put(i)
				case r < 80:
					get(i)
				default:
					del(i)
				}
			}
			peak := maxHeight
			for _, i := range rng.Perm(keys + keys/5)[:keys] {
				del(i)
			}
			for i := 0; i < keys+keys/5; i++ {
				get(i)
			}
			if err := e.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "final %+v\n", e.Stats())
			t.Logf("peak height %d, final %d", peak, treeHeight(e))
			if peak < 3 {
				t.Fatalf("peak height %d, want ≥ 3", peak)
			}
			if ht := treeHeight(e); ht >= peak {
				t.Fatalf("height %d after deleting most keys, peak %d: no merge shrank the root", ht, peak)
			}
			if got := h.Sum64(); got != treeCostGolden[kind] {
				t.Errorf("%s fingerprint %#x, golden %#x", kind, got, treeCostGolden[kind])
			}
		})
	}
}

// treeLeaf is one leaf as the host sees it: its block, sealed size and
// the keys the enclave would find in it.
type treeLeaf struct {
	block sgx.UPtr
	size  int
	keys  [][]byte
}

// treeLeaves walks a tree index and returns its leaves in key order.
func treeLeaves(t *testing.T, e *Engine) []treeLeaf {
	t.Helper()
	var root sgx.UPtr
	open := func(b sgx.UPtr) (bool, [][]byte, []sgx.UPtr) {
		switch idx := e.idx.(type) {
		case *btreeIndex:
			n, err := idx.openNode(b)
			if err != nil {
				t.Fatal(err)
			}
			return n.leaf, n.keys, n.children
		case *bptreeIndex:
			n, err := idx.openBPNode(b)
			if err != nil {
				t.Fatal(err)
			}
			return n.leaf, n.keys, n.children
		}
		t.Fatal("not a tree index")
		return false, nil, nil
	}
	switch idx := e.idx.(type) {
	case *btreeIndex:
		root = idx.root
	case *bptreeIndex:
		root = idx.root
	}
	var out []treeLeaf
	var walk func(b sgx.UPtr)
	walk = func(b sgx.UPtr) {
		leaf, keys, children := open(b)
		if leaf {
			l := treeLeaf{block: b, size: tnOverhead + int(binary.LittleEndian.Uint32(e.enc.UBytesRaw(b+tnOffPayLen, 4)))}
			for _, k := range keys {
				l.keys = append(l.keys, append([]byte(nil), k...))
			}
			out = append(out, l)
			return
		}
		for _, c := range append([]sgx.UPtr(nil), children...) {
			walk(c)
		}
	}
	walk(root)
	return out
}

// fillTree loads n keys and returns the engine.
func fillTree(t *testing.T, kind IndexKind, n int) *Engine {
	t.Helper()
	e := newEngine(t, Options{Index: kind})
	for i := 0; i < n; i++ {
		if err := e.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func mustGet(t *testing.T, e *Engine, k, want []byte) {
	t.Helper()
	got, err := e.Get(k)
	if err != nil {
		t.Fatalf("Get(%s): %v", k, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(%s) = %q, want %q", k, got, want)
	}
}

// TestTreeGetResultNotAliased holds values returned by Get across 1 000
// further ops, splits, merges and reseals among them: each must still
// read as it did, so no returned value shares memory with a node buffer
// the index reuses.
func TestTreeGetResultNotAliased(t *testing.T) {
	for _, kind := range treeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := fillTree(t, kind, 600)
			rng := rand.New(rand.NewSource(7))
			held := map[int][]byte{}
			want := map[int][]byte{}
			for _, i := range []int{0, 1, 150, 299, 300, 451, 599} {
				v, err := e.Get(key(i))
				if err != nil {
					t.Fatal(err)
				}
				held[i], want[i] = v, append([]byte(nil), v...)
			}
			for n := 0; n < 1000; n++ {
				i := rng.Intn(900)
				switch rng.Intn(3) {
				case 0:
					_ = e.Put(key(i), bytes.Repeat([]byte{byte(n)}, 1+rng.Intn(40)))
				case 1:
					_, _ = e.Get(key(i))
				default:
					_ = e.Delete(key(i))
				}
			}
			for i, v := range held {
				if !bytes.Equal(v, want[i]) {
					t.Errorf("value of %s returned earlier now reads %q, was %q", key(i), v, want[i])
				}
			}
		})
	}
}

// TestTreePutCopiesCallerBuffers writes every pair from one reused key
// buffer and one reused value buffer, then scribbles over both: what the
// store holds must not change.
func TestTreePutCopiesCallerBuffers(t *testing.T) {
	for _, kind := range treeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := newEngine(t, Options{Index: kind})
			kbuf, vbuf := make([]byte, 0, 64), make([]byte, 0, 64)
			for i := 0; i < 500; i++ {
				kbuf = append(kbuf[:0], key(i)...)
				vbuf = append(vbuf[:0], value(i)...)
				if err := e.Put(kbuf, vbuf); err != nil {
					t.Fatal(err)
				}
				for j := range vbuf {
					vbuf[j] = 'x'
				}
			}
			kbuf = kbuf[:cap(kbuf)]
			for j := range kbuf {
				kbuf[j] = 'k'
			}
			for i := 0; i < 500; i++ {
				mustGet(t, e, key(i), value(i))
			}
			if err := e.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTreeFailedOpenLeavesNoNodeOut tampers with, replays and relocates
// one leaf. Each attack must fail the Get that reaches the leaf with
// ErrIntegrity and a nil value, and the next Get of a key in another leaf
// must still be correct: a failed open hands out no node that a later
// operation could find.
func TestTreeFailedOpenLeavesNoNodeOut(t *testing.T) {
	for _, kind := range treeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := fillTree(t, kind, 400)
			leaves := treeLeaves(t, e)
			if len(leaves) < 3 {
				t.Fatalf("%d leaves, want ≥ 3", len(leaves))
			}
			// a is attacked, b supplies a relocated image, c is untouched.
			var a, b treeLeaf
			found := false
			for i := range leaves {
				for j := range leaves {
					if i != j && e.heap.BlockSize(leaves[i].block) >= leaves[j].size {
						a, b, found = leaves[i], leaves[j], true
						break
					}
				}
				if found {
					break
				}
			}
			if !found {
				t.Fatal("no leaf can hold another's image")
			}
			var c treeLeaf
			for _, l := range leaves {
				if l.block != a.block && l.block != b.block {
					c = l
					break
				}
			}
			victim, other := a.keys[0], c.keys[len(c.keys)-1]
			idx := func(k []byte) int {
				var i int
				if _, err := fmt.Sscanf(string(k), "key-%08d", &i); err != nil {
					t.Fatal(err)
				}
				return i
			}
			orig := append([]byte(nil), e.enc.UBytesRaw(a.block, e.heap.BlockSize(a.block))...)
			restore := func() { copy(e.enc.UBytesRaw(a.block, len(orig)), orig) }
			expectFail := func(attack string) {
				t.Helper()
				v, err := e.Get(victim)
				if !errors.Is(err, ErrIntegrity) || v != nil {
					t.Fatalf("%s: Get = %q, %v; want nil, ErrIntegrity", attack, v, err)
				}
				mustGet(t, e, other, value(idx(other)))
			}

			e.enc.UBytesRaw(a.block+tnOffPay+1, 1)[0] ^= 0x40
			expectFail("tamper")
			restore()
			mustGet(t, e, victim, value(idx(victim)))

			copy(e.enc.UBytesRaw(a.block, b.size), e.enc.UBytesRaw(b.block, b.size))
			expectFail("relocate")
			restore()
			mustGet(t, e, victim, value(idx(victim)))

			fresh := bytes.ToUpper(value(idx(victim)))
			if err := e.Put(victim, fresh); err != nil {
				t.Fatal(err)
			}
			restore() // the leaf's image from before the Put: a replay
			expectFail("replay")
			if err := e.VerifyIntegrity(); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("audit after replay: %v, want ErrIntegrity", err)
			}
		})
	}
}
