package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/ariakv/aria/internal/sgx"
)

// bptreeIndex implements the B+-tree index the paper leaves as future work
// (§VII "Supporting for B+-tree-based Index"): interior nodes hold router
// keys only, all KV pairs live in leaves, and the store supports verified
// range scans.
//
// Protection matches Aria-T: every node (leaf or interior) is an encrypted,
// MAC-protected item with its own counter in the Merkle tree, and the MAC
// covers the node's untrusted block address, so the host can neither rewire
// nor splice nodes.
//
// Scans walk leaves by repeated root descent (O(log n) per leaf) rather
// than through sibling pointers. Leaves relocate whenever a reseal outgrows
// their heap block, and a physical next-leaf pointer would dangle across
// parents on every such move; descending again through MAC-verified
// interior nodes sidesteps the whole class of chain-splicing attacks and
// repair bookkeeping at a modest logarithmic cost.
//
// Node blocks use the shared tree layout (node.go); only the payload
// differs from Aria-T's:
//
//	leaf:     flags(1)=1 nkeys(2) { klen(2) vlen(2) key value }*
//	interior: flags(1)=0 nkeys(2) { klen(2) key }*  children (nkeys+1)*8
type bptreeIndex struct {
	nodes  nodeStore
	t      int // minimum degree: leaves hold t-1..2t-1 pairs
	root   sgx.UPtr
	height int
	live   int
}

func newBPTreeIndex(e *Engine) (*bptreeIndex, error) {
	return &bptreeIndex{nodes: nodeStore{e: e, what: "b+tree"}, t: e.opts.BTreeDegree}, nil
}

func (bp *bptreeIndex) maxKeys() int { return 2*bp.t - 1 }

// openBPNode verifies, decrypts and decodes the node at block.
func (bp *bptreeIndex) openBPNode(block sgx.UPtr) (*tnode, error) {
	n, err := bp.nodes.open(block)
	if err != nil {
		return nil, err
	}
	nkeys := n.nkeys()
	var off int
	if n.leaf {
		off = n.decodePairs(3, nkeys)
	} else if off = n.decodeRouters(3, nkeys); off >= 0 {
		off = n.decodeChildren(off, nkeys+1)
	}
	if off < 0 {
		return nil, truncated(block)
	}
	return n, nil
}

// sealBPNode encodes, encrypts, MACs, and writes n, relocating if needed.
func (bp *bptreeIndex) sealBPNode(n *tnode) (sgx.UPtr, error) {
	paylen := 3
	if n.leaf {
		paylen += n.pairsLen()
	} else {
		for _, k := range n.keys {
			paylen += 2 + len(k)
		}
		paylen += len(n.children) * 8
	}
	pay, err := bp.nodes.sealStart(n, paylen)
	if err != nil {
		return sgx.NilU, err
	}
	if n.leaf {
		n.encodePairs(pay, 3)
	} else {
		n.encodeChildren(pay, n.encodeRouters(pay, 3))
	}
	return bp.nodes.sealFinish(n, paylen), nil
}

// decodeRouters appends count { klen(2) key } router keys read at off;
// see decodePairs.
func (n *tnode) decodeRouters(off, count int) int {
	pay := n.pay
	for i := 0; i < count; i++ {
		if off+2 > len(pay) {
			return -1
		}
		kl := int(binary.LittleEndian.Uint16(pay[off:]))
		off += 2
		if off+kl > len(pay) {
			return -1
		}
		n.keys = append(n.keys, pay[off:off+kl])
		off += kl
	}
	return off
}

// encodeRouters writes n's keys as router keys at pay[off:] and returns
// the offset after them.
func (n *tnode) encodeRouters(pay []byte, off int) int {
	for _, k := range n.keys {
		binary.LittleEndian.PutUint16(pay[off:], uint16(len(k)))
		off += 2 + copy(pay[off+2:], k)
	}
	return off
}

// routeChild returns the child slot to descend for key: interior keys are
// separators with child[i] covering keys < keys[i] and child[i+1] covering
// keys >= keys[i].
func routeChild(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (bp *bptreeIndex) get(key []byte) ([]byte, error) {
	if bp.root == sgx.NilU {
		return nil, ErrNotFound
	}
	defer bp.nodes.release(bp.nodes.mark())
	leaf, _, err := bp.findLeaf(key)
	if err != nil {
		return nil, err
	}
	pos, found := search(leaf.keys, key)
	if !found {
		return nil, ErrNotFound
	}
	out := make([]byte, len(leaf.vals[pos]))
	copy(out, leaf.vals[pos])
	return out, nil
}

// findLeaf descends to the leaf responsible for key, verifying every node.
// It also returns the leaf's upper separator bound — the smallest router key
// greater than the leaf's range, or nil on the rightmost path — which scans
// use to hop to the next leaf without sibling pointers. The bound points
// into a held interior node, so it lives as long as the leaf.
func (bp *bptreeIndex) findLeaf(key []byte) (*tnode, []byte, error) {
	cur := bp.root
	depth := 0
	var upper []byte
	for {
		n, err := bp.openBPNode(cur)
		if err != nil {
			return nil, nil, err
		}
		depth++
		if n.leaf {
			if depth != bp.height {
				return nil, nil, fmt.Errorf("%w: traversal depth %d != trusted height %d", ErrIntegrity, depth, bp.height)
			}
			return n, upper, nil
		}
		slot := routeChild(n.keys, key)
		if slot < len(n.keys) {
			upper = n.keys[slot]
		}
		cur = n.children[slot]
	}
}

func (bp *bptreeIndex) put(key, value []byte) error {
	defer bp.nodes.release(bp.nodes.mark())
	if bp.root == sgx.NilU {
		n := bp.nodes.fresh(true)
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, value)
		b, err := bp.sealBPNode(n)
		if err != nil {
			return err
		}
		bp.root = b
		bp.height = 1
		bp.live = 1
		return nil
	}
	nb, up, existed, err := bp.insertRec(bp.root, key, value)
	if err != nil {
		return err
	}
	bp.root = nb
	if up != nil {
		root := bp.nodes.fresh(false)
		root.keys = append(root.keys, up.key)
		root.children = append(root.children, bp.root, up.right)
		b, err := bp.sealBPNode(root)
		if err != nil {
			return err
		}
		bp.root = b
		bp.height++
	}
	if !existed {
		bp.live++
	}
	return nil
}

// bpSplit carries a separator promoted to the parent during insertion.
type bpSplit struct {
	key   []byte
	right sgx.UPtr
}

func (bp *bptreeIndex) insertRec(block sgx.UPtr, key, value []byte) (sgx.UPtr, *bpSplit, bool, error) {
	n, err := bp.openBPNode(block)
	if err != nil {
		return block, nil, false, err
	}
	if n.leaf {
		pos, found := search(n.keys, key)
		if found {
			n.vals[pos] = value
			nb, err := bp.sealBPNode(n)
			return nb, nil, true, err
		}
		n.keys = insertAt(n.keys, pos, key)
		n.vals = insertAt(n.vals, pos, value)
		if len(n.keys) <= bp.maxKeys() {
			nb, err := bp.sealBPNode(n)
			return nb, nil, false, err
		}
		// Leaf split: the right sibling's first key is COPIED up (B+
		// semantics); all pairs stay in leaves.
		mid := len(n.keys) / 2
		right := bp.nodes.fresh(true)
		right.keys = append(right.keys, n.keys[mid:]...)
		right.vals = append(right.vals, n.vals[mid:]...)
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		rb, err := bp.sealBPNode(right)
		if err != nil {
			return block, nil, false, err
		}
		nb, err := bp.sealBPNode(n)
		if err != nil {
			return block, nil, false, err
		}
		return nb, &bpSplit{key: right.keys[0], right: rb}, false, nil
	}
	slot := routeChild(n.keys, key)
	childBlock := n.children[slot]
	ncb, up, existed, err := bp.insertRec(childBlock, key, value)
	if err != nil {
		return block, nil, false, err
	}
	if ncb == childBlock && up == nil {
		return block, nil, existed, nil
	}
	n.children[slot] = ncb
	if up != nil {
		n.keys = insertAt(n.keys, slot, up.key)
		n.children = insertPtrAt(n.children, slot+1, up.right)
	}
	if len(n.keys) <= bp.maxKeys() {
		nb, err := bp.sealBPNode(n)
		return nb, nil, existed, err
	}
	// Interior split: the median separator MOVES up (not copied).
	mid := len(n.keys) / 2
	upKey := n.keys[mid]
	right := bp.nodes.fresh(false)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	rb, err := bp.sealBPNode(right)
	if err != nil {
		return block, nil, false, err
	}
	nb, err := bp.sealBPNode(n)
	if err != nil {
		return block, nil, false, err
	}
	return nb, &bpSplit{key: upKey, right: rb}, existed, nil
}

func (bp *bptreeIndex) delete(key []byte) error {
	if bp.root == sgx.NilU {
		return ErrNotFound
	}
	defer bp.nodes.release(bp.nodes.mark())
	nb, deleted, err := bp.deleteRec(bp.root, key)
	if err != nil {
		return err
	}
	bp.root = nb
	if !deleted {
		return ErrNotFound
	}
	bp.live--
	n, err := bp.openBPNode(bp.root)
	if err != nil {
		return err
	}
	if n.leaf && len(n.keys) == 0 {
		if err := bp.nodes.discard(n); err != nil {
			return err
		}
		bp.root = sgx.NilU
		bp.height = 0
	} else if !n.leaf && len(n.keys) == 0 {
		child := n.children[0]
		if err := bp.nodes.discard(n); err != nil {
			return err
		}
		bp.root = child
		bp.height--
	}
	return nil
}

// deleteRec removes key from the subtree, preemptively refilling the child
// it descends into (CLRS style adapted to B+ semantics: separators are
// router copies, so deleting a key never removes an interior entry except
// through merges).
func (bp *bptreeIndex) deleteRec(block sgx.UPtr, key []byte) (sgx.UPtr, bool, error) {
	n, err := bp.openBPNode(block)
	if err != nil {
		return block, false, err
	}
	if n.leaf {
		pos, found := search(n.keys, key)
		if !found {
			return block, false, nil
		}
		n.keys = removeAt(n.keys, pos)
		n.vals = removeAt(n.vals, pos)
		nb, err := bp.sealBPNode(n)
		return nb, true, err
	}
	slot := routeChild(n.keys, key)
	slot, err = bp.ensureChildFull(n, slot)
	if err != nil {
		return block, false, err
	}
	oldChild := n.children[slot]
	ncb, deleted, err := bp.deleteRec(oldChild, key)
	if err != nil {
		return block, false, err
	}
	if ncb == oldChild && !n.dirtyShape {
		return block, deleted, nil
	}
	n.children[slot] = ncb
	nb, err := bp.sealBPNode(n)
	return nb, deleted, err
}

// ensureChildFull guarantees n.children[pos] holds at least t entries,
// borrowing from siblings (updating separators) or merging. Returns the
// possibly shifted slot.
func (bp *bptreeIndex) ensureChildFull(n *tnode, pos int) (int, error) {
	child, err := bp.openBPNode(n.children[pos])
	if err != nil {
		return pos, err
	}
	if len(child.keys) >= bp.t {
		return pos, nil
	}
	n.dirtyShape = true
	if pos > 0 {
		left, err := bp.openBPNode(n.children[pos-1])
		if err != nil {
			return pos, err
		}
		if len(left.keys) >= bp.t {
			// Rotate right through the separator.
			if child.leaf {
				li := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, left.keys[li])
				child.vals = insertAt(child.vals, 0, left.vals[li])
				left.keys = left.keys[:li]
				left.vals = left.vals[:li]
				n.keys[pos-1] = child.keys[0]
			} else {
				child.keys = insertAt(child.keys, 0, n.keys[pos-1])
				li := len(left.keys) - 1
				n.keys[pos-1] = left.keys[li]
				left.keys = left.keys[:li]
				child.children = insertPtrAt(child.children, 0, left.children[len(left.children)-1])
				left.children = left.children[:len(left.children)-1]
			}
			if n.children[pos-1], err = bp.sealBPNode(left); err != nil {
				return pos, err
			}
			if n.children[pos], err = bp.sealBPNode(child); err != nil {
				return pos, err
			}
			return pos, nil
		}
	}
	if pos < len(n.children)-1 {
		right, err := bp.openBPNode(n.children[pos+1])
		if err != nil {
			return pos, err
		}
		if len(right.keys) >= bp.t {
			if child.leaf {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.keys = removeAt(right.keys, 0)
				right.vals = removeAt(right.vals, 0)
				n.keys[pos] = right.keys[0]
			} else {
				child.keys = append(child.keys, n.keys[pos])
				n.keys[pos] = right.keys[0]
				right.keys = removeAt(right.keys, 0)
				child.children = append(child.children, right.children[0])
				right.children = removePtrAt(right.children, 0)
			}
			if n.children[pos+1], err = bp.sealBPNode(right); err != nil {
				return pos, err
			}
			if n.children[pos], err = bp.sealBPNode(child); err != nil {
				return pos, err
			}
			return pos, nil
		}
		return pos, bp.mergeBP(n, pos, child, right)
	}
	left, err := bp.openBPNode(n.children[pos-1])
	if err != nil {
		return pos, err
	}
	return pos - 1, bp.mergeBP(n, pos-1, left, child)
}

// mergeBP folds children pos and pos+1 into the left one. For leaves the
// separator disappears (it was only a router copy); for interiors it moves
// down.
func (bp *bptreeIndex) mergeBP(n *tnode, pos int, left, right *tnode) error {
	n.dirtyShape = true
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
	} else {
		left.keys = append(left.keys, n.keys[pos])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	if err := bp.nodes.discard(right); err != nil {
		return err
	}
	nb, err := bp.sealBPNode(left)
	if err != nil {
		return err
	}
	n.keys = removeAt(n.keys, pos)
	n.children = removePtrAt(n.children, pos+1)
	n.children[pos] = nb
	return nil
}

func (bp *bptreeIndex) keys() int { return bp.live }

// scan emits every pair with start <= key < end (nil end = unbounded), in
// key order, while fn returns true. Leaves are reached by fresh verified
// descents; the upper separator bound returned by findLeaf identifies the
// next leaf's range, so the walk needs no (relocation-fragile) sibling
// pointers and every emitted pair has passed the full Merkle+MAC path.
func (bp *bptreeIndex) scan(start, end []byte, fn func(k, v []byte) bool) error {
	if bp.root == sgx.NilU {
		return nil
	}
	// Each descent's nodes go back to the arena once its leaf's pairs
	// are emitted (fn's slices are valid only during the call), so the
	// next leaf's lower bound is copied out of them first.
	mark := bp.nodes.mark()
	defer bp.nodes.release(mark)
	cursor := start
	var next []byte
	for {
		leaf, upper, err := bp.findLeaf(cursor)
		if err != nil {
			return err
		}
		for i, k := range leaf.keys {
			if cursor != nil && bytes.Compare(k, cursor) < 0 {
				continue
			}
			if end != nil && bytes.Compare(k, end) >= 0 {
				return nil
			}
			if !fn(k, leaf.vals[i]) {
				return nil
			}
		}
		if upper == nil {
			return nil // rightmost leaf reached
		}
		if end != nil && bytes.Compare(upper, end) >= 0 {
			return nil
		}
		// upper is the inclusive lower bound of the next leaf's range
		// and strictly greater than every key just emitted.
		next = append(next[:0], upper...)
		cursor = next
		bp.nodes.release(mark)
	}
}

// verifyAll checks key order, bounds, uniform leaf depth, the live count,
// and the integrity of the leaf chain.
func (bp *bptreeIndex) verifyAll() error {
	if bp.root == sgx.NilU {
		if bp.live != 0 {
			return fmt.Errorf("%w: empty tree with %d live keys", ErrIntegrity, bp.live)
		}
		return nil
	}
	count := 0
	var walk func(block sgx.UPtr, depth int, lo, hi []byte) error
	// Each walk holds its node, whose keys bound the children's walks,
	// until it returns: O(height) nodes out at a time.
	walk = func(block sgx.UPtr, depth int, lo, hi []byte) error {
		defer bp.nodes.release(bp.nodes.mark())
		n, err := bp.openBPNode(block)
		if err != nil {
			return err
		}
		for i, k := range n.keys {
			if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
				return fmt.Errorf("%w: node %#x keys out of order", ErrIntegrity, block)
			}
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("%w: node %#x violates lower bound", ErrIntegrity, block)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("%w: node %#x violates upper bound", ErrIntegrity, block)
			}
		}
		if n.leaf {
			if depth != bp.height {
				return fmt.Errorf("%w: leaf at depth %d, height %d", ErrIntegrity, depth, bp.height)
			}
			count += len(n.keys)
			return nil
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(bp.root, 1, nil, nil); err != nil {
		return err
	}
	if count != bp.live {
		return fmt.Errorf("%w: tree holds %d keys, %d live", ErrIntegrity, count, bp.live)
	}
	return nil
}
