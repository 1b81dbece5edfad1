package core

import (
	"bytes"
	"fmt"

	"github.com/ariakv/aria/internal/sgx"
)

// btreeIndex is Aria-T (paper §V-C): a B-tree whose nodes live in untrusted
// memory as individually encrypted and MAC-protected items, each with its
// own counter in the Merkle tree. Every node visited during a traversal is
// decrypted inside the enclave before the branch decision — the cost that
// makes tree-based secure stores roughly an order of magnitude slower than
// hash-based ones (Figure 10).
//
// Index protection: interior child pointers are inside the encrypted
// payload, so they cannot be rewired by the host; each node's MAC
// additionally covers its own untrusted block address (the AdField), so
// copying one node's bytes over another's block is detected. The root
// pointer and the tree height live in the EPC; a traversal that does not
// reach a leaf in exactly `height` steps indicates a structural attack.
//
// This AdField choice deviates slightly from the paper, which binds a node
// to the address of the pointer that points at it. With encrypted interior
// pointers the two are equally strong (see DESIGN.md §4), and self-binding
// avoids re-MACing every child whenever a parent reshuffles its slots.
//
// Node blocks use the shared tree layout (node.go). Payload plaintext:
//
//	flags(1) nkeys(2) { klen(2) vlen(2) key value }*nkeys [children (nkeys+1)*8]
type btreeIndex struct {
	nodes  nodeStore
	t      int // minimum degree: nodes hold t-1..2t-1 keys (except root)
	root   sgx.UPtr
	height int // node levels from root to leaf inclusive; 0 = empty
	live   int
}

func newBTreeIndex(e *Engine) (*btreeIndex, error) {
	return &btreeIndex{nodes: nodeStore{e: e, what: "tree"}, t: e.opts.BTreeDegree}, nil
}

func (bt *btreeIndex) maxKeys() int { return 2*bt.t - 1 }

// openNode verifies, decrypts and decodes the node at block.
func (bt *btreeIndex) openNode(block sgx.UPtr) (*tnode, error) {
	n, err := bt.nodes.open(block)
	if err != nil {
		return nil, err
	}
	nkeys := n.nkeys()
	off := n.decodePairs(3, nkeys)
	if !n.leaf && off >= 0 {
		off = n.decodeChildren(off, nkeys+1)
	}
	if off < 0 {
		return nil, truncated(block)
	}
	return n, nil
}

// sealNode encodes, encrypts, and MACs n, writing it to its block
// (relocating to a larger one when needed; n.block is updated and the new
// address is returned so the caller can fix the parent's child pointer).
// A nil-block node is freshly allocated. The node's counter is bumped so
// every sealed image is fresh.
func (bt *btreeIndex) sealNode(n *tnode) (sgx.UPtr, error) {
	paylen := 3 + n.pairsLen()
	if !n.leaf {
		paylen += len(n.children) * 8
	}
	pay, err := bt.nodes.sealStart(n, paylen)
	if err != nil {
		return sgx.NilU, err
	}
	off := n.encodePairs(pay, 3)
	if !n.leaf {
		n.encodeChildren(pay, off)
	}
	return bt.nodes.sealFinish(n, paylen), nil
}

// search returns the position of key in keys, or the child slot to descend.
func search(keys [][]byte, key []byte) (pos int, found bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(keys[mid], key) {
		case 0:
			return mid, true
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

func (bt *btreeIndex) get(key []byte) ([]byte, error) {
	if bt.root == sgx.NilU {
		return nil, ErrNotFound
	}
	defer bt.nodes.release(bt.nodes.mark())
	cur := bt.root
	depth := 0
	for {
		n, err := bt.openNode(cur)
		if err != nil {
			return nil, err
		}
		depth++
		pos, found := search(n.keys, key)
		if found {
			out := make([]byte, len(n.vals[pos]))
			copy(out, n.vals[pos])
			return out, nil
		}
		if n.leaf {
			if depth != bt.height {
				return nil, fmt.Errorf("%w: traversal depth %d != trusted height %d", ErrIntegrity, depth, bt.height)
			}
			return nil, ErrNotFound
		}
		cur = n.children[pos]
	}
}

func (bt *btreeIndex) put(key, value []byte) error {
	defer bt.nodes.release(bt.nodes.mark())
	if bt.root == sgx.NilU {
		n := bt.nodes.fresh(true)
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, value)
		b, err := bt.sealNode(n)
		if err != nil {
			return err
		}
		bt.root = b
		bt.height = 1
		bt.live = 1
		return nil
	}
	nb, up, existed, err := bt.insertRec(bt.root, key, value)
	if err != nil {
		return err
	}
	bt.root = nb
	if up != nil {
		newRoot := bt.nodes.fresh(false)
		newRoot.keys = append(newRoot.keys, up.key)
		newRoot.vals = append(newRoot.vals, up.val)
		newRoot.children = append(newRoot.children, bt.root, up.right)
		b, err := bt.sealNode(newRoot)
		if err != nil {
			return err
		}
		bt.root = b
		bt.height++
	}
	if !existed {
		bt.live++
	}
	return nil
}

// splitUp carries a median promoted to the parent during insertion.
type splitUp struct {
	key, val []byte
	right    sgx.UPtr
}

// insertRec inserts into the subtree at block. It returns the subtree's
// (possibly relocated) root block and, when the node split, the promoted
// median. existed reports whether the key was already present (update).
func (bt *btreeIndex) insertRec(block sgx.UPtr, key, value []byte) (sgx.UPtr, *splitUp, bool, error) {
	n, err := bt.openNode(block)
	if err != nil {
		return block, nil, false, err
	}
	pos, found := search(n.keys, key)
	if found {
		n.vals[pos] = value
		nb, err := bt.sealNode(n)
		return nb, nil, true, err
	}
	if n.leaf {
		n.keys = insertAt(n.keys, pos, key)
		n.vals = insertAt(n.vals, pos, value)
	} else {
		childBlock := n.children[pos]
		ncb, up, existed, err := bt.insertRec(childBlock, key, value)
		if err != nil {
			return block, nil, false, err
		}
		if ncb == childBlock && up == nil {
			// Child neither relocated nor split: this node is
			// untouched, no reseal needed.
			return block, nil, existed, nil
		}
		n.children[pos] = ncb
		if up != nil {
			n.keys = insertAt(n.keys, pos, up.key)
			n.vals = insertAt(n.vals, pos, up.val)
			n.children = insertPtrAt(n.children, pos+1, up.right)
		}
		if existed || up == nil {
			nb, err := bt.sealNode(n)
			return nb, nil, existed, err
		}
	}
	if len(n.keys) <= bt.maxKeys() {
		nb, err := bt.sealNode(n)
		return nb, nil, false, err
	}
	// Overfull (2t keys): split around the median.
	mid := len(n.keys) / 2
	up := &splitUp{key: n.keys[mid], val: n.vals[mid]}
	right := bt.nodes.fresh(n.leaf)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.vals = append(right.vals, n.vals[mid+1:]...)
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	if !n.leaf {
		right.children = append(right.children, n.children[mid+1:]...)
		n.children = n.children[:mid+1]
	}
	rb, err := bt.sealNode(right)
	if err != nil {
		return block, nil, false, err
	}
	up.right = rb
	nb, err := bt.sealNode(n)
	return nb, up, false, err
}

func insertAt(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertPtrAt(s []sgx.UPtr, i int, v sgx.UPtr) []sgx.UPtr {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeAt(s [][]byte, i int) [][]byte {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func removePtrAt(s []sgx.UPtr, i int) []sgx.UPtr {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func (bt *btreeIndex) delete(key []byte) error {
	if bt.root == sgx.NilU {
		return ErrNotFound
	}
	defer bt.nodes.release(bt.nodes.mark())
	nb, deleted, err := bt.deleteRec(bt.root, key)
	if err != nil {
		return err
	}
	bt.root = nb
	if !deleted {
		return ErrNotFound
	}
	bt.live--
	// Shrink the root when it became an empty interior node.
	n, err := bt.openNode(bt.root)
	if err != nil {
		return err
	}
	if len(n.keys) == 0 {
		if n.leaf {
			if err := bt.nodes.discard(n); err != nil {
				return err
			}
			bt.root = sgx.NilU
			bt.height = 0
		} else {
			child := n.children[0]
			if err := bt.nodes.discard(n); err != nil {
				return err
			}
			bt.root = child
			bt.height--
		}
	}
	return nil
}

// deleteRec removes key from the subtree at block (CLRS B-tree deletion:
// every recursive step guarantees the node it descends into has at least t
// keys, borrowing from or merging with siblings first).
func (bt *btreeIndex) deleteRec(block sgx.UPtr, key []byte) (sgx.UPtr, bool, error) {
	n, err := bt.openNode(block)
	if err != nil {
		return block, false, err
	}
	pos, found := search(n.keys, key)
	if n.leaf {
		if !found {
			return block, false, nil
		}
		n.keys = removeAt(n.keys, pos)
		n.vals = removeAt(n.vals, pos)
		nb, err := bt.sealNode(n)
		return nb, true, err
	}
	if found {
		// Key in an interior node: replace it with its in-order
		// predecessor or successor, or merge the two children.
		left, err := bt.openNode(n.children[pos])
		if err != nil {
			return block, false, err
		}
		if len(left.keys) >= bt.t {
			pk, pv, ncb, err := bt.popMax(n.children[pos])
			if err != nil {
				return block, false, err
			}
			n.children[pos] = ncb
			n.keys[pos] = pk
			n.vals[pos] = pv
			nb, err := bt.sealNode(n)
			return nb, true, err
		}
		right, err := bt.openNode(n.children[pos+1])
		if err != nil {
			return block, false, err
		}
		if len(right.keys) >= bt.t {
			sk, sv, ncb, err := bt.popMin(n.children[pos+1])
			if err != nil {
				return block, false, err
			}
			n.children[pos+1] = ncb
			n.keys[pos] = sk
			n.vals[pos] = sv
			nb, err := bt.sealNode(n)
			return nb, true, err
		}
		// Both children minimal: merge them around the key, then
		// delete from the merged child.
		merged, err := bt.mergeChildren(n, pos, left, right)
		if err != nil {
			return block, false, err
		}
		ncb, deleted, err := bt.deleteRec(merged, key)
		if err != nil {
			return block, false, err
		}
		n.children[pos] = ncb
		nb, err := bt.sealNode(n)
		return nb, deleted, err
	}
	// Key not here: ensure the target child can lose a key, then recurse.
	childPos, err := bt.ensureFull(n, pos)
	if err != nil {
		return block, false, err
	}
	oldChild := n.children[childPos]
	ncb, deleted, err := bt.deleteRec(oldChild, key)
	if err != nil {
		return block, false, err
	}
	if ncb == oldChild && !n.dirtyShape {
		return block, deleted, nil
	}
	n.children[childPos] = ncb
	nb, err := bt.sealNode(n)
	return nb, deleted, err
}

// popMax removes and returns the maximum key/value of the subtree at block.
func (bt *btreeIndex) popMax(block sgx.UPtr) ([]byte, []byte, sgx.UPtr, error) {
	n, err := bt.openNode(block)
	if err != nil {
		return nil, nil, block, err
	}
	if n.leaf {
		i := len(n.keys) - 1
		k, v := n.keys[i], n.vals[i]
		n.keys = n.keys[:i]
		n.vals = n.vals[:i]
		nb, err := bt.sealNode(n)
		return k, v, nb, err
	}
	childPos, err := bt.ensureFull(n, len(n.children)-1)
	if err != nil {
		return nil, nil, block, err
	}
	k, v, ncb, err := bt.popMax(n.children[childPos])
	if err != nil {
		return nil, nil, block, err
	}
	n.children[childPos] = ncb
	nb, err := bt.sealNode(n)
	return k, v, nb, err
}

// popMin removes and returns the minimum key/value of the subtree at block.
func (bt *btreeIndex) popMin(block sgx.UPtr) ([]byte, []byte, sgx.UPtr, error) {
	n, err := bt.openNode(block)
	if err != nil {
		return nil, nil, block, err
	}
	if n.leaf {
		k, v := n.keys[0], n.vals[0]
		n.keys = removeAt(n.keys, 0)
		n.vals = removeAt(n.vals, 0)
		nb, err := bt.sealNode(n)
		return k, v, nb, err
	}
	childPos, err := bt.ensureFull(n, 0)
	if err != nil {
		return nil, nil, block, err
	}
	k, v, ncb, err := bt.popMin(n.children[childPos])
	if err != nil {
		return nil, nil, block, err
	}
	n.children[childPos] = ncb
	nb, err := bt.sealNode(n)
	return k, v, nb, err
}

// ensureFull guarantees n.children[pos] has at least t keys by borrowing
// from a sibling or merging; it returns the (possibly shifted) child slot to
// descend into and marks n dirty when its shape changed.
func (bt *btreeIndex) ensureFull(n *tnode, pos int) (int, error) {
	child, err := bt.openNode(n.children[pos])
	if err != nil {
		return pos, err
	}
	if len(child.keys) >= bt.t {
		return pos, nil
	}
	n.dirtyShape = true
	// Try borrowing from the left sibling.
	if pos > 0 {
		left, err := bt.openNode(n.children[pos-1])
		if err != nil {
			return pos, err
		}
		if len(left.keys) >= bt.t {
			// Rotate right: parent separator moves down, left's
			// max moves up.
			child.keys = insertAt(child.keys, 0, n.keys[pos-1])
			child.vals = insertAt(child.vals, 0, n.vals[pos-1])
			li := len(left.keys) - 1
			n.keys[pos-1] = left.keys[li]
			n.vals[pos-1] = left.vals[li]
			left.keys = left.keys[:li]
			left.vals = left.vals[:li]
			if !child.leaf {
				child.children = insertPtrAt(child.children, 0, left.children[len(left.children)-1])
				left.children = left.children[:len(left.children)-1]
			}
			if n.children[pos-1], err = bt.sealNode(left); err != nil {
				return pos, err
			}
			if n.children[pos], err = bt.sealNode(child); err != nil {
				return pos, err
			}
			return pos, nil
		}
	}
	// Try borrowing from the right sibling.
	if pos < len(n.children)-1 {
		right, err := bt.openNode(n.children[pos+1])
		if err != nil {
			return pos, err
		}
		if len(right.keys) >= bt.t {
			child.keys = append(child.keys, n.keys[pos])
			child.vals = append(child.vals, n.vals[pos])
			n.keys[pos] = right.keys[0]
			n.vals[pos] = right.vals[0]
			right.keys = removeAt(right.keys, 0)
			right.vals = removeAt(right.vals, 0)
			if !child.leaf {
				child.children = append(child.children, right.children[0])
				right.children = removePtrAt(right.children, 0)
			}
			if n.children[pos+1], err = bt.sealNode(right); err != nil {
				return pos, err
			}
			if n.children[pos], err = bt.sealNode(child); err != nil {
				return pos, err
			}
			return pos, nil
		}
		// Merge with the right sibling.
		if _, err := bt.mergeChildren(n, pos, child, right); err != nil {
			return pos, err
		}
		return pos, nil
	}
	// Merge with the left sibling (child is the rightmost slot).
	left, err := bt.openNode(n.children[pos-1])
	if err != nil {
		return pos, err
	}
	if _, err := bt.mergeChildren(n, pos-1, left, child); err != nil {
		return pos, err
	}
	return pos - 1, nil
}

// mergeChildren folds n.keys[pos] and children pos, pos+1 into one node
// (the left child, resealed), removing the separator and right child from
// n. n itself is NOT resealed here — callers always reseal n afterwards.
func (bt *btreeIndex) mergeChildren(n *tnode, pos int, left, right *tnode) (sgx.UPtr, error) {
	n.dirtyShape = true
	left.keys = append(left.keys, n.keys[pos])
	left.vals = append(left.vals, n.vals[pos])
	left.keys = append(left.keys, right.keys...)
	left.vals = append(left.vals, right.vals...)
	if !left.leaf {
		left.children = append(left.children, right.children...)
	}
	if err := bt.nodes.discard(right); err != nil {
		return sgx.NilU, err
	}
	nb, err := bt.sealNode(left)
	if err != nil {
		return sgx.NilU, err
	}
	n.keys = removeAt(n.keys, pos)
	n.vals = removeAt(n.vals, pos)
	n.children = removePtrAt(n.children, pos+1)
	n.children[pos] = nb
	return nb, nil
}

func (bt *btreeIndex) keys() int { return bt.live }

// verifyAll walks the whole tree, verifying every node, checking key order,
// uniform leaf depth, and the live count.
func (bt *btreeIndex) verifyAll() error {
	if bt.root == sgx.NilU {
		if bt.live != 0 {
			return fmt.Errorf("%w: empty tree with %d live keys", ErrIntegrity, bt.live)
		}
		return nil
	}
	count := 0
	var walk func(block sgx.UPtr, depth int, lo, hi []byte) error
	// Each walk holds its node, whose keys bound the children's walks,
	// until it returns: O(height) nodes out at a time.
	walk = func(block sgx.UPtr, depth int, lo, hi []byte) error {
		defer bt.nodes.release(bt.nodes.mark())
		n, err := bt.openNode(block)
		if err != nil {
			return err
		}
		for i, k := range n.keys {
			if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
				return fmt.Errorf("%w: node %#x keys out of order", ErrIntegrity, block)
			}
			if lo != nil && bytes.Compare(k, lo) <= 0 {
				return fmt.Errorf("%w: node %#x violates lower bound", ErrIntegrity, block)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("%w: node %#x violates upper bound", ErrIntegrity, block)
			}
		}
		count += len(n.keys)
		if n.leaf {
			if depth != bt.height {
				return fmt.Errorf("%w: leaf at depth %d, height %d", ErrIntegrity, depth, bt.height)
			}
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
	if err := walk(bt.root, 1, nil, nil); err != nil {
		return err
	}
	if count != bt.live {
		return fmt.Errorf("%w: tree holds %d keys, %d live", ErrIntegrity, count, bt.live)
	}
	return nil
}
