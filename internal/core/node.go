package core

import (
	"encoding/binary"
	"fmt"

	"github.com/ariakv/aria/internal/redir"
	"github.com/ariakv/aria/internal/seccrypto"
	"github.com/ariakv/aria/internal/sgx"
)

// Tree node block layout in untrusted memory, shared by Aria-T (btree.go)
// and the B+-tree (bptree.go), which differ only in the payload:
//
//	offset  0: redptr (8)
//	offset  8: paylen (4)
//	offset 12: enc(payload)
//	offset 12+paylen: MAC (16)
//
// The MAC covers redptr, paylen, the ciphertext, the node's own block
// address (its AdField) and its counter.
const (
	tnOffRedPtr = 0
	tnOffPayLen = 8
	tnOffPay    = 12
	tnOverhead  = tnOffPay + seccrypto.MACSize
)

// maxNodeSize bounds the sealed size of any legal node of either tree
// (a full Aria-T node; a B+-tree node holds no more).
func (e *Engine) maxNodeSize() int {
	t := e.opts.BTreeDegree
	if t <= 1 {
		t = 8
	}
	maxKeys := 2*t - 1
	pay := 3 + maxKeys*(4+e.opts.MaxKeySize+e.opts.MaxValueSize) + (maxKeys+1)*8
	return tnOverhead + pay
}

// tnode is a decoded, verified node of either tree. Its key, value and
// child slices point into pay, its own plaintext copy of the payload.
type tnode struct {
	block    sgx.UPtr
	redptr   redir.RedPtr
	leaf     bool
	pay      []byte
	keys     [][]byte
	vals     [][]byte // B+-tree: leaves only
	children []sgx.UPtr
	// dirtyShape marks that sibling borrow/merge changed this node's
	// keys or children, so the caller must reseal it.
	dirtyShape bool
}

// nodeStore opens and seals one tree's nodes and owns the decoded nodes.
//
// Nodes come from an arena: open and fresh take one from free and record
// it in held, and each top-level index op (get, put, delete, scan, audit)
// hands everything it took back with release(mark) on its way out, error
// paths included. A node and every slice into it therefore stay valid
// until the op that produced it returns — a key or value may move between
// nodes and reach a seal without being copied — and the next op reuses
// the node and its buffers' capacity, so a steady-state traversal
// allocates nothing per node but the CTR stream. A value handed to a
// caller is always a copy.
//
// ctr stages the node's counter for the MAC and CTR calls, which would
// otherwise move it to the heap on every open and seal.
type nodeStore struct {
	e          *Engine
	what       string // "tree" or "b+tree", for integrity errors
	free, held []*tnode
	ctr        [16]byte
}

// mark returns the arena position to release back to.
func (ns *nodeStore) mark() int { return len(ns.held) }

// release returns every node taken since mark to the free list.
func (ns *nodeStore) release(mark int) {
	ns.free = append(ns.free, ns.held[mark:]...)
	ns.held = ns.held[:mark]
}

// fresh returns an empty node from the arena, not yet bound to a block.
func (ns *nodeStore) fresh(leaf bool) *tnode {
	var n *tnode
	if k := len(ns.free); k > 0 {
		n = ns.free[k-1]
		ns.free = ns.free[:k-1]
		*n = tnode{pay: n.pay[:0], keys: n.keys[:0], vals: n.vals[:0], children: n.children[:0]}
	} else {
		n = new(tnode)
	}
	n.leaf = leaf
	ns.held = append(ns.held, n)
	return n
}

// open verifies and decrypts the node at block into a node from the
// arena, setting block, redptr, leaf and pay; the caller decodes pay. A
// node that fails verification takes nothing from the arena.
func (ns *nodeStore) open(block sgx.UPtr) (*tnode, error) {
	e := ns.e
	if !e.enc.UValid(block, tnOverhead) {
		return nil, fmt.Errorf("%w: node pointer %#x out of range", ErrIntegrity, block)
	}
	hdr := e.enc.UBytes(block, tnOffPay)
	paylen := int(binary.LittleEndian.Uint32(hdr[tnOffPayLen:]))
	if paylen <= 0 || tnOverhead+paylen > e.scratchN/2 {
		return nil, fmt.Errorf("%w: node at %#x has implausible payload length %d", ErrIntegrity, block, paylen)
	}
	total := tnOverhead + paylen
	if !e.enc.UValid(block, total) {
		return nil, fmt.Errorf("%w: node at %#x extends past the arena", ErrIntegrity, block)
	}
	e.enc.CopyIn(e.scratch, block, total)
	buf := e.enc.EBytesRaw(e.scratch, total)
	rp := redir.RedPtr(binary.LittleEndian.Uint64(buf[tnOffRedPtr:]))
	ctr, err := e.ctrs.CounterGet(rp)
	if err != nil {
		return nil, err
	}
	ns.ctr = ctr
	var ad [8]byte
	binary.LittleEndian.PutUint64(ad[:], uint64(block))
	macOff := tnOffPay + paylen
	e.enc.ChargeMAC(macOff + 8 + 16)
	if !e.mac.Verify(buf[macOff:macOff+seccrypto.MACSize], buf[:macOff], ad[:], ns.ctr[:]) {
		return nil, fmt.Errorf("%w: %s node at %#x (tampered, replayed, or relocated)", ErrIntegrity, ns.what, block)
	}
	n := ns.fresh(false)
	n.block, n.redptr = block, rp
	if cap(n.pay) < paylen {
		n.pay = make([]byte, paylen)
	}
	n.pay = n.pay[:paylen]
	e.enc.ChargeCTR(paylen)
	e.cip.CTRCrypt(&ns.ctr, n.pay, buf[tnOffPay:macOff])
	n.leaf = n.pay[0]&1 != 0
	return n, nil
}

// Payload codec. Every payload starts with flags(1) nkeys(2), which open
// and sealStart handle; the pieces after them are shared here. A decoder
// appends to n what it reads at off and returns the offset after it, or
// -1 when the payload is too short; an encoder returns the offset after
// what it wrote.

// nkeys reads the key count from n's payload header.
func (n *tnode) nkeys() int { return int(binary.LittleEndian.Uint16(n.pay[1:])) }

// decodePairs reads count { klen(2) vlen(2) key value } pairs.
func (n *tnode) decodePairs(off, count int) int {
	pay := n.pay
	for i := 0; i < count; i++ {
		if off+4 > len(pay) {
			return -1
		}
		kl := int(binary.LittleEndian.Uint16(pay[off:]))
		vl := int(binary.LittleEndian.Uint16(pay[off+2:]))
		off += 4
		if off+kl+vl > len(pay) {
			return -1
		}
		n.keys = append(n.keys, pay[off:off+kl])
		n.vals = append(n.vals, pay[off+kl:off+kl+vl])
		off += kl + vl
	}
	return off
}

// decodeChildren reads count child pointers of 8 bytes each.
func (n *tnode) decodeChildren(off, count int) int {
	if off+8*count > len(n.pay) {
		return -1
	}
	for i := 0; i < count; i++ {
		n.children = append(n.children, sgx.UPtr(binary.LittleEndian.Uint64(n.pay[off:])))
		off += 8
	}
	return off
}

// pairsLen is the encoded size of n's key/value pairs.
func (n *tnode) pairsLen() int {
	size := 0
	for i := range n.keys {
		size += 4 + len(n.keys[i]) + len(n.vals[i])
	}
	return size
}

func (n *tnode) encodePairs(pay []byte, off int) int {
	for i, k := range n.keys {
		binary.LittleEndian.PutUint16(pay[off:], uint16(len(k)))
		binary.LittleEndian.PutUint16(pay[off+2:], uint16(len(n.vals[i])))
		off += 4
		off += copy(pay[off:], k)
		off += copy(pay[off:], n.vals[i])
	}
	return off
}

func (n *tnode) encodeChildren(pay []byte, off int) int {
	for _, c := range n.children {
		binary.LittleEndian.PutUint64(pay[off:], uint64(c))
		off += 8
	}
	return off
}

// truncated is the error for a verified payload that does not decode.
func truncated(block sgx.UPtr) error {
	return fmt.Errorf("%w: node at %#x truncated", ErrIntegrity, block)
}

// sealStart readies n's sealed image of paylen payload bytes: it gives a
// fresh node a block and a counter, moves a node that outgrew its block,
// bumps the counter so every sealed image is fresh, and writes the header
// into the seal half of the scratch buffer. The caller encodes the
// plaintext payload into the returned slice and calls sealFinish.
func (ns *nodeStore) sealStart(n *tnode, paylen int) ([]byte, error) {
	e := ns.e
	total := tnOverhead + paylen
	if n.block == sgx.NilU {
		rp, err := e.ctrs.Fetch()
		if err != nil {
			return nil, err
		}
		n.redptr = rp
		b, err := e.heap.Alloc(total)
		if err != nil {
			return nil, err
		}
		n.block = b
	} else if e.heap.BlockSize(n.block) < total {
		if err := e.heap.Free(n.block); err != nil {
			return nil, err
		}
		b, err := e.heap.Alloc(total)
		if err != nil {
			return nil, err
		}
		n.block = b
	}
	ctr, err := e.ctrs.CounterBump(n.redptr)
	if err != nil {
		return nil, err
	}
	ns.ctr = ctr
	half := e.scratchN / 2
	buf := e.enc.EBytesRaw(e.scratch+sgx.EPtr(half), total)
	e.enc.ETouch(e.scratch+sgx.EPtr(half), total)
	binary.LittleEndian.PutUint64(buf[tnOffRedPtr:], uint64(n.redptr))
	binary.LittleEndian.PutUint32(buf[tnOffPayLen:], uint32(paylen))
	pay := buf[tnOffPay : tnOffPay+paylen]
	if n.leaf {
		pay[0] = 1
	} else {
		pay[0] = 0
	}
	binary.LittleEndian.PutUint16(pay[1:], uint16(len(n.keys)))
	return pay, nil
}

// sealFinish encrypts and MACs the image sealStart readied and writes it
// to n's block, returning the block.
func (ns *nodeStore) sealFinish(n *tnode, paylen int) sgx.UPtr {
	e := ns.e
	total := tnOverhead + paylen
	half := e.scratchN / 2
	buf := e.enc.EBytesRaw(e.scratch+sgx.EPtr(half), total)
	pay := buf[tnOffPay : tnOffPay+paylen]
	e.enc.ChargeCTR(paylen)
	e.cip.CTRCrypt(&ns.ctr, pay, pay)
	var ad [8]byte
	binary.LittleEndian.PutUint64(ad[:], uint64(n.block))
	macOff := tnOffPay + paylen
	e.enc.ChargeMAC(macOff + 8 + 16)
	e.mac.MAC((*[16]byte)(buf[macOff:macOff+seccrypto.MACSize]), buf[:macOff], ad[:], ns.ctr[:])
	e.enc.CopyOut(n.block, e.scratch+sgx.EPtr(half), total)
	return n.block
}

// discard releases a node's block and counter (after a merge or a root
// shrink). The decoded node stays held until its op returns.
func (ns *nodeStore) discard(n *tnode) error {
	if err := ns.e.heap.Free(n.block); err != nil {
		return err
	}
	return ns.e.ctrs.Free(n.redptr)
}
