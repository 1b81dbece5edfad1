// Package baseline implements the "Baseline" comparator of the Aria paper:
// an ordinary in-memory KV store placed entirely inside the enclave with no
// modification. SGX hardware transparently encrypts and integrity-protects
// every page, so the store itself performs no cryptography — but once the
// working set exceeds the EPC, every cold access triggers a ~40K-cycle
// secure page swap, which is the cliff Figure 2 shows at 24 MB keyspace.
//
// Both index flavours used in the evaluation are provided: a chained hash
// table (Figures 2, 9, 11) and a B-tree (Figures 10, 11).
package baseline

import (
	"bytes"
	"encoding/binary"
	"errors"

	"github.com/ariakv/aria/internal/sgx"
)

// Errors mirroring the other stores' surfaces.
var (
	ErrNotFound = errors.New("baseline: key not found")
	ErrTooLarge = errors.New("baseline: key or value exceeds configured maximum")
	ErrEmptyKey = errors.New("baseline: empty key")
)

// Options configures a baseline store.
type Options struct {
	// ExpectedKeys sizes the hash bucket array.
	ExpectedKeys int
	// BucketLoad is the target chain length (default 4).
	BucketLoad int
	// Tree selects the B-tree flavour instead of the hash table.
	Tree bool
	// BTreeDegree is the minimum degree (default 8).
	BTreeDegree int
	// MaxKeySize / MaxValueSize bound entries (defaults 256/4096).
	MaxKeySize   int
	MaxValueSize int
}

// Store is a plaintext KV store living entirely in enclave memory.
type Store struct {
	enc  *sgx.Enclave
	opts Options

	// hash index
	nbuckets int
	buckets  sgx.EPtr

	// btree index
	root   sgx.EPtr
	degree int

	// free lists per size class for entry/node blocks (trusted).
	free map[int][]sgx.EPtr

	live       int
	gets, puts uint64
}

// New creates a baseline store inside the enclave.
func New(enc *sgx.Enclave, opts Options) (*Store, error) {
	if opts.ExpectedKeys <= 0 {
		opts.ExpectedKeys = 1 << 20
	}
	if opts.BucketLoad <= 0 {
		opts.BucketLoad = 4
	}
	if opts.BTreeDegree <= 1 {
		opts.BTreeDegree = 8
	}
	if opts.MaxKeySize <= 0 {
		opts.MaxKeySize = 256
	}
	if opts.MaxValueSize <= 0 {
		opts.MaxValueSize = 4096
	}
	s := &Store{
		enc:    enc,
		opts:   opts,
		degree: opts.BTreeDegree,
		free:   make(map[int][]sgx.EPtr),
	}
	if !opts.Tree {
		s.nbuckets = opts.ExpectedKeys / opts.BucketLoad
		if s.nbuckets < 16 {
			s.nbuckets = 16
		}
		s.buckets = enc.EAlloc(s.nbuckets*8, sgx.CacheLine)
	}
	return s, nil
}

// sizeClass rounds n up to a power of two (min 32) for block reuse.
func sizeClass(n int) int {
	c := 32
	for c < n {
		c *= 2
	}
	return c
}

func (s *Store) alloc(n int) sgx.EPtr {
	c := sizeClass(n)
	if l := s.free[c]; len(l) > 0 {
		p := l[len(l)-1]
		s.free[c] = l[:len(l)-1]
		return p
	}
	return s.enc.EAlloc(c, 8)
}

func (s *Store) freeBlock(p sgx.EPtr, n int) {
	c := sizeClass(n)
	s.free[c] = append(s.free[c], p)
}

func (s *Store) check(key []byte, vlen int) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > s.opts.MaxKeySize || vlen > s.opts.MaxValueSize {
		return ErrTooLarge
	}
	return nil
}

// Get returns a copy of the value under key.
func (s *Store) Get(key []byte) ([]byte, error) {
	if err := s.check(key, 0); err != nil {
		return nil, err
	}
	s.gets++
	if s.opts.Tree {
		return s.treeGet(key)
	}
	return s.hashGet(key)
}

// Put inserts or updates a KV pair.
func (s *Store) Put(key, value []byte) error {
	if err := s.check(key, len(value)); err != nil {
		return err
	}
	s.puts++
	if s.opts.Tree {
		return s.treePut(key, value)
	}
	return s.hashPut(key, value)
}

// Delete removes a key.
func (s *Store) Delete(key []byte) error {
	if err := s.check(key, 0); err != nil {
		return err
	}
	if s.opts.Tree {
		return s.treeDelete(key)
	}
	return s.hashDelete(key)
}

// Keys returns the live entry count.
func (s *Store) Keys() int { return s.live }

// VerifyIntegrity audits the store. Hardware protects the EPC, so there
// is nothing to verify against tampering; what can be checked is the
// tree flavour's ordering invariants.
func (s *Store) VerifyIntegrity() error { return s.VerifyTree() }

// Enclave exposes the enclave for throughput accounting.
func (s *Store) Enclave() *sgx.Enclave { return s.enc }

// ---- hash flavour ------------------------------------------------------------

// Entry: next(8) klen(2) vlen(2) key value — all inside the enclave.
const hEntOverhead = 12

func (s *Store) hashOf(key []byte) int {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	s.enc.ChargeHash()
	return int(h % uint64(s.nbuckets))
}

func (s *Store) slot(b int) sgx.EPtr { return s.buckets + sgx.EPtr(b*8) }

func (s *Store) readPtrE(p sgx.EPtr) sgx.EPtr {
	return sgx.EPtr(binary.LittleEndian.Uint64(s.enc.EBytes(p, 8)))
}

func (s *Store) writePtrE(p sgx.EPtr, v sgx.EPtr) {
	binary.LittleEndian.PutUint64(s.enc.EBytes(p, 8), uint64(v))
}

func (s *Store) entKV(e sgx.EPtr) (next sgx.EPtr, k, v []byte) {
	hdr := s.enc.EBytes(e, hEntOverhead)
	next = sgx.EPtr(binary.LittleEndian.Uint64(hdr))
	klen := int(binary.LittleEndian.Uint16(hdr[8:]))
	vlen := int(binary.LittleEndian.Uint16(hdr[10:]))
	body := s.enc.EBytes(e+hEntOverhead, klen+vlen)
	return next, body[:klen], body[klen:]
}

func (s *Store) hashGet(key []byte) ([]byte, error) {
	e := s.readPtrE(s.slot(s.hashOf(key)))
	for e != sgx.NilE {
		next, k, v := s.entKV(e)
		if bytes.Equal(k, key) {
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
		e = next
	}
	return nil, ErrNotFound
}

func (s *Store) hashPut(key, value []byte) error {
	b := s.hashOf(key)
	prev := s.slot(b)
	e := s.readPtrE(prev)
	for e != sgx.NilE {
		next, k, v := s.entKV(e)
		if bytes.Equal(k, key) {
			if len(v) == len(value) {
				copy(v, value)
				return nil
			}
			// Replace the block.
			ne := s.writeEntry(next, key, value)
			s.writePtrE(prev, ne)
			s.freeBlock(e, hEntOverhead+len(k)+len(v))
			return nil
		}
		prev = e
		e = next
	}
	ne := s.writeEntry(s.readPtrE(s.slot(b)), key, value)
	s.writePtrE(s.slot(b), ne)
	s.live++
	return nil
}

func (s *Store) writeEntry(next sgx.EPtr, key, value []byte) sgx.EPtr {
	n := hEntOverhead + len(key) + len(value)
	e := s.alloc(n)
	buf := s.enc.EBytes(e, n)
	binary.LittleEndian.PutUint64(buf, uint64(next))
	binary.LittleEndian.PutUint16(buf[8:], uint16(len(key)))
	binary.LittleEndian.PutUint16(buf[10:], uint16(len(value)))
	copy(buf[hEntOverhead:], key)
	copy(buf[hEntOverhead+len(key):], value)
	return e
}

func (s *Store) hashDelete(key []byte) error {
	b := s.hashOf(key)
	prev := s.slot(b)
	e := s.readPtrE(prev)
	for e != sgx.NilE {
		next, k, v := s.entKV(e)
		if bytes.Equal(k, key) {
			s.writePtrE(prev, next)
			s.freeBlock(e, hEntOverhead+len(k)+len(v))
			s.live--
			return nil
		}
		prev = e
		e = next
	}
	return ErrNotFound
}
