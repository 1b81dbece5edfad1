// Package core implements the Aria engine (paper §V): the Put/Get/Delete
// pipeline that combines the user-space heap allocator, the redirection
// layer, the Secure Cache, and an index structure into a secure in-memory
// key-value store.
//
// The engine follows the paper's decoupled design: security metadata
// (counters in a flat Merkle tree, guarded by the Secure Cache) is built on
// KV pairs only, independent of the index. Two index schemes are provided —
// a chained hash table with key hints (Aria-H, hash.go) and a B-tree with
// encrypted nodes (Aria-T, btree.go) — running on the identical metadata
// machinery, which is the paper's portability claim.
package core

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/ariakv/aria/internal/alloc"
	"github.com/ariakv/aria/internal/redir"
	"github.com/ariakv/aria/internal/seccrypto"
	"github.com/ariakv/aria/internal/securecache"
	"github.com/ariakv/aria/internal/sgx"
)

// IndexKind selects the index structure.
type IndexKind int

const (
	// HashIndex is the chained hash table with key hints (Aria-H).
	HashIndex IndexKind = iota
	// BTreeIndex is the B-tree with encrypted nodes (Aria-T).
	BTreeIndex
	// BPTreeIndex is the B+-tree with router-only interior nodes and
	// verified range scans (the paper's §VII future-work index).
	BPTreeIndex
)

func (k IndexKind) String() string {
	switch k {
	case BTreeIndex:
		return "btree"
	case BPTreeIndex:
		return "bptree"
	default:
		return "hash"
	}
}

// Errors returned by the engine. ErrIntegrity wraps every detected attack.
var (
	ErrNotFound  = errors.New("aria: key not found")
	ErrIntegrity = securecache.ErrIntegrity
	ErrTooLarge  = errors.New("aria: key or value exceeds configured maximum")
	ErrEmptyKey  = errors.New("aria: empty key")
	ErrNoScan    = errors.New("aria: index does not support range scans")
)

// Options configures an engine. The zero value is completed by sensible
// defaults in New.
type Options struct {
	// Index selects Aria-H or Aria-T.
	Index IndexKind
	// ExpectedKeys sizes the counter area, hash bucket array, and
	// metadata regions.
	ExpectedKeys int
	// BucketLoad is the target chain length for the hash index
	// (buckets = ExpectedKeys / BucketLoad). Default 4.
	BucketLoad int
	// Arity is the Merkle tree branch factor (default 8, swept in
	// Figure 15).
	Arity int
	// CacheBytes is the Secure Cache EPC budget. Negative disables the
	// cache entirely (pure write-through verification).
	CacheBytes int
	// PinBudgetBytes is the EPC budget for initial level pinning.
	PinBudgetBytes int
	// Policy is the cache replacement policy.
	Policy securecache.Policy
	// DisablePinning turns level pinning off (ablation arms).
	DisablePinning bool
	// StopSwap enables the hit-ratio stop-swap mode.
	StopSwap bool
	// PlainCounters selects the "Aria w/o Cache" design: all counters in
	// a flat EPC array protected by hardware secure paging, no Merkle
	// tree and no Secure Cache (Figures 2, 9, 10, 11).
	PlainCounters bool
	// DisableCleanDiscard forces evicted clean Secure Cache nodes to be
	// written back (EWB-style hardware behaviour) instead of discarded
	// (§IV-C ablation).
	DisableCleanDiscard bool
	// OcallAlloc makes every untrusted allocation exit the enclave
	// (the AriaBase arm of Figure 12) instead of using the user-space
	// heap allocator.
	OcallAlloc bool
	// MaxKeySize and MaxValueSize bound entry sizes (defaults 256/4096).
	MaxKeySize   int
	MaxValueSize int
	// BTreeDegree is the minimum degree t of the B-tree (default 8:
	// nodes hold 7..15 keys).
	BTreeDegree int
	// Seed makes counter initialisation deterministic.
	Seed uint64
	// EncKey and MACKey are the 16-byte session keys (random defaults).
	EncKey []byte
	MACKey []byte
}

func (o *Options) fillDefaults() {
	if o.ExpectedKeys <= 0 {
		o.ExpectedKeys = 1 << 20
	}
	if o.BucketLoad <= 0 {
		o.BucketLoad = 4
	}
	if o.Arity == 0 {
		o.Arity = 8
	}
	if o.MaxKeySize <= 0 {
		o.MaxKeySize = 256
	}
	if o.MaxValueSize <= 0 {
		o.MaxValueSize = 4096
	}
	if o.BTreeDegree <= 1 {
		o.BTreeDegree = 8
	}
	if o.EncKey == nil {
		o.EncKey = []byte("aria-enc-key-000")
	}
	if o.MACKey == nil {
		o.MACKey = []byte("aria-mac-key-000")
	}
}

// Stats aggregates the engine's own counters with its components'.
type Stats struct {
	Gets    uint64
	Puts    uint64
	Deletes uint64
	Keys    int

	Cache securecache.Stats
	Redir redir.Stats
	Heap  alloc.Stats
	SGX   sgx.Stats
}

type index interface {
	get(key []byte) ([]byte, error)
	put(key, value []byte) error
	delete(key []byte) error
	keys() int
	// verifyAll re-reads every entry through the full verification path;
	// used by audits and tests.
	verifyAll() error
}

// scanner is implemented by ordered indexes that support range scans.
type scanner interface {
	scan(start, end []byte, fn func(k, v []byte) bool) error
}

// Engine is one Aria store instance inside one enclave.
type Engine struct {
	enc   *sgx.Enclave
	cip   *seccrypto.Cipher
	mac   *seccrypto.MACer // cip's MAC key, for entries and tree nodes
	heap  *alloc.Heap
	cache *securecache.Cache
	ctrs  counterBackend
	idx   index
	opts  Options

	// scratch is an enclave staging buffer for entry/node
	// seal-and-verify work. It and mac are shared mutable state: the
	// engine serves one caller at a time.
	scratch  sgx.EPtr
	scratchN int

	gets, puts, dels uint64
}

// New builds an engine inside the given enclave.
func New(enc *sgx.Enclave, opts Options) (*Engine, error) {
	opts.fillDefaults()
	cip, err := seccrypto.New(opts.EncKey, opts.MACKey)
	if err != nil {
		return nil, fmt.Errorf("core: bad keys: %w", err)
	}
	e := &Engine{
		enc:  enc,
		cip:  cip,
		mac:  cip.NewMACer(),
		heap: alloc.New(enc, opts.OcallAlloc),
		opts: opts,
	}
	if opts.PlainCounters {
		// Aria w/o Cache: every counter in a flat EPC array, protected
		// by hardware secure paging alone. No Merkle tree, no Secure
		// Cache.
		e.ctrs = newPlainCounters(enc, opts.ExpectedKeys, opts.Seed+1)
	} else {
		cacheBytes := opts.CacheBytes
		if cacheBytes < 0 {
			cacheBytes = 0
		}
		pin := opts.PinBudgetBytes
		if opts.DisablePinning {
			pin = 0
		}
		cache, err := securecache.New(enc, opts.Arity*seccrypto.CounterSize, securecache.Config{
			CapacityBytes:   cacheBytes,
			Policy:          opts.Policy,
			PinBudgetBytes:  pin,
			StopSwapEnabled: opts.StopSwap,
			CleanDiscard:    !opts.DisableCleanDiscard,
		})
		if err != nil {
			return nil, err
		}
		e.cache = cache
		rl, err := redir.New(enc, cip, cache, redir.Config{
			InitialCounters: opts.ExpectedKeys,
			Arity:           opts.Arity,
			GrowthFactor:    1.0,
			InitSeed:        opts.Seed + 1,
		})
		if err != nil {
			return nil, err
		}
		e.ctrs = rl
	}
	// The scratch buffer is split in half: opens stage into the low half,
	// seals build into the high half, so a read-modify-write can hold a
	// decoded entry/node while assembling its replacement.
	e.scratchN = e.maxEntrySize()
	if n := e.maxNodeSize(); n > e.scratchN {
		e.scratchN = n
	}
	e.scratchN *= 2
	e.scratch = enc.EAlloc(e.scratchN, sgx.CacheLine)
	switch opts.Index {
	case HashIndex:
		e.idx, err = newHashIndex(e)
	case BTreeIndex:
		e.idx, err = newBTreeIndex(e)
	case BPTreeIndex:
		e.idx, err = newBPTreeIndex(e)
	default:
		err = fmt.Errorf("core: unknown index kind %d", opts.Index)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Get returns a copy of the value stored under key.
func (e *Engine) Get(key []byte) ([]byte, error) {
	if err := e.checkKey(key); err != nil {
		return nil, err
	}
	e.gets++
	return e.idx.get(key)
}

// Put inserts or updates a KV pair.
func (e *Engine) Put(key, value []byte) error {
	if err := e.checkKey(key); err != nil {
		return err
	}
	if len(value) > e.opts.MaxValueSize {
		return ErrTooLarge
	}
	e.puts++
	return e.idx.put(key, value)
}

// Scan visits every pair with start <= key < end (nil end = unbounded) in
// key order, stopping early when fn returns false. Only ordered indexes
// (BPTreeIndex) support it. The key and value slices passed to fn are only
// valid during the call.
func (e *Engine) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	sc, ok := e.idx.(scanner)
	if !ok {
		return ErrNoScan
	}
	return sc.scan(start, end, fn)
}

// Delete removes key. It returns ErrNotFound when the key is absent.
func (e *Engine) Delete(key []byte) error {
	if err := e.checkKey(key); err != nil {
		return err
	}
	e.dels++
	return e.idx.delete(key)
}

func (e *Engine) checkKey(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > e.opts.MaxKeySize {
		return ErrTooLarge
	}
	return nil
}

// Flush forces all dirty Secure Cache state out to untrusted memory so the
// Merkle trees are externally consistent (used before offline audits).
func (e *Engine) Flush() error {
	if e.cache == nil {
		return nil
	}
	return e.cache.Flush()
}

// VerifyIntegrity audits the whole store offline: it flushes the cache,
// re-verifies every Merkle tree, and re-reads every entry through the full
// verification path. Any detected tampering is returned.
func (e *Engine) VerifyIntegrity() error {
	if err := e.Flush(); err != nil {
		return err
	}
	for _, t := range e.ctrs.Trees() {
		if err := t.VerifyAll(); err != nil {
			return err
		}
	}
	return e.idx.verifyAll()
}

// Stats returns a snapshot across all components.
func (e *Engine) Stats() Stats {
	st := Stats{
		Gets:    e.gets,
		Puts:    e.puts,
		Deletes: e.dels,
		Keys:    e.idx.keys(),
		Redir:   e.ctrs.Stats(),
		Heap:    e.heap.Stats(),
		SGX:     e.enc.Stats(),
	}
	if e.cache != nil {
		st.Cache = e.cache.Stats()
	}
	return st
}

// Keys returns the live entry count.
func (e *Engine) Keys() int { return e.idx.keys() }

// Enclave exposes the underlying enclave (throughput accounting).
func (e *Engine) Enclave() *sgx.Enclave { return e.enc }

// Cache exposes the Secure Cache (experiments and tests).
func (e *Engine) Cache() *securecache.Cache { return e.cache }

// equalInEnclave compares two byte strings inside the enclave.
func equalInEnclave(a, b []byte) bool { return bytes.Equal(a, b) }
