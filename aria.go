// Package aria is a reproduction of "Aria: Tolerating Skewed Workloads in
// Secure In-memory Key-value Stores" (Yang et al., ICDE 2021) as a Go
// library.
//
// Aria is a secure in-memory KV store for SGX-class trusted execution
// environments. KV pairs and the index live in untrusted memory; a flat
// Merkle tree of encryption counters provides confidentiality, integrity,
// and freshness; and the paper's core contribution — the Secure Cache —
// keeps the hot part of that tree inside the limited EPC at node
// granularity, so skewed workloads verify hot keys with a single trusted
// read instead of a Merkle walk.
//
// Since real SGX hardware is not assumed, the library runs on a
// deterministic enclave simulator (see internal/sgx and DESIGN.md §1):
// the cryptography is real, the clock is simulated cycles. Every design
// the paper measures is available as a Scheme:
//
//	AriaHash / AriaTree           the paper's system (Aria-H / Aria-T)
//	NoCacheHash / NoCacheTree     "Aria w/o Cache" (counters in EPC, hardware paging)
//	ShieldStoreScheme             the EuroSys'19 comparator
//	BaselineHash / BaselineTree   whole store inside the EPC
//
// Quick start:
//
//	st, err := aria.Open(aria.Options{Scheme: aria.AriaHash, ExpectedKeys: 100000})
//	if err != nil { ... }
//	err = st.Put([]byte("k"), []byte("v"))
//	v, err := st.Get([]byte("k"))
package aria

import (
	"errors"
	"fmt"
	"time"

	"github.com/ariakv/aria/internal/baseline"
	"github.com/ariakv/aria/internal/core"
	"github.com/ariakv/aria/internal/securecache"
	"github.com/ariakv/aria/internal/sgx"
	"github.com/ariakv/aria/internal/shieldstore"
	"github.com/ariakv/aria/obs"
	"github.com/ariakv/aria/wal"
)

// Scheme selects one of the designs evaluated in the paper.
type Scheme int

const (
	// AriaHash is Aria with the chained hash index (Aria-H).
	AriaHash Scheme = iota
	// AriaTree is Aria with the B-tree index (Aria-T).
	AriaTree
	// NoCacheHash is "Aria w/o Cache" over the hash index: all counters
	// in a plain EPC array, hardware secure paging only.
	NoCacheHash
	// NoCacheTree is "Aria w/o Cache" over the B-tree index.
	NoCacheTree
	// ShieldStoreScheme is the ShieldStore comparator (EuroSys 2019).
	ShieldStoreScheme
	// BaselineHash places an ordinary hash-table store entirely in the
	// EPC.
	BaselineHash
	// BaselineTree places an ordinary B-tree store entirely in the EPC.
	BaselineTree
	// AriaBPTree is Aria with the B+-tree index: interior nodes hold
	// router keys only and the store supports verified range scans.
	// This implements the extension the paper leaves as future work
	// (§VII).
	AriaBPTree
)

// String returns the scheme's benchmark-table name (e.g. "aria-h"),
// matching the labels used in EXPERIMENTS.md and the metric catalogue.
func (s Scheme) String() string {
	switch s {
	case AriaHash:
		return "aria-h"
	case AriaTree:
		return "aria-t"
	case NoCacheHash:
		return "nocache-h"
	case NoCacheTree:
		return "nocache-t"
	case ShieldStoreScheme:
		return "shieldstore"
	case BaselineHash:
		return "baseline-h"
	case BaselineTree:
		return "baseline-t"
	case AriaBPTree:
		return "aria-bp"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ReplacementPolicy selects the Secure Cache eviction policy.
type ReplacementPolicy = securecache.Policy

// Replacement policies (paper §IV-E: FIFO avoids LRU's hit penalty).
const (
	FIFO = securecache.FIFO
	LRU  = securecache.LRU
)

// Errors returned by stores. Schemes map their internal errors onto these.
var (
	ErrNotFound  = errors.New("aria: key not found")
	ErrIntegrity = errors.New("aria: integrity verification failed (attack detected)")
	ErrTooLarge  = errors.New("aria: key or value exceeds configured maximum")
	ErrEmptyKey  = errors.New("aria: empty key")
	ErrNoScan    = errors.New("aria: scheme does not support range scans")
	// ErrQuarantined marks an operation on a key that an earlier operation
	// found tampered under the Quarantine policy. It always arrives
	// wrapped together with ErrIntegrity.
	ErrQuarantined = errors.New("aria: key quarantined after earlier tamper detection")
	// ErrNotDurable marks a Checkpoint on a store opened without
	// Options.DataDir: there is no WAL or snapshot lineage to
	// checkpoint.
	ErrNotDurable = errors.New("aria: store was opened without DataDir (not durable)")
	// ErrFenced marks an operation on a node that a newer replication
	// generation has fenced: a promoted replica took over, and this
	// node's lineage must be re-seeded before it can serve again.
	ErrFenced = errors.New("aria: node fenced by a newer replication generation")
	// ErrReadOnlyReplica marks a write sent to a replica: replicas apply
	// only the primary's sealed WAL stream and serve reads.
	ErrReadOnlyReplica = errors.New("aria: replica is read-only (writes go to the primary)")
	// ErrLagging marks a watermarked read on a replica that has not yet
	// applied the client's watermark; the client may wait and retry or
	// fail over to the primary.
	ErrLagging = errors.New("aria: replica lags behind the read's watermark")
	// ErrCASMismatch marks a CompareAndSwap whose expected version no
	// longer matches the key's current version: another writer got there
	// first (or the key was deleted/expired). Re-read and retry.
	ErrCASMismatch = errors.New("aria: compare-and-swap version mismatch")
	// ErrTxnConflict marks a transaction commit whose version validation
	// failed: a key in the read set changed (or appeared/disappeared)
	// since it was read. Nothing was applied; rebuild and retry.
	ErrTxnConflict = errors.New("aria: transaction conflict (validation failed)")
)

// FsyncPolicy selects when a durable store's WAL flushes to stable
// storage (alias of wal.FsyncPolicy; only meaningful with
// Options.DataDir).
type FsyncPolicy = wal.FsyncPolicy

// Fsync policies: FsyncBatch group-commits each append call with one
// fsync (the default), FsyncAlways syncs every record, FsyncNever
// leaves flushing to the OS.
const (
	FsyncBatch  = wal.FsyncBatch
	FsyncAlways = wal.FsyncAlways
	FsyncNever  = wal.FsyncNever
)

// IntegrityPolicy selects how a store behaves after detecting tampering.
type IntegrityPolicy int

const (
	// FailStop (the default) preserves fail-fast semantics: every
	// operation that touches tampered state returns ErrIntegrity, trusted
	// state is never corrupted by the detection, and Stats().Health()
	// reports HealthFailed so operators can retire the instance. The
	// store does not guess at blast radius: each operation re-verifies
	// and fails on its own evidence.
	FailStop IntegrityPolicy = iota
	// Quarantine degrades instead of failing: a key whose verification
	// fails is marked poisoned and every later operation on it
	// short-circuits with ErrIntegrity (wrapping ErrQuarantined), while
	// untampered keys keep serving. Stats().Health() reports
	// HealthDegraded and QuarantinedKeys counts the poisoned set.
	Quarantine
)

// String returns "failstop" or "quarantine".
func (p IntegrityPolicy) String() string {
	switch p {
	case Quarantine:
		return "quarantine"
	default:
		return "failstop"
	}
}

// HealthState summarizes a store's integrity condition.
type HealthState string

const (
	// HealthOK means no integrity failure has been detected.
	HealthOK HealthState = "ok"
	// HealthDegraded means tampering was detected under Quarantine:
	// poisoned keys fail, the rest keep serving.
	HealthDegraded HealthState = "degraded"
	// HealthFailed means tampering was detected under FailStop: the
	// instance should be retired and re-attested.
	HealthFailed HealthState = "failed"
)

// Options configures a store. Zero values get paper defaults.
type Options struct {
	// Scheme selects the design (default AriaHash).
	Scheme Scheme
	// EPCBytes sizes the simulated EPC (default 91 MB, the paper's
	// testbed).
	EPCBytes int
	// ExpectedKeys sizes the counter area and index (default 1M).
	ExpectedKeys int
	// SecureCacheBytes is the Secure Cache EPC budget (default: as much
	// of the EPC as remains sensible, per the paper's "as large as
	// possible" setting — 80% of the EPC).
	SecureCacheBytes int
	// PinBudgetBytes is the EPC budget for Merkle level pinning
	// (default 4 MB).
	PinBudgetBytes int
	// Arity is the Merkle tree branch factor (default 8; Figure 15).
	Arity int
	// Policy is the Secure Cache replacement policy (default FIFO).
	Policy ReplacementPolicy
	// StopSwap enables the hit-ratio stop-swap mode (default on for
	// Aria schemes; set DisableStopSwap to turn off).
	DisableStopSwap bool
	// DisablePinning turns level pinning off (Figure 12 ablations).
	DisablePinning bool
	// OcallAlloc exits the enclave for every untrusted allocation
	// (the AriaBase arm of Figure 12).
	OcallAlloc bool
	// DisableCleanDiscard writes clean Secure Cache victims back on
	// eviction, modelling hardware EWB semantics (§IV-C ablation).
	DisableCleanDiscard bool
	// WithoutSGX prices enclave memory like ordinary DRAM and removes
	// paging/edge-call costs ("Aria w/o SGX" in Figure 12). Crypto
	// still runs.
	WithoutSGX bool
	// ShieldStoreRootBytes is the EPC budget for ShieldStore bucket
	// roots (default 64 MB, the paper's configuration).
	ShieldStoreRootBytes int
	// BucketLoad is the hash index target chain length (default 4).
	BucketLoad int
	// BTreeDegree is the B-tree minimum degree (default 8).
	BTreeDegree int
	// MaxKeySize bounds key length in bytes (default 256).
	MaxKeySize int
	// MaxValueSize bounds value length in bytes (default 4096).
	MaxValueSize int
	// IntegrityPolicy selects what happens after tamper detection
	// (default FailStop; see the policy docs).
	IntegrityPolicy IntegrityPolicy
	// Shards hash-partitions the keyspace across this many independent
	// enclave instances, each with a 1/N share of every EPC budget above
	// (the paper's multi-tenant split, §VI-D5). Each shard serializes on
	// its own lock, so operations on different shards run concurrently.
	// Default 1 (0 means the same): a single enclave with no router on
	// top — NumShards reports 1 and, when durable, the lineage sits at the
	// top of DataDir. Either way the store is safe for use from multiple
	// goroutines.
	Shards int
	// DataDir, when non-empty, makes the store durable: every
	// successful write is sealed (AES-CTR + chained CMAC under
	// seed-derived keys, simulating SGX sealing) and appended to a
	// write-ahead log in this directory, checkpoints write atomic
	// sealed snapshots, and Open recovers the committed state — newest
	// valid snapshot plus WAL replay, stopping cleanly at a torn tail
	// and routing tampered records through IntegrityPolicy. With
	// Shards > 1 each shard keeps its own lineage in a shard-<i>
	// subdirectory, recovered in parallel. Empty (the default) keeps the
	// store purely in-memory: Checkpoint then returns ErrNotDurable.
	DataDir string
	// Fsync selects when the WAL flushes (default FsyncBatch: one
	// fsync per append call, so batched writes group-commit). Only
	// meaningful with DataDir.
	Fsync FsyncPolicy
	// CheckpointEvery takes a background checkpoint after this many
	// logged records (0, the default, disables automatic checkpoints;
	// explicit Checkpoint calls always work). Only meaningful
	// with DataDir.
	CheckpointEvery int
	// ColdCompress enables the cold tier (DESIGN.md §15). Checkpoints
	// write immutable, sorted, compressed, sealed segments instead of
	// re-sealing the whole keyspace: an incremental checkpoint persists
	// only the keys written since the last one, and a sealed set
	// manifest names which segments constitute the recovery point. Keys
	// idle since the previous checkpoint are demoted out of enclave
	// memory into a compressed cold area and promoted
	// (decompress-on-miss) when touched again, shrinking resident bytes
	// so the EPC holds a larger hot set. Recovery = newest valid
	// segment set + WAL replay. Only meaningful with DataDir.
	ColdCompress bool
	// CompactEvery bounds the segment set: when a checkpoint would grow
	// the set past this many segments, it compacts — rewrites every
	// live key into one segment and starts a fresh set (default 8).
	// Only meaningful with ColdCompress.
	CompactEvery int
	// Seed drives deterministic initialisation.
	Seed uint64
	// MeasureOff creates the store with cycle accounting disabled (bulk
	// load); call Store.SetMeasuring(true) before the measured window.
	MeasureOff bool
	// Now, when non-nil, replaces the wall clock the TTL machinery reads
	// (expiry stamps, lazy-expiry checks, sweeper passes). Tests inject a
	// fake clock here; nil (the default) uses time.Now. Expiry deadlines
	// are stored as absolute timestamps, so the clock source must be
	// monotone for expiry to behave sensibly.
	Now func() time.Time
	// TTLSweepEvery, when positive, starts a background sweeper that
	// physically removes expired keys at this interval (expired keys are
	// always logically absent on read regardless — the sweeper only
	// reclaims memory). Each pass is charged to the cost simulator like
	// any other enclave work. Zero (the default) disables the background
	// goroutine: expired keys are reclaimed lazily as reads touch them.
	TTLSweepEvery time.Duration
	// Metrics, when non-nil, instruments the store into the given
	// registry: per-operation latency histograms (wall nanoseconds and
	// simulated cycles), operation/error counters, and scrape-time
	// enclave event counters (page swaps, ECALLs/OCALLs, MACs, Secure
	// Cache hits/misses), all labelled by shard. Scrapes read the store's
	// counters under the same per-shard lock operations take, so it is
	// safe to scrape while operations run. nil (the default) disables
	// instrumentation: nothing is registered, and each operation's
	// observe step is a nil check that reads no clock and allocates
	// nothing. See docs/OPERATIONS.md for the metric catalogue.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of a store and its enclave.
type Stats struct {
	Scheme  Scheme // which Scheme the store runs
	Gets    uint64 // Get operations since open/ResetStats
	Puts    uint64 // Put operations since open/ResetStats
	Deletes uint64 // Delete operations since open/ResetStats
	Keys    int    // live keys currently stored

	// SimCycles is the simulated clock; SimSeconds converts it at the
	// nominal 3.6 GHz.
	SimCycles  uint64
	SimSeconds float64 // SimCycles expressed in seconds at 3.6 GHz

	// PageSwaps counts EPC page evictions (4 KB granularity) in the
	// enclave simulator; the remaining fields count other priced
	// enclave events.
	PageSwaps uint64
	Ecalls    uint64 // enclave entries (edge calls in)
	Ocalls    uint64 // enclave exits (edge calls out)
	MACs      uint64 // AES-CMAC computations/verifications
	CTROps    uint64 // AES-CTR encrypt/decrypt operations

	// Batches counts batched enclave entries (one per MGet/MPut/MDelete
	// reaching this store) and BatchedKeys the keys they carried, so
	// BatchedKeys/Batches is the realized batch size and comparing
	// Batches against Ecalls shows how much of the edge-call budget the
	// batch path amortized.
	Batches     uint64
	BatchedKeys uint64 // keys carried by batched entries (see Batches)

	// CacheHits counts Secure Cache node hits (zero for schemes
	// without a Secure Cache), and the fields below describe the rest
	// of its behaviour.
	CacheHits     uint64
	CacheMisses   uint64  // Secure Cache node misses
	CacheHitRatio float64 // CacheHits / (CacheHits + CacheMisses)
	StopSwap      bool    // whether stop-swap mode engaged (paper §IV-E)
	PinnedLevels  int     // Merkle levels pinned resident in the EPC

	// EPCUsedBytes is the allocated enclave heap.
	EPCUsedBytes int

	// IntegrityPolicy echoes the policy the store was opened with (see
	// IntegrityPolicy and Health).
	IntegrityPolicy   IntegrityPolicy
	IntegrityFailures uint64 // tamper detections since open
	QuarantinedKeys   int    // keys poisoned under Quarantine

	// WALAppends counts group-committed WAL append calls; the
	// durability counters below are all zero unless the store was
	// opened with Options.DataDir.
	WALAppends uint64
	WALRecords uint64 // records sealed into the WAL
	WALBytes   uint64 // sealed bytes appended, framing included
	WALFsyncs  uint64 // fsyncs issued by the fsync policy
	// Checkpoints counts sealed snapshots taken since open.
	Checkpoints uint64
	// RecoveredRecords counts records recovery restored at Open:
	// snapshot pairs loaded plus WAL records replayed.
	RecoveredRecords uint64

	// ColdKeys counts keys currently demoted into the compressed cold
	// tier (Options.ColdCompress); the cold/compression/segment fields
	// below are all zero unless the cold tier is enabled.
	ColdKeys int
	// ColdBytes is the compressed bytes those keys occupy in the cold
	// area (what "resident" shrank by, roughly, before metadata).
	ColdBytes int
	// ColdHits counts accesses served by promoting a key out of the
	// cold tier (decompress-on-miss).
	ColdHits uint64
	// ColdMisses counts read lookups that found their key neither
	// resident nor in the cold tier.
	ColdMisses uint64
	// CompRawBytes totals the compressor's input bytes over demotions
	// and segment writes.
	CompRawBytes uint64
	// CompBytes totals the compressor's output bytes; CompBytes over
	// CompRawBytes is the realized compression ratio.
	CompBytes uint64
	// CompDictBytes is the serialized size of the newest trained
	// dictionary.
	CompDictBytes int
	// Segments counts the segment files in the current set.
	Segments int
	// SegmentBytes is the current set's total on-disk size.
	SegmentBytes int64
	// Compactions counts major compactions (full set rewrites).
	Compactions uint64

	// TxnCommits counts successfully committed multi-key transactions;
	// the remaining transactional/TTL counters below cover the richer
	// write semantics (CompareAndSwap, PutTTL, TxnCommit).
	TxnCommits uint64
	// TxnConflicts counts transaction commits rejected with
	// ErrTxnConflict (version validation failed; nothing applied).
	TxnConflicts uint64
	// CASMismatches counts CompareAndSwap calls rejected with
	// ErrCASMismatch.
	CASMismatches uint64
	// TTLExpired counts keys found expired by reads and reclaimed lazily.
	TTLExpired uint64
	// TTLSwept counts keys physically removed by background sweeper
	// passes.
	TTLSwept uint64
	// TTLSweeps counts completed background sweeper passes.
	TTLSweeps uint64

	// ReplRole is the node's replication role ("primary", "replica",
	// "fenced") when replication is active; empty otherwise. The
	// replication fields are filled by the serving layer, not the store
	// itself.
	ReplRole string
	// ReplGeneration is the sealed replication generation the node
	// serves under (zero when replication is inactive).
	ReplGeneration uint64
	// ReplLag is a replica's apply lag in sequence numbers behind the
	// primary's last known next sequence (zero on a primary).
	ReplLag uint64
}

// Health summarizes the store's integrity condition: HealthOK while no
// tampering has been detected, HealthDegraded when a Quarantine store is
// serving around poisoned keys, HealthFailed when a FailStop store has
// detected an attack and should be retired.
func (s Stats) Health() HealthState {
	switch {
	case s.IntegrityFailures == 0:
		return HealthOK
	case s.IntegrityPolicy == Quarantine:
		return HealthDegraded
	default:
		return HealthFailed
	}
}

// TxnOp is one operation of a multi-key transaction commit (see
// Store.TxnCommit). An op either writes (put, delete, put-with-TTL) or
// only validates (ReadOnly); any op may additionally carry a version
// check that must hold at commit time.
type TxnOp struct {
	// Key is the operation's key.
	Key []byte
	// Value is the value to write. Ignored for deletes and read-only
	// checks.
	Value []byte
	// Delete removes the key instead of writing Value.
	Delete bool
	// ReadOnly marks a pure validation entry: nothing is written, but
	// the version check (which must be set) still gates the commit.
	ReadOnly bool
	// TTL, when positive, gives the written value a time-to-live,
	// exactly like PutTTL. Ignored for deletes and read-only checks.
	TTL time.Duration
	// Check enables version validation: the key's current version must
	// equal Version (0 = key absent) or the commit fails with
	// ErrTxnConflict.
	Check bool
	// Version is the expected version when Check is set.
	Version uint64
}

// Store is the whole public surface of a store: every Store that Open
// returns, any scheme and any shard count, implements all of it. The
// "not supported" answers are errors, not missing methods: Scan on an
// unordered index returns ErrNoScan, Checkpoint without DataDir returns
// ErrNotDurable, and a store without DataDir reports zero WALShards.
// Every method is safe for concurrent use.
type Store interface {
	// Put inserts or updates a key.
	Put(key, value []byte) error
	// Get returns a copy of the value stored under key.
	Get(key []byte) ([]byte, error)
	// Delete removes a key.
	Delete(key []byte) error
	// MGet fetches a batch of keys through one enclave entry: the whole
	// batch pays a single ECALL/OCALL round trip and one boundary copy
	// per direction instead of per key. Results are positional: vals[i]
	// is keys[i]'s value or nil. The error slice is nil when every key
	// succeeded; otherwise it has len(keys) entries with nil at the
	// successful positions (ErrNotFound per absent key).
	MGet(keys [][]byte) (vals [][]byte, errs []error)
	// MPut applies a batch of writes through one enclave entry, with the
	// same amortized edge accounting and positional error contract as
	// MGet.
	MPut(pairs []KV) []error
	// MDelete removes a batch of keys through one enclave entry, with
	// the same amortized edge accounting and positional error contract
	// as MGet.
	MDelete(keys [][]byte) []error
	// GetV returns a copy of the value stored under key together with
	// the key's current version. Versions are assigned from a per-store
	// monotonic counter on every successful write, so a version observed
	// by GetV can later be handed to CompareAndSwap (or a Txn check) to
	// detect intervening writes — including delete/recreate cycles, which
	// always produce a fresh, strictly larger version (no ABA).
	GetV(key []byte) (value []byte, version uint64, err error)
	// CompareAndSwap writes value under key only if the key's current
	// version equals expect; otherwise it returns ErrCASMismatch and
	// changes nothing. expect == 0 means "the key must be absent"
	// (insert-if-absent). The version check runs against trusted
	// in-enclave metadata, so a successful CAS costs the same as a Put.
	CompareAndSwap(key, value []byte, expect uint64) error
	// PutTTL inserts or updates a key with a time-to-live: after ttl
	// elapses the key is logically absent (reads return ErrNotFound) and
	// is physically reclaimed lazily or by the background sweeper (see
	// Options.TTLSweepEvery). ttl <= 0 stores the key without expiry,
	// exactly like Put. Expiry deadlines are absolute timestamps sealed
	// into the WAL and snapshots, so they survive recovery.
	PutTTL(key, value []byte, ttl time.Duration) error
	// TxnCommit atomically validates and applies a multi-key
	// transaction: every op with Check set must find its key at exactly
	// Version (0 = absent), or the whole commit fails with
	// ErrTxnConflict and nothing is applied. On success all writes apply
	// and become durable through one sealed WAL group-commit record, so
	// recovery can never observe a partially applied transaction. Most
	// callers use the Txn overlay type rather than building ops by hand.
	TxnCommit(ops []TxnOp) error
	// Stats returns a snapshot of operation and enclave counters.
	Stats() Stats
	// VerifyIntegrity audits the entire store offline, returning
	// ErrIntegrity if any tampering is found.
	VerifyIntegrity() error
	// SetMeasuring toggles simulated-cycle accounting (exclude load
	// phases from measurements).
	SetMeasuring(on bool)
	// ResetStats zeroes the enclave clock and event counters (start of
	// a measured window).
	ResetStats()

	// Scan visits every pair with start <= key < end (nil end =
	// unbounded) in key order, stopping early when fn returns false. The
	// slices passed to fn are only valid during the call. Only AriaBPTree
	// keeps keys ordered; every other scheme returns ErrNoScan.
	Scan(start, end []byte, fn func(key, value []byte) bool) error

	// Durable is Checkpoint and Close.
	Durable
	// EdgeCaller is ChargeEcall: networked frontends (kvnet) charge one
	// enclave entry per request they carry across the trust boundary.
	EdgeCaller

	// NumShards returns the shard count (1 unless Options.Shards > 1).
	NumShards() int
	// ShardFor returns the index of the shard serving key.
	ShardFor(key []byte) int
	// ShardStats returns shard i's own snapshot; the aggregate Stats sums
	// counters and reports the slowest shard's clock.
	ShardStats(i int) Stats

	// WALShards returns the number of sealed WAL lineages a replica can
	// be fed from: one per shard when the store is durable, zero when it
	// was opened without DataDir and cannot be replicated. The two
	// methods below take a lineage index i < WALShards().
	WALShards() int
	// WALShardDir returns the directory holding lineage i's segment and
	// snapshot files.
	WALShardDir(i int) string
	// WALShardNextSeq returns the next sequence number lineage i will
	// assign; every record below it is committed.
	WALShardNextSeq(i int) uint64
	// SetCommitHook installs fn to run after every committed WAL append
	// on any lineage. fn runs under a shard's lock and must not block;
	// pass nil to clear.
	SetCommitHook(fn func())

	// UntrustedSize returns the size of the untrusted arena in bytes
	// (with Shards > 1, the concatenation of the shards' arenas, shard 0
	// first). The four untrusted-memory methods emulate a malicious host
	// for security demonstrations and tests; enclave (EPC) state is never
	// reachable through them.
	UntrustedSize() int
	// FlipUntrustedByte XORs one byte of untrusted memory with mask,
	// returning false if the offset is out of range.
	FlipUntrustedByte(offset int, mask byte) bool
	// SnapshotUntrusted copies the untrusted arena (for replay attacks).
	SnapshotUntrusted() []byte
	// RestoreUntrusted overwrites the untrusted arena with a snapshot
	// taken earlier (a wholesale replay attack).
	RestoreUntrusted(snap []byte)
}

// Open creates a store of the selected scheme inside a fresh simulated
// enclave — or, with Options.Shards > 1, a hash-partitioned family of
// them behind one Store (see sharded.go).
func Open(opts Options) (Store, error) {
	opts = optsWithDefaults(opts)
	if opts.Shards > 1 {
		return openSharded(opts)
	}
	if opts.DataDir != "" {
		// Refuse to open a directory that a sharded store claimed: its
		// manifest records Shards > 1, and recovering only the top-level
		// lineage would present an empty store (see manifest.go).
		if err := checkShardManifest(opts.DataDir, opts.Seed, 1); err != nil {
			return nil, err
		}
	}
	s, err := openShard(opts, opts.DataDir, "0")
	if err != nil {
		return nil, err
	}
	return s, nil
}

// optsWithDefaults fills zero values with the paper defaults. It runs on
// the aggregate options before any shard split, so defaults derive from
// the total budgets.
func optsWithDefaults(opts Options) Options {
	if opts.EPCBytes <= 0 {
		opts.EPCBytes = 91 << 20
	}
	if opts.ExpectedKeys <= 0 {
		opts.ExpectedKeys = 1 << 20
	}
	if opts.SecureCacheBytes == 0 {
		opts.SecureCacheBytes = opts.EPCBytes / 10 * 8
	}
	if opts.PinBudgetBytes == 0 {
		opts.PinBudgetBytes = 4 << 20
		if opts.PinBudgetBytes > opts.EPCBytes/8 {
			opts.PinBudgetBytes = opts.EPCBytes / 8
		}
	}
	if opts.ShieldStoreRootBytes == 0 {
		// The paper's configuration is 64 MB of roots; smaller EPCs get
		// the largest root array that still avoids secure paging.
		opts.ShieldStoreRootBytes = 64 << 20
		if opts.ShieldStoreRootBytes > opts.EPCBytes/10*7 {
			opts.ShieldStoreRootBytes = opts.EPCBytes / 10 * 7
		}
	}
	return opts
}

// engine is the seam between a shard and the scheme it runs: the five
// calls every scheme serves. Everything else a Store does — versions,
// expiry, batching, durability, the cold tier, metrics — is the shard's
// (shard.go) and is written once for all schemes.
type engine interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	VerifyIntegrity() error
	Keys() int
}

// engineErrs is one scheme's sentinel errors, in the order mapErr
// translates them to the public ones. A nil entry never matches: the
// baselines keep everything in the EPC, where hardware protects it, and
// have no software integrity failure to report.
type engineErrs struct{ notFound, integrity, tooLarge, emptyKey, noScan error }

var (
	coreErrs     = engineErrs{core.ErrNotFound, core.ErrIntegrity, core.ErrTooLarge, core.ErrEmptyKey, core.ErrNoScan}
	shieldErrs   = engineErrs{shieldstore.ErrNotFound, shieldstore.ErrIntegrity, shieldstore.ErrTooLarge, shieldstore.ErrEmptyKey, nil}
	baselineErrs = engineErrs{baseline.ErrNotFound, nil, baseline.ErrTooLarge, baseline.ErrEmptyKey, nil}
)

// mapErr translates the engine's sentinel errors to the public ones,
// keeping an integrity failure's original as context.
func (t *engineErrs) mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, t.notFound):
		return ErrNotFound
	case t.integrity != nil && errors.Is(err, t.integrity):
		return fmt.Errorf("%w: %v", ErrIntegrity, err)
	case errors.Is(err, t.tooLarge):
		return ErrTooLarge
	case errors.Is(err, t.emptyKey):
		return ErrEmptyKey
	case t.noScan != nil && errors.Is(err, t.noScan):
		return ErrNoScan
	}
	return err
}

// openEngine builds the selected scheme inside a fresh simulated enclave
// and hands it to a new shard.
func openEngine(opts Options) (*shard, error) {
	costs := sgx.DefaultCosts()
	if opts.WithoutSGX {
		costs = sgx.InsecureCosts()
	}
	enc := sgx.New(sgx.Config{
		EPCBytes:   opts.EPCBytes,
		Costs:      costs,
		MeasureOff: opts.MeasureOff,
	})
	s := &shard{scheme: opts.Scheme, enc: enc}
	switch opts.Scheme {
	case AriaHash, AriaTree, AriaBPTree, NoCacheHash, NoCacheTree:
		co := core.Options{
			ExpectedKeys:        opts.ExpectedKeys,
			BucketLoad:          opts.BucketLoad,
			Arity:               opts.Arity,
			CacheBytes:          opts.SecureCacheBytes,
			PinBudgetBytes:      opts.PinBudgetBytes,
			Policy:              opts.Policy,
			DisablePinning:      opts.DisablePinning,
			StopSwap:            !opts.DisableStopSwap,
			OcallAlloc:          opts.OcallAlloc,
			DisableCleanDiscard: opts.DisableCleanDiscard,
			MaxKeySize:          opts.MaxKeySize,
			MaxValueSize:        opts.MaxValueSize,
			BTreeDegree:         opts.BTreeDegree,
			Seed:                opts.Seed,
		}
		switch opts.Scheme {
		case AriaTree, NoCacheTree:
			co.Index = core.BTreeIndex
		case AriaBPTree:
			co.Index = core.BPTreeIndex
		default:
			co.Index = core.HashIndex
		}
		if opts.Scheme == NoCacheHash || opts.Scheme == NoCacheTree {
			co.PlainCounters = true
		}
		e, err := core.New(enc, co)
		if err != nil {
			return nil, err
		}
		s.eng, s.core, s.errs = e, e, coreErrs
	case ShieldStoreScheme:
		e, err := shieldstore.New(enc, shieldstore.Options{
			RootBudgetBytes: opts.ShieldStoreRootBytes,
			MaxKeySize:      opts.MaxKeySize,
			MaxValueSize:    opts.MaxValueSize,
			Seed:            opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		s.eng, s.errs = e, shieldErrs
	case BaselineHash, BaselineTree:
		e, err := baseline.New(enc, baseline.Options{
			ExpectedKeys: opts.ExpectedKeys,
			BucketLoad:   opts.BucketLoad,
			Tree:         opts.Scheme == BaselineTree,
			BTreeDegree:  opts.BTreeDegree,
			MaxKeySize:   opts.MaxKeySize,
			MaxValueSize: opts.MaxValueSize,
		})
		if err != nil {
			return nil, err
		}
		s.eng, s.errs = e, baselineErrs
	default:
		return nil, fmt.Errorf("aria: unknown scheme %v", opts.Scheme)
	}
	return s, nil
}

// EdgeCaller is the part of Store that charges one ECALL (enclave entry)
// per call. Networked frontends (kvnet) call it per request, modelling
// the edge-call cost a real deployment pays when requests originate
// outside the enclave.
type EdgeCaller interface {
	// ChargeEcall charges the simulated enclave one ECALL entry cost.
	ChargeEcall()
}
