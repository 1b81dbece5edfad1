package aria

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	partition "github.com/ariakv/aria/internal/shard"
)

// ConcurrentStore was a capability probe for stores safe for concurrent
// use.
//
// Deprecated: every Store is safe for concurrent use, nothing in this
// module implements ConcurrentSafe, and no frontend asks for it.
type ConcurrentStore interface {
	Store
	// ConcurrentSafe reported whether the store may be called from
	// multiple goroutines concurrently.
	ConcurrentSafe() bool
}

// openSharded builds Options.Shards independent shards, each with a
// fair split of every EPC budget, behind one concurrent router (the
// per-tenant EPC split of the paper's §VI-D5, turned into a scale-out
// unit).
func openSharded(opts Options) (Store, error) {
	n := opts.Shards
	if opts.DataDir != "" {
		// The shard count must agree with what DataDir records before
		// any lineage is touched: recovering N lineages under a
		// different router would silently strand committed keys.
		if err := checkShardManifest(opts.DataDir, opts.Seed, n); err != nil {
			return nil, err
		}
	}
	epcs := partition.SplitBudget(opts.EPCBytes, n)
	caches := partition.SplitBudget(opts.SecureCacheBytes, n)
	pins := partition.SplitBudget(opts.PinBudgetBytes, n)
	roots := partition.SplitBudget(opts.ShieldStoreRootBytes, n)
	keys := partition.SplitKeys(opts.ExpectedKeys, n)
	s := &shardedStore{
		shards: make([]*shard, n),
		router: partition.NewRouter(n),
		scheme: opts.Scheme,
	}
	// Cross-shard transactions pre-validate sizes up front, so no shard
	// can reject a write after another shard already applied its part.
	s.maxKey, s.maxValue = txnLimits(opts)
	// Shards build in parallel: with Options.DataDir each shard owns a
	// WAL+snapshot lineage in its shard-<i> subdirectory, and crash
	// recovery (snapshot load + WAL replay) runs concurrently across
	// shards — N independent enclaves recovering at once. Each gets its
	// own instruments, labelled shard="i": the per-shard breakout the
	// aggregate Stats() cannot give.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		so := opts
		so.Shards = 1
		so.EPCBytes = epcs[i]
		so.SecureCacheBytes = caches[i]
		so.PinBudgetBytes = pins[i]
		so.ShieldStoreRootBytes = roots[i]
		so.ExpectedKeys = keys
		so.Seed = opts.Seed + uint64(i)
		dir := ""
		if opts.DataDir != "" {
			dir = filepath.Join(opts.DataDir, fmt.Sprintf("shard-%d", i))
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.shards[i], errs[i] = openShard(so, dir, strconv.Itoa(i))
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// Close whatever opened so no WAL file handles leak.
		for _, sh := range s.shards {
			if sh != nil {
				sh.Close()
			}
		}
		return nil, err
	}
	return s, nil
}

// shardedStore routes every operation to the shard owning its key.
// Each shard serializes on its own lock, so operations on different
// shards run truly concurrently — N enclave threads instead of one —
// and the router itself holds no lock and no state beyond the round-robin
// cursor. Each shard carries its own integrity guard: a quarantined key
// on shard 3 degrades shard 3 only, and the other shards keep serving
// untouched.
type shardedStore struct {
	shards   []*shard
	router   partition.Router
	scheme   Scheme
	maxKey   int
	maxValue int
	rr       atomic.Uint64 // round-robin for charges not tied to a key
}

func (s *shardedStore) pick(key []byte) *shard { return s.shards[s.router.Pick(key)] }

func (s *shardedStore) NumShards() int { return len(s.shards) }

func (s *shardedStore) ShardFor(key []byte) int { return s.router.Pick(key) }

func (s *shardedStore) ShardStats(i int) Stats { return s.shards[i].Stats() }

// WALShards is one lineage per shard when the shards are durable, zero
// (not replicable) otherwise.
func (s *shardedStore) WALShards() int { return len(s.shards) * s.shards[0].WALShards() }

func (s *shardedStore) WALShardDir(i int) string { return s.shards[i].WALShardDir(0) }

// WALShardNextSeq reads shard i's lineage (the shard's own lock
// serializes against concurrent appends).
func (s *shardedStore) WALShardNextSeq(i int) uint64 { return s.shards[i].WALShardNextSeq(0) }

// SetCommitHook fans the same hook out to every shard's lineage.
func (s *shardedStore) SetCommitHook(fn func()) {
	for _, sh := range s.shards {
		sh.SetCommitHook(fn)
	}
}

func (s *shardedStore) Put(key, value []byte) error { return s.pick(key).Put(key, value) }

func (s *shardedStore) Get(key []byte) ([]byte, error) { return s.pick(key).Get(key) }

func (s *shardedStore) Delete(key []byte) error { return s.pick(key).Delete(key) }

func (s *shardedStore) GetV(key []byte) ([]byte, uint64, error) { return s.pick(key).GetV(key) }

func (s *shardedStore) CompareAndSwap(key, value []byte, expect uint64) error {
	return s.pick(key).CompareAndSwap(key, value, expect)
}

func (s *shardedStore) PutTTL(key, value []byte, ttl time.Duration) error {
	return s.pick(key).PutTTL(key, value, ttl)
}

// putExpireAbs implements recordApplier (the replica apply path),
// routing the absolute-deadline write to the shard owning the key.
func (s *shardedStore) putExpireAbs(key, value []byte, exp int64) error {
	return s.pick(key).putExpireAbs(key, value, exp)
}

// ---- transactions across shards --------------------------------------------------

// TxnCommit commits an optimistic transaction whose keys may span
// shards. Single-shard transactions delegate directly and inherit the
// shard's one-WAL-record atomicity. Cross-shard transactions take every
// involved shard's lock in ascending index order (no deadlock against
// other transactions), validate every shard's checks first, and only
// then apply — so a conflict anywhere aborts the whole transaction with
// nothing applied. Each writing shard then seals its own writes as one
// WAL record; durability of the cross-shard group is per shard (see
// docs/DESIGN.md on the crash window between shard commits).
func (s *shardedStore) TxnCommit(ops []TxnOp) error {
	if len(ops) == 0 {
		return fmt.Errorf("aria: empty transaction")
	}
	// Pre-validate shapes up front: once phase 2 starts applying, a
	// later shard must not be able to reject a malformed write.
	for i := range ops {
		op := &ops[i]
		if len(op.Key) == 0 {
			return ErrEmptyKey
		}
		if op.ReadOnly {
			if !op.Check {
				return fmt.Errorf("aria: read-only txn op without version check")
			}
			continue
		}
		if len(op.Key) > s.maxKey {
			return fmt.Errorf("%w: key %d bytes (max %d)", ErrTooLarge, len(op.Key), s.maxKey)
		}
		if !op.Delete && len(op.Value) > s.maxValue {
			return fmt.Errorf("%w: value %d bytes (max %d)", ErrTooLarge, len(op.Value), s.maxValue)
		}
	}
	groups := make([][]TxnOp, len(s.shards))
	involved := make([]int, 0, 2)
	for i := range ops {
		sh := s.router.Pick(ops[i].Key)
		if len(groups[sh]) == 0 {
			involved = append(involved, sh)
		}
		groups[sh] = append(groups[sh], ops[i])
	}
	if len(involved) == 1 {
		return s.shards[involved[0]].TxnCommit(ops)
	}
	sort.Ints(involved)
	for _, sh := range involved {
		s.shards[sh].mu.Lock()
		defer s.shards[sh].mu.Unlock()
	}
	// Phase 1: validate every shard's read set while all locks are held.
	// A failure here aborts with zero writes applied anywhere.
	for _, sh := range involved {
		checks := txnChecksOnly(groups[sh])
		if len(checks) == 0 {
			continue
		}
		if err := s.shards[sh].txnCommit(checks); err != nil {
			return err
		}
	}
	// Phase 2: apply each shard's writes with checks stripped — the
	// validation above already passed under these same locks, and
	// re-checking would observe versions bumped by phase 2 itself.
	var errs []error
	for _, sh := range involved {
		writes := txnWritesOnly(groups[sh])
		if len(writes) == 0 {
			continue
		}
		if err := s.shards[sh].txnCommit(writes); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", sh, err))
		}
	}
	return errors.Join(errs...)
}

// txnChecksOnly extracts a validation-only transaction from one shard's
// ops: every version check, converted to a read-only op.
func txnChecksOnly(ops []TxnOp) []TxnOp {
	var checks []TxnOp
	for i := range ops {
		if ops[i].Check {
			checks = append(checks, TxnOp{Key: ops[i].Key, ReadOnly: true, Check: true, Version: ops[i].Version})
		}
	}
	return checks
}

// txnWritesOnly extracts one shard's writes with version checks
// stripped, for the apply phase of a cross-shard commit.
func txnWritesOnly(ops []TxnOp) []TxnOp {
	var writes []TxnOp
	for i := range ops {
		if ops[i].ReadOnly {
			continue
		}
		w := ops[i]
		w.Check = false
		w.Version = 0
		writes = append(writes, w)
	}
	return writes
}

// applyTxnWrites implements recordApplier (the replica apply path). A
// replicated txn record comes from one primary shard's lineage and the
// manifest pins the replica to the same shard count, so its writes route
// to one shard here too, which re-seals them as one record.
func (s *shardedStore) applyTxnWrites(writes []txnWrite) error {
	if len(writes) == 0 {
		return nil
	}
	sh := s.router.Pick(writes[0].key)
	for i := range writes {
		if s.router.Pick(writes[i].key) != sh {
			return fmt.Errorf("%w: replicated txn record spans shards %d and %d (replica diverged)",
				ErrIntegrity, sh, s.router.Pick(writes[i].key))
		}
	}
	return s.shards[sh].applyTxnWrites(writes)
}

// ---- batched operations across shards -------------------------------------------

// scatter partitions batch positions by owning shard — positions, not
// keys, which is what makes reassembly order-preserving — and fans one
// sub-batch per involved shard out to parallel goroutines: N enclaves
// each entered once. run receives the shard and its batch positions and
// returns the sub-batch's positional errors, which scatter folds back
// into the caller's positions.
func (s *shardedStore) scatter(n int, key func(i int) []byte, run func(sh *shard, idx []int) []error) []error {
	pos := make([][]int, len(s.shards))
	for i := 0; i < n; i++ {
		sh := s.router.Pick(key(i))
		pos[sh] = append(pos[sh], i)
	}
	var wg sync.WaitGroup
	var emu sync.Mutex
	var errs []error
	for sh, idx := range pos {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, idx []int) {
			defer wg.Done()
			es := run(sh, idx)
			if es == nil {
				return
			}
			emu.Lock()
			defer emu.Unlock()
			for j, p := range idx {
				if es[j] != nil {
					errs = batchErr(errs, n, p, es[j])
				}
			}
		}(s.shards[sh], idx)
	}
	wg.Wait()
	return errs
}

// MGet fans the batch out across shards in parallel and reassembles the
// results in the caller's key order. Each shard charges its own batched
// enclave entry for its sub-batch.
func (s *shardedStore) MGet(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := s.scatter(len(keys), func(i int) []byte { return keys[i] }, func(sh *shard, idx []int) []error {
		sub := make([][]byte, len(idx))
		for j, p := range idx {
			sub[j] = keys[p]
		}
		vs, es := sh.MGet(sub)
		for j, p := range idx {
			vals[p] = vs[j] // disjoint positions: goroutines never collide
		}
		return es
	})
	return vals, errs
}

// MPut fans the write batch out across shards in parallel with the same
// order-preserving reassembly as MGet.
func (s *shardedStore) MPut(pairs []KV) []error {
	return s.scatter(len(pairs), func(i int) []byte { return pairs[i].Key }, func(sh *shard, idx []int) []error {
		sub := make([]KV, len(idx))
		for j, p := range idx {
			sub[j] = pairs[p]
		}
		return sh.MPut(sub)
	})
}

// MDelete fans the delete batch out across shards in parallel with the
// same order-preserving reassembly as MGet.
func (s *shardedStore) MDelete(keys [][]byte) []error {
	return s.scatter(len(keys), func(i int) []byte { return keys[i] }, func(sh *shard, idx []int) []error {
		sub := make([][]byte, len(idx))
		for j, p := range idx {
			sub[j] = keys[p]
		}
		return sh.MDelete(sub)
	})
}

// Stats aggregates across shards: event and operation counters sum;
// SimCycles/SimSeconds report the slowest shard (the shards execute in
// parallel, so the straggler's clock is the wall clock); Health() is
// worst-of by construction, because any shard's integrity failures land
// in the summed IntegrityFailures and the policy is uniform.
func (s *shardedStore) Stats() Stats {
	agg := Stats{Scheme: s.scheme}
	stopSwap := true
	for i := range s.shards {
		st := s.ShardStats(i)
		agg.Gets += st.Gets
		agg.Puts += st.Puts
		agg.Deletes += st.Deletes
		agg.Keys += st.Keys
		agg.PageSwaps += st.PageSwaps
		agg.Ecalls += st.Ecalls
		agg.Ocalls += st.Ocalls
		agg.MACs += st.MACs
		agg.CTROps += st.CTROps
		agg.Batches += st.Batches
		agg.BatchedKeys += st.BatchedKeys
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		agg.EPCUsedBytes += st.EPCUsedBytes
		agg.IntegrityFailures += st.IntegrityFailures
		agg.QuarantinedKeys += st.QuarantinedKeys
		agg.IntegrityPolicy = st.IntegrityPolicy
		agg.TxnCommits += st.TxnCommits
		agg.TxnConflicts += st.TxnConflicts
		agg.CASMismatches += st.CASMismatches
		agg.TTLExpired += st.TTLExpired
		agg.TTLSwept += st.TTLSwept
		agg.TTLSweeps += st.TTLSweeps
		agg.WALAppends += st.WALAppends
		agg.WALRecords += st.WALRecords
		agg.WALBytes += st.WALBytes
		agg.WALFsyncs += st.WALFsyncs
		agg.Checkpoints += st.Checkpoints
		agg.RecoveredRecords += st.RecoveredRecords
		agg.ColdKeys += st.ColdKeys
		agg.ColdBytes += st.ColdBytes
		agg.ColdHits += st.ColdHits
		agg.ColdMisses += st.ColdMisses
		agg.CompRawBytes += st.CompRawBytes
		agg.CompBytes += st.CompBytes
		agg.CompDictBytes += st.CompDictBytes
		agg.Segments += st.Segments
		agg.SegmentBytes += st.SegmentBytes
		agg.Compactions += st.Compactions
		if st.SimCycles > agg.SimCycles {
			agg.SimCycles = st.SimCycles
			agg.SimSeconds = st.SimSeconds
		}
		if st.PinnedLevels > agg.PinnedLevels {
			agg.PinnedLevels = st.PinnedLevels
		}
		stopSwap = stopSwap && st.StopSwap
	}
	if lookups := agg.CacheHits + agg.CacheMisses; lookups > 0 {
		agg.CacheHitRatio = float64(agg.CacheHits) / float64(lookups)
	}
	agg.StopSwap = stopSwap
	return agg
}

// each runs fn on every shard in parallel and joins the errors.
func (s *shardedStore) each(fn func(sh *shard) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = fn(sh)
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Checkpoint checkpoints every shard — N independent lineages — and
// joins the per-shard errors. The fan-out is parallel; snapshot runs then
// take the process-wide slots (durable.go), segment checkpoints do not.
// Opened without DataDir the shards are not durable and every one
// reports ErrNotDurable.
func (s *shardedStore) Checkpoint() error { return s.each((*shard).Checkpoint) }

// Close flushes and closes every durable shard's log. Non-durable
// shards have nothing but a background goroutine to release, so Close is
// always safe to defer regardless of how the store was opened.
func (s *shardedStore) Close() error { return s.each((*shard).Close) }

// VerifyIntegrity audits every shard and joins their errors, so one
// tampered shard cannot mask — or abort the audit of — the others.
func (s *shardedStore) VerifyIntegrity() error {
	var errs []error
	for _, sh := range s.shards {
		if err := sh.VerifyIntegrity(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (s *shardedStore) SetMeasuring(on bool) {
	for _, sh := range s.shards {
		sh.SetMeasuring(on)
	}
}

func (s *shardedStore) ResetStats() {
	for _, sh := range s.shards {
		sh.ResetStats()
	}
}

// Scan merges the per-shard ordered scans into one globally ordered
// stream (shards hold disjoint keys, so no duplicates can occur). Each
// shard's lock is held per pulled batch, not across the whole merge, so
// point operations on other shards proceed while a scan runs. Schemes
// without an ordered index return ErrNoScan, same as unsharded.
func (s *shardedStore) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	scans := make([]partition.ScanFunc, len(s.shards))
	for i, sh := range s.shards {
		scans[i] = sh.Scan
	}
	return partition.Merge(scans, start, end, 0, fn)
}

// ChargeEcall distributes per-request enclave-entry charges round-robin:
// the frontend does not know which shard a request will route to when it
// crosses the trust boundary, and over many requests the charge lands
// evenly, matching N enclaves each paying their own entries.
func (s *shardedStore) ChargeEcall() {
	s.shards[int(s.rr.Add(1)-1)%len(s.shards)].ChargeEcall()
}

// ---- fault injection across shards ---------------------------------------------

// The sharded store addresses untrusted memory as the concatenation of
// its shards' arenas (shard 0 first), so attack demos and tests target a
// byte of one specific shard's memory. Shards whose scheme keeps
// everything in the EPC (baselines) contribute zero bytes. Every access
// takes the shard's lock: the enclave simulator's arenas are plain
// memory, so an unlocked read (even a size probe) races with concurrent
// writers on other goroutines. An arena only grows, so an offset that a
// size probe placed inside one stays inside it.

func (s *shardedStore) UntrustedSize() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.UntrustedSize()
	}
	return total
}

// FlipUntrustedByte's offset addresses the concatenation of per-shard
// arenas.
func (s *shardedStore) FlipUntrustedByte(offset int, mask byte) bool {
	if offset < 0 {
		return false
	}
	for _, sh := range s.shards {
		n := sh.UntrustedSize()
		if offset < n {
			return sh.FlipUntrustedByte(offset, mask)
		}
		offset -= n
	}
	return false
}

func (s *shardedStore) SnapshotUntrusted() []byte {
	var out []byte
	for _, sh := range s.shards {
		out = append(out, sh.SnapshotUntrusted()...)
	}
	return out
}

// RestoreUntrusted splits the snapshot back into per-shard arena
// prefixes.
func (s *shardedStore) RestoreUntrusted(snap []byte) {
	for _, sh := range s.shards {
		n := min(sh.UntrustedSize(), len(snap))
		sh.RestoreUntrusted(snap[:n])
		if snap = snap[n:]; len(snap) == 0 {
			return
		}
	}
}
