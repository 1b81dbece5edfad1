package aria

import (
	"errors"
	"time"

	"github.com/ariakv/aria/internal/sgx"
	"github.com/ariakv/aria/obs"
)

// This file wires the obs metrics registry into the op path. When
// Options.Metrics is nil (the default) a shard's instruments are nil and
// the observe stage is a nil check: no clock is read, nothing is
// registered, nothing allocated (TestMetricsDisabledPathUnchanged
// asserts it, and the CI overhead guard benchmarks the branch).
//
// When a registry is supplied, every shard gets instruments carrying a
// shard label ("0" for an unsharded store, the shard index under
// Options.Shards). The observe stage records per-operation latency in
// wall nanoseconds AND simulated cycles, inside the shard lock, and a
// scrape-time collector reads the shard's Stats() under that same lock —
// making the registry a synchronized read path into the enclave
// simulator's plain (non-atomic) counters, safe to scrape under load.

// Metric family names emitted by the store layer. docs/OPERATIONS.md
// documents each; the parity test enforces that the catalogue and the
// endpoint never drift apart.
const (
	metricOpWallNs          = "aria_op_wall_ns"
	metricOpSimCycles       = "aria_op_sim_cycles"
	metricOpsTotal          = "aria_ops_total"
	metricOpErrorsTotal     = "aria_op_errors_total"
	metricSimCyclesTotal    = "aria_sim_cycles_total"
	metricPageSwapsTotal    = "aria_page_swaps_total"
	metricEcallsTotal       = "aria_ecalls_total"
	metricOcallsTotal       = "aria_ocalls_total"
	metricMACsTotal         = "aria_macs_total"
	metricCTROpsTotal       = "aria_ctr_ops_total"
	metricCacheHitsTotal    = "aria_cache_hits_total"
	metricCacheMissesTotal  = "aria_cache_misses_total"
	metricCacheHitRatio     = "aria_cache_hit_ratio"
	metricEPCUsedBytes      = "aria_epc_used_bytes"
	metricKeys              = "aria_keys"
	metricIntegrityFailures = "aria_integrity_failures_total"
	metricQuarantinedKeys   = "aria_quarantined_keys"
	metricHealth            = "aria_health"
	metricStopSwap          = "aria_stop_swap"
	metricPinnedLevels      = "aria_pinned_levels"
	metricBatchSize         = "aria_batch_size"
	metricBatchWallNs       = "aria_batch_wall_ns"
	metricBatchSimCycles    = "aria_batch_sim_cycles"
	metricBatchKeySimCycles = "aria_batch_key_sim_cycles"
	metricBatchesTotal      = "aria_batches_total"
	metricBatchKeysTotal    = "aria_batch_keys_total"
	metricBatchKeyErrors    = "aria_batch_key_errors_total"
	metricWALAppends        = "aria_wal_appends_total"
	metricWALRecords        = "aria_wal_records_total"
	metricWALBytes          = "aria_wal_appended_bytes_total"
	metricWALFsyncs         = "aria_wal_fsyncs_total"
	metricCheckpoints       = "aria_checkpoints_total"
	metricCheckpointWallNs  = "aria_checkpoint_wall_ns"
	metricCheckpointStallNs = "aria_checkpoint_stall_ns"
	metricCkptPreimages     = "aria_checkpoint_preimages_total"
	metricBackgroundErrors  = "aria_background_errors_total"
	metricRecoveredRecords  = "aria_recovered_records"
	metricTxnCommits        = "aria_txn_commits_total"
	metricTxnConflicts      = "aria_txn_conflicts_total"
	metricCASMismatches     = "aria_txn_cas_mismatches_total"
	metricTTLExpired        = "aria_ttl_expired_total"
	metricTTLSwept          = "aria_ttl_swept_total"
	metricTTLSweeps         = "aria_ttl_sweeps_total"
	metricCompRatio         = "aria_comp_ratio"
	metricCompDictBytes     = "aria_comp_dict_bytes"
	metricCompColdKeys      = "aria_comp_cold_keys"
	metricCompColdBytes     = "aria_comp_cold_bytes"
	metricCompColdHits      = "aria_comp_cold_hits_total"
	metricCompColdMisses    = "aria_comp_cold_misses_total"
	metricCompRawBytes      = "aria_comp_raw_bytes_total"
	metricCompBytes         = "aria_comp_bytes_total"
	metricSegCount          = "aria_seg_count"
	metricSegBytes          = "aria_seg_bytes"
	metricSegCompactions    = "aria_seg_compactions_total"
	metricSegCompactWallNs  = "aria_seg_compact_wall_ns"
)

// opKind indexes the per-operation instrument arrays.
type opKind int

const (
	opKindGet opKind = iota
	opKindPut
	opKindDelete
	opKindScan
	opKindCAS
	opKindCount
)

var opKindNames = [opKindCount]string{"get", "put", "delete", "scan", "cas"}

// batchKind indexes the per-batch-operation instrument arrays.
type batchKind int

const (
	batchKindMGet batchKind = iota
	batchKindMPut
	batchKindMDelete
	batchKindTxn
	batchKindCount
)

var batchKindNames = [batchKindCount]string{"mget", "mput", "mdelete", "txn"}

// instruments is one shard's set of metric handles. A nil *instruments
// observes nothing.
type instruments struct {
	enc *sgx.Enclave

	wall   [opKindCount]*obs.Histogram
	cycles [opKindCount]*obs.Histogram
	ops    [opKindCount]*obs.Counter
	errs   [opKindCount]*obs.Counter

	bsize      [batchKindCount]*obs.Histogram
	bwall      [batchKindCount]*obs.Histogram
	bcycles    [batchKindCount]*obs.Histogram
	bkeyCycles [batchKindCount]*obs.Histogram
	batches    [batchKindCount]*obs.Counter
	bkeys      [batchKindCount]*obs.Counter
	bkeyErrs   [batchKindCount]*obs.Counter

	ckptWall      *obs.Histogram
	ckptStall     *obs.Histogram
	ckptPreimages *obs.Counter
	compactWall   *obs.Histogram
	bgCkptErrs    *obs.Counter
}

// newInstruments registers one shard's instruments, labelled {op,
// shard}, and its scrape-time collector; stats is the shard's Stats,
// which takes the shard lock.
func newInstruments(reg *obs.Registry, enc *sgx.Enclave, shard string, stats func() Stats) *instruments {
	m := &instruments{enc: enc}
	for k := opKind(0); k < opKindCount; k++ {
		l := obs.Labels{"op": opKindNames[k], "shard": shard}
		m.wall[k] = reg.Histogram(metricOpWallNs,
			"Store operation latency in wall-clock nanoseconds.", l)
		m.cycles[k] = reg.Histogram(metricOpSimCycles,
			"Store operation latency in simulated enclave cycles.", l)
		m.ops[k] = reg.Counter(metricOpsTotal,
			"Store operations started, by op and shard.", l)
		m.errs[k] = reg.Counter(metricOpErrorsTotal,
			"Store operations failed (not-found excluded), by op and shard.", l)
	}
	for k := batchKind(0); k < batchKindCount; k++ {
		l := obs.Labels{"op": batchKindNames[k], "shard": shard}
		m.bsize[k] = reg.Histogram(metricBatchSize,
			"Keys per batch operation.", l)
		m.bwall[k] = reg.Histogram(metricBatchWallNs,
			"Whole-batch latency in wall-clock nanoseconds.", l)
		m.bcycles[k] = reg.Histogram(metricBatchSimCycles,
			"Whole-batch latency in simulated enclave cycles.", l)
		m.bkeyCycles[k] = reg.Histogram(metricBatchKeySimCycles,
			"Amortized per-key simulated cycles within a batch.", l)
		m.batches[k] = reg.Counter(metricBatchesTotal,
			"Batch operations started, by op and shard.", l)
		m.bkeys[k] = reg.Counter(metricBatchKeysTotal,
			"Keys carried by batch operations, by op and shard.", l)
		m.bkeyErrs[k] = reg.Counter(metricBatchKeyErrors,
			"Keys that failed inside a batch (not-found excluded), by op and shard.", l)
	}
	sl := obs.Labels{"shard": shard}
	// Registered eagerly (not on first checkpoint) so the family appears
	// on /metrics from the first scrape and the docs-parity test sees it
	// even on stores opened without DataDir.
	m.ckptWall = reg.Histogram(metricCheckpointWallNs,
		"Checkpoint run (capture + sealed write + WAL truncation) duration in wall-clock nanoseconds, manual and background.", sl)
	m.ckptStall = reg.Histogram(metricCheckpointStallNs,
		"Longest single hold of the shard lock by each checkpoint run, in wall-clock nanoseconds: what a request can wait behind it.", sl)
	m.ckptPreimages = reg.Counter(metricCkptPreimages,
		"Values captured by writes ahead of a snapshot run's walker (copy-on-write pre-images).", sl)
	m.bgCkptErrs = reg.Counter(metricBackgroundErrors,
		"Background task runs that failed, by task and shard.", obs.Labels{"task": "checkpoint", "shard": shard})
	m.compactWall = reg.Histogram(metricSegCompactWallNs,
		"Major segment compaction duration in wall-clock nanoseconds (checkpoints that rewrote the full segment set).", sl)
	reg.RegisterCollector(func(emit obs.Emit) {
		st := stats()
		emit(metricSimCyclesTotal, "Simulated enclave clock, cycles.", obs.TypeCounter, sl, float64(st.SimCycles))
		emit(metricPageSwapsTotal, "EPC secure-paging swaps (paging penalties paid).", obs.TypeCounter, sl, float64(st.PageSwaps))
		emit(metricEcallsTotal, "Enclave entries (ECALLs).", obs.TypeCounter, sl, float64(st.Ecalls))
		emit(metricOcallsTotal, "Enclave exits (OCALLs).", obs.TypeCounter, sl, float64(st.Ocalls))
		emit(metricMACsTotal, "CMAC computations.", obs.TypeCounter, sl, float64(st.MACs))
		emit(metricCTROpsTotal, "AES-CTR encrypt/decrypt operations.", obs.TypeCounter, sl, float64(st.CTROps))
		emit(metricCacheHitsTotal, "Secure Cache (EPC) hits.", obs.TypeCounter, sl, float64(st.CacheHits))
		emit(metricCacheMissesTotal, "Secure Cache (EPC) misses.", obs.TypeCounter, sl, float64(st.CacheMisses))
		emit(metricCacheHitRatio, "Secure Cache hit ratio, 0..1.", obs.TypeGauge, sl, st.CacheHitRatio)
		emit(metricEPCUsedBytes, "Allocated enclave heap bytes.", obs.TypeGauge, sl, float64(st.EPCUsedBytes))
		emit(metricKeys, "Live keys in the store.", obs.TypeGauge, sl, float64(st.Keys))
		emit(metricIntegrityFailures, "Detected integrity violations.", obs.TypeCounter, sl, float64(st.IntegrityFailures))
		emit(metricQuarantinedKeys, "Keys poisoned under the Quarantine policy.", obs.TypeGauge, sl, float64(st.QuarantinedKeys))
		emit(metricHealth, "Store health: 0 ok, 1 degraded, 2 failed.", obs.TypeGauge, sl, healthValue(st.Health()))
		emit(metricStopSwap, "Secure Cache stop-swap mode engaged (0/1).", obs.TypeGauge, sl, boolValue(st.StopSwap))
		emit(metricPinnedLevels, "Merkle levels pinned in the EPC.", obs.TypeGauge, sl, float64(st.PinnedLevels))
		emit(metricWALAppends, "Sealed WAL append groups (group commits).", obs.TypeCounter, sl, float64(st.WALAppends))
		emit(metricWALRecords, "Sealed records appended to the WAL.", obs.TypeCounter, sl, float64(st.WALRecords))
		emit(metricWALBytes, "Sealed bytes appended to the WAL (framing included).", obs.TypeCounter, sl, float64(st.WALBytes))
		emit(metricWALFsyncs, "fsync calls issued by the WAL.", obs.TypeCounter, sl, float64(st.WALFsyncs))
		emit(metricCheckpoints, "Sealed snapshots completed.", obs.TypeCounter, sl, float64(st.Checkpoints))
		emit(metricRecoveredRecords, "WAL records replayed by the last recovery.", obs.TypeGauge, sl, float64(st.RecoveredRecords))
		emit(metricTxnCommits, "Transactions committed (write-applying commits).", obs.TypeCounter, sl, float64(st.TxnCommits))
		emit(metricTxnConflicts, "Transactions aborted by version-check conflicts.", obs.TypeCounter, sl, float64(st.TxnConflicts))
		emit(metricCASMismatches, "CompareAndSwap calls rejected on a version mismatch.", obs.TypeCounter, sl, float64(st.CASMismatches))
		emit(metricTTLExpired, "Expired keys reclaimed lazily by reads.", obs.TypeCounter, sl, float64(st.TTLExpired))
		emit(metricTTLSwept, "Expired keys reclaimed by background sweeps.", obs.TypeCounter, sl, float64(st.TTLSwept))
		emit(metricTTLSweeps, "Background expiry sweep passes completed.", obs.TypeCounter, sl, float64(st.TTLSweeps))
		ratio := 1.0
		if st.CompRawBytes > 0 {
			ratio = float64(st.CompBytes) / float64(st.CompRawBytes)
		}
		emit(metricCompRatio, "Cold-tier compression ratio, compressed/raw bytes (1 when nothing compressed yet).", obs.TypeGauge, sl, ratio)
		emit(metricCompDictBytes, "Serialized size of the live cold-tier pattern dictionary.", obs.TypeGauge, sl, float64(st.CompDictBytes))
		emit(metricCompColdKeys, "Keys demoted to the compressed cold tier.", obs.TypeGauge, sl, float64(st.ColdKeys))
		emit(metricCompColdBytes, "Compressed bytes resident in the cold tier.", obs.TypeGauge, sl, float64(st.ColdBytes))
		emit(metricCompColdHits, "Reads promoted from the cold tier (decompress-on-miss).", obs.TypeCounter, sl, float64(st.ColdHits))
		emit(metricCompColdMisses, "Reads that found the key in neither the hot index nor the cold tier.", obs.TypeCounter, sl, float64(st.ColdMisses))
		emit(metricCompRawBytes, "Raw bytes fed to the cold-tier compressor.", obs.TypeCounter, sl, float64(st.CompRawBytes))
		emit(metricCompBytes, "Bytes produced by the cold-tier compressor.", obs.TypeCounter, sl, float64(st.CompBytes))
		emit(metricSegCount, "Sealed segments in the live segment set.", obs.TypeGauge, sl, float64(st.Segments))
		emit(metricSegBytes, "On-disk bytes held by the live segment set (manifest included).", obs.TypeGauge, sl, float64(st.SegmentBytes))
		emit(metricSegCompactions, "Major compactions (full segment-set rewrites) completed.", obs.TypeCounter, sl, float64(st.Compactions))
	})
	return m
}

func healthValue(h HealthState) float64 {
	switch h {
	case HealthDegraded:
		return 1
	case HealthFailed:
		return 2
	}
	return 0
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// begin opens one operation's observation window: the wall clock and
// the simulated clock, read under the shard lock so lock wait is not
// part of the latency. Without instruments neither clock is read.
func (s *shard) begin() (time.Time, uint64) {
	if s.ins == nil {
		return time.Time{}, 0
	}
	return time.Now(), s.enc.Cycles()
}

// observe records one finished operation. Not-found is a normal outcome
// for Get/Delete, and optimistic-concurrency losses (CAS mismatch, txn
// conflict) are expected contention, not operational errors. A versioned
// read is observed as a get, a TTL write as a put.
func (m *instruments) observe(k opKind, t0 time.Time, c0 uint64, err error) {
	if m != nil { // kept this small so the disabled path inlines to the check
		m.record(k, t0, c0, err)
	}
}

func (m *instruments) record(k opKind, t0 time.Time, c0 uint64, err error) {
	m.ops[k].Inc()
	if err != nil && !expectedOutcome(err) {
		m.errs[k].Inc()
	}
	m.wall[k].Record(uint64(time.Since(t0)))
	m.cycles[k].Record(m.enc.Cycles() - c0)
}

// expectedOutcome reports whether err is a normal protocol outcome
// rather than an operational failure.
func expectedOutcome(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrCASMismatch) || errors.Is(err, ErrTxnConflict)
}

// observeBatch records one finished batch operation: realized batch size,
// whole-batch latency in both clocks, the amortized per-key cycle cost, and
// per-key failures (not-found is a normal outcome, not an error).
func (m *instruments) observeBatch(k batchKind, n int, t0 time.Time, c0 uint64, errs []error) {
	if m == nil {
		return
	}
	m.batches[k].Inc()
	m.bkeys[k].Add(uint64(n))
	var bad uint64
	for _, e := range errs {
		if e != nil && !expectedOutcome(e) {
			bad++
		}
	}
	m.bkeyErrs[k].Add(bad)
	m.bsize[k].Record(uint64(n))
	m.bwall[k].Record(uint64(time.Since(t0)))
	dc := m.enc.Cycles() - c0
	m.bcycles[k].Record(dc)
	if n > 0 {
		m.bkeyCycles[k].Record(dc / uint64(n))
	}
}

// observeTxn records one commit (or replica apply) of n ops as a batch
// labelled "txn"; its one error, if any, counts as one failed key.
func (m *instruments) observeTxn(n int, t0 time.Time, c0 uint64, err error) {
	if m == nil {
		return
	}
	var errs []error
	if err != nil {
		errs = []error{err}
	}
	m.observeBatch(batchKindTxn, n, t0, c0, errs)
}

// observeCheckpoint records one checkpoint run, manual or background:
// its wall time and the longest single hold of the shard lock inside it.
// One that rewrote the full segment set (cold tier only) also lands in
// the compaction histogram.
func (m *instruments) observeCheckpoint(wall, stall time.Duration, compacted bool) {
	if m == nil {
		return
	}
	m.ckptWall.Record(uint64(wall))
	m.ckptStall.Record(uint64(stall))
	if compacted {
		m.compactWall.Record(uint64(wall))
	}
}

// observePreimage counts one value a write captured for a snapshot run.
func (m *instruments) observePreimage() {
	if m != nil {
		m.ckptPreimages.Inc()
	}
}

// observeCheckpointFailed counts one failed background checkpoint.
func (m *instruments) observeCheckpointFailed() {
	if m != nil {
		m.bgCkptErrs.Inc()
	}
}
