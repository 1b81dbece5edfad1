package aria

// The op path (DESIGN.md §16). One shard is one simulated enclave: one
// lock, one engine, one per-key table, and — nil unless configured — a
// WAL lineage (durable.go), a cold tier (cold.go) and instruments
// (metrics.go). Every operation takes the lock once and runs the same
// stages in the same order:
//
//	encode the WAL record → promote from the cold tier → reap if expired,
//	check the version → guard, engine, guard → stamp the version →
//	seal and append → note live/dirty/touched → observe
//
// A stage that has nothing to do for an operation, or whose state is
// nil, is skipped; none is ever reordered, because the order is what the
// simulated clock prices. A new operation is one more case in the stages
// that care about it.
//
// Versions come from one per-shard counter that only moves forward: a
// delete/recreate cycle always yields a strictly larger version, so
// CompareAndSwap and transaction validation are ABA-safe. An expired key
// is logically absent the moment its deadline passes; the physical
// delete happens when an operation next touches it, or in a sweeper pass
// (Options.TTLSweepEvery). Versions, deadlines and residency flags are
// trusted in-enclave metadata the simulator does not price (DESIGN.md
// §14 argues the accounting); everything that touches untrusted memory
// goes through the engine and is charged there.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ariakv/aria/internal/core"
	"github.com/ariakv/aria/internal/sgx"
)

// keyRec is one key's row in the shard's table: 16 bytes by value —
// what a version and a deadline alone would cost — so a shard that uses
// none of the optional state pays nothing per key for carrying it. A row
// exists while anything in it is set and is dropped when the last thing
// clears.
type keyRec struct {
	// bits is the version stamped by the last write (0 = the engine holds
	// no value) in the low 61 bits — more writes than a shard will see —
	// and three flags above it. rowLive marks membership of the shadow
	// key set the checkpointer walks (hash indexes cannot enumerate); it
	// is set and cleared by logged writes only, so it overapproximates:
	// reaping an expired key logs nothing. rowDirty = written since the
	// last segment checkpoint; rowTouched = accessed since then (the
	// demotion filter). rowLive is kept on durable shards only, the other
	// two under ColdCompress only.
	bits uint64
	// more is nil for the common row: no deadline, value in the engine.
	more *rowMore
}

// rowMore is what the uncommon row also has. It is never mutated in
// place: with replaces it.
type rowMore struct {
	exp  int64    // absolute expiry deadline, unix nanos; 0 = never
	cold *coldRec // the demoted value; non-nil = held in the cold tier, not the engine
}

const (
	rowLive    uint64 = 1 << 63
	rowDirty   uint64 = 1 << 62
	rowTouched uint64 = 1 << 61
	rowVersion        = rowTouched - 1
)

func (r keyRec) ver() uint64         { return r.bits & rowVersion }
func (r keyRec) is(flag uint64) bool { return r.bits&flag != 0 }

func (r keyRec) exp() int64 {
	if r.more == nil {
		return 0
	}
	return r.more.exp
}

func (r keyRec) cold() *coldRec {
	if r.more == nil {
		return nil
	}
	return r.more.cold
}

// with returns r with its deadline and demoted value replaced.
func (r keyRec) with(exp int64, cold *coldRec) keyRec {
	r.more = nil
	if exp != 0 || cold != nil {
		r.more = &rowMore{exp: exp, cold: cold}
	}
	return r
}

// txnWrite is one resolved transaction write: TTLs have been converted
// to absolute deadlines, so the same slice applies identically at
// commit time, during WAL replay, and on a replica.
type txnWrite struct {
	key, value []byte
	del        bool
	exp        int64 // absolute unix nanos; 0 = no expiry
}

// op is one single-key write travelling the stages, by value.
type op struct {
	kind       opKind // opKindPut, opKindCAS or opKindDelete
	key, value []byte
	exp        int64  // a put's absolute deadline; 0 = none
	expect     uint64 // the version a CAS requires; 0 = absent
}

type shard struct {
	// mu is the shard's only lock. Callers, the background checkpointer
	// and sweeper, and metric scrapes all take it; the engines model one
	// enclave thread and are not goroutine-safe.
	mu sync.Mutex

	scheme Scheme
	enc    *sgx.Enclave
	eng    engine
	errs   engineErrs
	core   *core.Engine // eng again for the Aria schemes: op counts, Secure Cache stats, Scan

	// The integrity guard: latched violations and, under Quarantine, the
	// keys they poisoned.
	policy   IntegrityPolicy
	failures uint64
	poisoned map[string]struct{}

	now              func() time.Time
	maxKey, maxValue int
	recs             map[string]keyRec
	liveKeys         int // rows with rowLive set: the size of the shadow key set
	vclock           uint64

	txnCommits, txnConflicts, casMismatches uint64
	ttlExpired, ttlSwept, ttlSweeps         uint64

	dur  *durable     // nil without Options.DataDir
	cold *coldTier    // nil without Options.ColdCompress
	ins  *instruments // nil without Options.Metrics
	run  *ckptRun     // nil unless a snapshot run is capturing (durable.go)

	stopC  chan struct{} // non-nil while the background goroutine runs
	wg     sync.WaitGroup
	closed bool
}

// openShard builds one single-enclave store from already-defaulted
// options: the engine, then recovery from dir if the shard is durable,
// then instruments under the given shard label, then the background
// goroutine if anything needs one.
func openShard(opts Options, dir, label string) (*shard, error) {
	s, err := openEngine(opts)
	if err != nil {
		return nil, err
	}
	s.policy = opts.IntegrityPolicy
	s.now = opts.Now
	if s.now == nil {
		s.now = time.Now
	}
	// Mirror the engines' limit defaults so transaction writes can be
	// pre-validated before any of them applies (all-or-nothing).
	s.maxKey, s.maxValue = txnLimits(opts)
	s.recs = make(map[string]keyRec)
	if dir != "" {
		if err := s.openDurable(opts, dir); err != nil {
			return nil, err
		}
	}
	if opts.Metrics != nil {
		s.ins = newInstruments(opts.Metrics, s.enc, label, s.Stats)
	}
	if opts.TTLSweepEvery > 0 || (s.dur != nil && s.dur.checkpointEvery > 0) {
		s.stopC = make(chan struct{})
		s.wg.Add(1)
		go s.background(opts.TTLSweepEvery)
	}
	return s, nil
}

// txnLimits returns the key and value size limits transactions
// pre-validate against: the options', or the engines' defaults.
func txnLimits(opts Options) (maxKey, maxValue int) {
	maxKey, maxValue = opts.MaxKeySize, opts.MaxValueSize
	if maxKey <= 0 {
		maxKey = 256
	}
	if maxValue <= 0 {
		maxValue = 4096
	}
	return maxKey, maxValue
}

// ---- stages ----------------------------------------------------------------------

// putRec stores key's row, or drops it once nothing is left to remember.
func (s *shard) putRec(key []byte, r keyRec) {
	if r == (keyRec{}) {
		delete(s.recs, string(key))
	} else {
		s.recs[string(key)] = r
	}
}

// stamp records a write's outcome in key's row: a put's fresh version
// and deadline (a plain put over a TTL key clears the TTL), or zeroes
// for a delete. The key is resident: every write promotes it first.
func (s *shard) stamp(key []byte, ver uint64, exp int64) {
	r := s.recs[string(key)]
	r.bits = r.bits&^rowVersion | ver&rowVersion
	s.putRec(key, r.with(exp, nil))
}

// reap looks key's row up and, if its deadline has passed, reclaims the
// key: the physical delete is charged to the engine like any other, and
// the row forgets the version. Nothing is logged and live stays set, so
// the shadow key set overapproximates until the next logged write.
func (s *shard) reap(key []byte) (keyRec, bool) {
	r := s.recs[string(key)]
	if exp := r.exp(); exp == 0 || s.now().UnixNano() < exp {
		return r, false
	}
	_ = s.engineDelete(key) // an expired key is absent whether or not this lands
	r = keyRec{bits: r.bits &^ rowVersion}
	s.putRec(key, r)
	s.ttlExpired++
	return r, true
}

// pre short-circuits operations on quarantined keys before any
// untrusted state is touched.
func (s *shard) pre(key []byte) error {
	if s.policy == Quarantine {
		if _, bad := s.poisoned[string(key)]; bad {
			return fmt.Errorf("%w: %w", ErrIntegrity, ErrQuarantined)
		}
	}
	return nil
}

// check maps an engine error to the public one and latches an integrity
// violation, poisoning key under Quarantine. key is nil for whole-store
// operations (audits, scans), which are counted but poison nothing.
func (s *shard) check(key []byte, err error) error {
	if err = s.errs.mapErr(err); err == nil || !errors.Is(err, ErrIntegrity) {
		return err
	}
	s.failures++
	if s.policy == Quarantine && len(key) > 0 {
		if s.poisoned == nil {
			s.poisoned = make(map[string]struct{})
		}
		s.poisoned[string(key)] = struct{}{}
	}
	return err
}

func (s *shard) engineGet(key []byte) ([]byte, error) {
	if err := s.pre(key); err != nil {
		return nil, err
	}
	v, err := s.eng.Get(key)
	if err = s.check(key, err); err != nil {
		return nil, err
	}
	return v, nil
}

func (s *shard) enginePut(key, value []byte) error {
	if err := s.pre(key); err != nil {
		return err
	}
	return s.check(key, s.eng.Put(key, value))
}

func (s *shard) engineDelete(key []byte) error {
	if err := s.pre(key); err != nil {
		return err
	}
	return s.check(key, s.eng.Delete(key))
}

// get is the read path below the cold tier — reap, then the engine —
// shared by reads, the checkpointer and demotion.
func (s *shard) get(key []byte) ([]byte, keyRec, error) {
	r, gone := s.reap(key)
	if gone {
		return nil, r, ErrNotFound
	}
	v, err := s.engineGet(key)
	return v, r, err
}

// ---- single-key operations -------------------------------------------------------

func (s *shard) read(key []byte) ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0, c0 := s.begin()
	err := s.promote(key, true)
	var v []byte
	var r keyRec
	if err == nil {
		v, r, err = s.get(key)
	}
	s.ins.observe(opKindGet, t0, c0, err)
	if err != nil {
		return nil, 0, err
	}
	return v, r.ver(), nil
}

func (s *shard) Get(key []byte) ([]byte, error) {
	v, _, err := s.read(key)
	return v, err
}

func (s *shard) GetV(key []byte) ([]byte, uint64, error) { return s.read(key) }

func (s *shard) write(o op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0, c0 := s.begin()
	err := s.apply(o)
	s.ins.observe(o.kind, t0, c0, err)
	return err
}

// apply runs one single-key write through the stages. WAL replay calls
// it too, before s.dur is set, so that recovery re-applies exactly what
// the live path applied, minus the logging.
func (s *shard) apply(o op) error {
	// Encode first, so a key the WAL cannot frame is rejected before it
	// touches memory. A CAS logs a plain put: replay re-applies writes in
	// commit order, so the same version comes out without persisting it
	// per record.
	var rec []byte
	if s.dur != nil {
		var err error
		switch {
		case o.kind == opKindDelete:
			rec, err = encodeWalRecord(walOpDelete, o.key, nil)
		case o.exp != 0:
			rec, err = encodeWalTTLRecord(o.key, o.exp, o.value)
		default:
			rec, err = encodeWalRecord(walOpPut, o.key, o.value)
		}
		if err != nil {
			return err
		}
	}
	if err := s.promote(o.key, false); err != nil {
		return err
	}
	switch o.kind {
	case opKindDelete:
		if _, gone := s.reap(o.key); gone {
			return ErrNotFound
		}
	case opKindCAS:
		// The check reads only the trusted row, so a lost CAS costs no
		// untrusted access beyond reclaiming an expired key.
		if r, _ := s.reap(o.key); r.ver() != o.expect {
			s.casMismatches++
			return fmt.Errorf("%w: key at version %d, expected %d", ErrCASMismatch, r.ver(), o.expect)
		}
	}
	if o.kind == opKindDelete {
		if err := s.engineDelete(o.key); err != nil {
			return err
		}
		s.stamp(o.key, 0, 0)
	} else {
		if err := s.enginePut(o.key, o.value); err != nil {
			return err
		}
		s.vclock++
		s.stamp(o.key, s.vclock, o.exp)
	}
	if s.dur == nil {
		return nil
	}
	// Committed = applied + logged. A failed append leaves the write
	// visible but out of the shadow key set (ROADMAP item 6).
	if err := s.logRecords(rec); err != nil {
		return err
	}
	s.note(o.key, o.kind != opKindDelete, true)
	return nil
}

func (s *shard) Put(key, value []byte) error {
	return s.write(op{kind: opKindPut, key: key, value: value})
}

func (s *shard) Delete(key []byte) error {
	return s.write(op{kind: opKindDelete, key: key})
}

func (s *shard) CompareAndSwap(key, value []byte, expect uint64) error {
	return s.write(op{kind: opKindCAS, key: key, value: value, expect: expect})
}

// PutTTL resolves the deadline to an absolute timestamp once; that is
// what gets applied and sealed into the WAL record, so recovery and
// replicas reconstruct exactly the committed deadline.
func (s *shard) PutTTL(key, value []byte, ttl time.Duration) error {
	var exp int64
	if ttl > 0 {
		exp = s.now().UnixNano() + int64(ttl)
	}
	return s.putExpireAbs(key, value, exp)
}

// putExpireAbs writes a key with an already-absolute deadline (0 = a
// plain put): PutTTL, and the replica apply path, where re-deriving the
// deadline from a relative TTL would drift from the sealed record.
func (s *shard) putExpireAbs(key, value []byte, exp int64) error {
	return s.write(op{kind: opKindPut, key: key, value: value, exp: exp})
}

// ---- batches ---------------------------------------------------------------------

// allErrs reports err at every position of an n-key batch.
func allErrs(n int, err error) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return errs
}

// MGet enters the enclave once for the whole batch. Expired keys are
// reaped — each a charged delete — before the batch enters.
func (s *shard) MGet(keys [][]byte) ([][]byte, []error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0, c0 := s.begin()
	vals, errs := s.mget(keys)
	s.ins.observeBatch(batchKindMGet, len(keys), t0, c0, errs)
	return vals, errs
}

func (s *shard) mget(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	for _, k := range keys {
		if err := s.promote(k, true); err != nil {
			return vals, allErrs(len(keys), err)
		}
	}
	req := batchHdrBytes
	for _, k := range keys {
		s.reap(k)
		req += batchKeyHdrBytes + len(k)
	}
	s.enc.BatchEnter(len(keys), req)
	var errs []error
	resp := batchHdrBytes
	for i, k := range keys {
		v, err := s.engineGet(k)
		resp += batchRespPerValue + len(v)
		if err != nil {
			errs = batchErr(errs, len(keys), i, err)
			continue
		}
		vals[i] = v
	}
	s.enc.BatchExit(resp)
	return vals, errs
}

func (s *shard) MPut(pairs []KV) []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0, c0 := s.begin()
	errs := s.mwrite(false, len(pairs), func(i int) ([]byte, []byte) { return pairs[i].Key, pairs[i].Value })
	s.ins.observeBatch(batchKindMPut, len(pairs), t0, c0, errs)
	return errs
}

func (s *shard) MDelete(keys [][]byte) []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0, c0 := s.begin()
	errs := s.mwrite(true, len(keys), func(i int) ([]byte, []byte) { return keys[i], nil })
	s.ins.observeBatch(batchKindMDelete, len(keys), t0, c0, errs)
	return errs
}

// mwrite is the batched write path, puts or deletes: one enclave entry
// around the per-key guarded engine calls, then one group commit for the
// positions that succeeded — one append, one fsync under FsyncBatch —
// which is where batching's edge amortization carries over to
// durability. at returns position i's key and value.
func (s *shard) mwrite(del bool, n int, at func(i int) (key, value []byte)) []error {
	req := batchHdrBytes
	for i := 0; i < n; i++ {
		k, v := at(i)
		if err := s.promote(k, false); err != nil {
			return allErrs(n, err)
		}
		req += batchKeyHdrBytes + len(k)
		if !del {
			req += batchValHdrBytes + len(v)
		}
	}
	if del {
		for i := 0; i < n; i++ {
			k, _ := at(i)
			s.reap(k)
		}
	}
	s.enc.BatchEnter(n, req)
	var errs []error
	for i := 0; i < n; i++ {
		k, v := at(i)
		var err error
		if del {
			err = s.engineDelete(k)
		} else {
			err = s.enginePut(k, v)
		}
		if err != nil {
			errs = batchErr(errs, n, i, err)
		}
	}
	s.enc.BatchExit(batchHdrBytes + n*batchStatusBytes)
	walOp := byte(walOpPut)
	if del {
		walOp = walOpDelete
	}
	var recs [][]byte
	var ok []int
	if s.dur != nil {
		recs, ok = make([][]byte, 0, n), make([]int, 0, n)
	}
	for i := 0; i < n; i++ {
		if errs != nil && errs[i] != nil {
			continue
		}
		k, v := at(i)
		if del {
			s.stamp(k, 0, 0)
		} else {
			s.vclock++
			s.stamp(k, s.vclock, 0)
		}
		if s.dur == nil {
			continue
		}
		rec, err := encodeWalRecord(walOp, k, v)
		if err != nil {
			// Unreachable while openDurable caps MaxKeySize, kept as a
			// positional error rather than silent corruption.
			errs = batchErr(errs, n, i, err)
			continue
		}
		recs = append(recs, rec)
		ok = append(ok, i)
	}
	if len(recs) == 0 {
		return errs
	}
	if err := s.logRecords(recs...); err != nil {
		// The writes applied in memory but are not durable: report the
		// append failure at every position that would otherwise succeed.
		for _, i := range ok {
			errs = batchErr(errs, n, i, err)
		}
		return errs
	}
	for _, i := range ok {
		k, _ := at(i)
		s.note(k, !del, true)
	}
	return errs
}

// ---- transactions ----------------------------------------------------------------

func (s *shard) TxnCommit(ops []TxnOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txnCommit(ops)
}

// txnCommit validates and applies a transaction under a lock the caller
// holds (the sharded store takes several shards' locks for a cross-shard
// commit). It is observed as a batch labelled "txn": one commit = one
// group of keys entering the enclave together.
func (s *shard) txnCommit(ops []TxnOp) error {
	t0, c0 := s.begin()
	err := s.txnStages(ops)
	s.ins.observeTxn(len(ops), t0, c0, err)
	return err
}

func (s *shard) txnStages(ops []TxnOp) error {
	for i := range ops {
		if err := s.promote(ops[i].Key, false); err != nil {
			return err
		}
	}
	writes, err := s.resolveTxn(ops)
	if err != nil {
		return err
	}
	// Encode first so an unloggable transaction is rejected before any
	// write applies.
	var rec []byte
	if s.dur != nil && len(writes) > 0 {
		if rec, err = encodeWalTxnRecord(writes); err != nil {
			return err
		}
	}
	// Validation reads only trusted rows, so a failed commit costs no
	// untrusted access beyond reclaiming expired keys, and changes nothing.
	for i := range ops {
		if !ops[i].Check {
			continue
		}
		if r, _ := s.reap(ops[i].Key); r.ver() != ops[i].Version {
			s.txnConflicts++
			return fmt.Errorf("%w: key at version %d, expected %d", ErrTxnConflict, r.ver(), ops[i].Version)
		}
	}
	if err := s.applyTxn(writes); err != nil {
		return err
	}
	// Only write-applying commits count: a cross-shard commit runs a
	// validation-only sub-transaction per shard first (see sharded.go),
	// and counting those would inflate the metric.
	if len(writes) > 0 {
		s.txnCommits++
	}
	return s.logTxn(writes, rec)
}

// resolveTxn validates a transaction's shape and converts its relative
// TTLs into absolute deadlines, stamped once for the whole commit. The
// size pre-checks make the later apply loop infallible under normal
// operation, keeping the commit all-or-nothing.
func (s *shard) resolveTxn(ops []TxnOp) ([]txnWrite, error) {
	if len(ops) == 0 {
		return nil, errors.New("aria: empty transaction")
	}
	nowN := s.now().UnixNano()
	writes := make([]txnWrite, 0, len(ops))
	for i := range ops {
		op := &ops[i]
		if op.ReadOnly {
			if !op.Check {
				return nil, fmt.Errorf("aria: txn op %d: read-only op without a version check", i)
			}
			continue
		}
		if len(op.Key) == 0 {
			return nil, ErrEmptyKey
		}
		if len(op.Key) > s.maxKey || (!op.Delete && len(op.Value) > s.maxValue) {
			return nil, ErrTooLarge
		}
		w := txnWrite{key: op.Key, value: op.Value, del: op.Delete}
		if !op.Delete && op.TTL > 0 {
			w.exp = nowN + int64(op.TTL)
		}
		writes = append(writes, w)
	}
	return writes, nil
}

// applyTxn applies already-validated writes to the engine and the table.
func (s *shard) applyTxn(writes []txnWrite) error {
	for i := range writes {
		w := &writes[i]
		if w.del {
			// Deleting an absent key inside a transaction is a no-op,
			// like replaying a delete over a snapshot that no longer
			// holds the key.
			if err := s.engineDelete(w.key); err != nil && !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("aria: txn apply: %w", err)
			}
			s.stamp(w.key, 0, 0)
			continue
		}
		if err := s.enginePut(w.key, w.value); err != nil {
			return fmt.Errorf("aria: txn apply: %w", err)
		}
		s.vclock++
		s.stamp(w.key, s.vclock, w.exp)
	}
	return nil
}

// logTxn seals an applied transaction's whole write set as ONE record
// (nil = nothing to persist). A crash can only leave that record wholly
// present or wholly absent, so recovery never sees a partial transaction.
func (s *shard) logTxn(writes []txnWrite, rec []byte) error {
	if rec == nil {
		return nil
	}
	if err := s.logRecords(rec); err != nil {
		return err
	}
	for i := range writes {
		s.note(writes[i].key, !writes[i].del, true)
	}
	return nil
}

// applyTxnWrites applies an already-validated transaction — the decision
// to commit was made, and sealed, by the original primary — and re-seals
// it as one record, so a replica's lineage carries the same atomic group
// commit the primary's does.
func (s *shard) applyTxnWrites(writes []txnWrite) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0, c0 := s.begin()
	err := func() error {
		var rec []byte
		if s.dur != nil {
			var err error
			if rec, err = encodeWalTxnRecord(writes); err != nil {
				return err
			}
		}
		for i := range writes {
			if err := s.promote(writes[i].key, false); err != nil {
				return err
			}
		}
		if err := s.applyTxn(writes); err != nil {
			return err
		}
		return s.logTxn(writes, rec)
	}()
	s.ins.observeTxn(len(writes), t0, c0, err)
	return err
}

// ---- whole-store operations ------------------------------------------------------

// Scan serves ordered schemes; unordered indexes report ErrNoScan.
// Expired-but-unreaped keys may still appear — range scans read the
// untrusted index directly, and pruning them would take a trusted lookup
// per visited key; the sweeper bounds the window (DESIGN.md §14). An
// integrity failure mid-scan is counted by the guard but cannot be
// attributed to one key, so nothing is quarantined.
func (s *shard) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0, c0 := s.begin()
	err := s.promoteRange(start, end)
	switch {
	case err != nil:
	case s.core == nil:
		err = ErrNoScan
	default:
		err = s.check(nil, s.core.Scan(start, end, fn))
	}
	s.ins.observe(opKindScan, t0, c0, err)
	return err
}

func (s *shard) VerifyIntegrity() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.check(nil, s.eng.VerifyIntegrity())
}

func (s *shard) SetMeasuring(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc.SetMeasuring(on)
}

// ResetStats zeroes the enclave clock and the transaction and TTL
// counters; the WAL and cold-tier counters describe the lineage, not the
// window, and keep counting.
func (s *shard) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txnCommits, s.txnConflicts, s.casMismatches = 0, 0, 0
	s.ttlExpired, s.ttlSwept, s.ttlSweeps = 0, 0, 0
	s.enc.ResetStats()
}

func (s *shard) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	es := s.enc.Stats()
	st := Stats{
		Scheme:       s.scheme,
		Keys:         s.eng.Keys(),
		SimCycles:    es.Cycles,
		SimSeconds:   s.enc.Seconds(),
		PageSwaps:    es.PageSwaps,
		Ecalls:       es.Ecalls,
		Ocalls:       es.Ocalls,
		MACs:         es.MACs,
		CTROps:       es.CTROps,
		Batches:      es.Batches,
		BatchedKeys:  es.BatchedOps,
		EPCUsedBytes: s.enc.EPCUsedBytes(),

		IntegrityPolicy:   s.policy,
		IntegrityFailures: s.failures,
		QuarantinedKeys:   len(s.poisoned),

		TxnCommits:    s.txnCommits,
		TxnConflicts:  s.txnConflicts,
		CASMismatches: s.casMismatches,
		TTLExpired:    s.ttlExpired,
		TTLSwept:      s.ttlSwept,
		TTLSweeps:     s.ttlSweeps,
	}
	if s.core != nil {
		cs := s.core.Stats()
		st.Gets, st.Puts, st.Deletes = cs.Gets, cs.Puts, cs.Deletes
		st.CacheHits = cs.Cache.Hits
		st.CacheMisses = cs.Cache.Misses
		if cs.Cache.Lookups > 0 {
			st.CacheHitRatio = float64(cs.Cache.Hits) / float64(cs.Cache.Lookups)
		}
		st.StopSwap = cs.Cache.StopSwap
		st.PinnedLevels = cs.Cache.PinnedLevels
	}
	if s.dur != nil {
		s.dur.fill(&st)
	}
	if s.cold != nil {
		// The engine only counts resident keys; the shadow set is the
		// live keyspace once demotion is in play.
		st.Keys = s.liveKeys
		s.cold.fill(&st)
	}
	return st
}

// A lone shard is its own only shard: no router, no per-shard breakout.

func (s *shard) NumShards() int { return 1 }

func (s *shard) ShardFor([]byte) int { return 0 }

func (s *shard) ShardStats(int) Stats { return s.Stats() }

func (s *shard) ChargeEcall() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc.Ecall()
}

// The untrusted-memory methods reach the enclave simulator's untrusted
// arena; a durable shard's on-disk files are attacked through the
// filesystem instead.

// arena returns the bytes of untrusted memory the scheme keeps state in.
// A scheme with no integrity failure to report (the baselines) keeps
// none: its arena is empty and no flip can land.
func (s *shard) arena() int {
	if s.errs.integrity == nil {
		return 0
	}
	return s.enc.UntrustedUsedBytes()
}

func (s *shard) UntrustedSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arena()
}

func (s *shard) FlipUntrustedByte(offset int, mask byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if offset < 0 || offset >= s.arena() {
		return false
	}
	s.enc.UBytesRaw(sgx.UPtr(offset), 1)[0] ^= mask
	return true
}

func (s *shard) SnapshotUntrusted() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.enc.UBytesRaw(sgx.UPtr(0), s.arena())...)
}

func (s *shard) RestoreUntrusted(snap []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := min(s.arena(), len(snap))
	copy(s.enc.UBytesRaw(sgx.UPtr(0), n), snap[:n])
}

// ---- background work and shutdown ------------------------------------------------

// background runs the shard's two periodic jobs — checkpoints armed by
// the record count, and expiry sweeps on a ticker — on one goroutine
// that takes the shard lock like any caller.
func (s *shard) background(sweepEvery time.Duration) {
	defer s.wg.Done()
	var ckptC chan struct{}
	if s.dur != nil {
		ckptC = s.dur.ckptC
	}
	var sweepC <-chan time.Time
	if sweepEvery > 0 {
		t := time.NewTicker(sweepEvery)
		defer t.Stop()
		sweepC = t.C
	}
	for {
		select {
		case <-s.stopC:
			return
		case <-ckptC:
			if err := s.checkpoint(); err != nil && err != errCkptClosed {
				// Counted, remembered for Close; the next checkpoint
				// retries, and the WAL still holds every record, so no
				// durability is lost.
				s.ins.observeCheckpointFailed()
				s.mu.Lock()
				s.dur.ckptErr = err
				s.mu.Unlock()
			}
		case <-sweepC:
			s.sweepOnce()
		}
	}
}

// sweepOnce removes every resident key whose deadline has passed. The
// pass enters the enclave once and pays a normal delete per reclaimed
// key; walking the trusted table is EPC-resident work the simulator does
// not price. Like a lazy reap it logs nothing. Demoted keys are left for
// the access that promotes them.
func (s *shard) sweepOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc.Ecall()
	nowN := s.now().UnixNano()
	for k, r := range s.recs {
		if r.more == nil || r.more.cold != nil || r.more.exp == 0 || nowN < r.more.exp {
			continue
		}
		_ = s.engineDelete([]byte(k))
		if r = (keyRec{bits: r.bits &^ rowVersion}); r.bits == 0 {
			delete(s.recs, k)
		} else {
			s.recs[k] = r
		}
		s.ttlSwept++
	}
	s.ttlSweeps++
}

func (s *shard) Checkpoint() error {
	if s.dur == nil {
		return ErrNotDurable
	}
	return s.checkpoint()
}

// Close stops the background goroutine, waits for a checkpoint run in
// flight to finish, then flushes and closes the WAL if there is one. It
// returns the last background checkpoint failure, if any, so operators
// see it even without metrics. Safe to call more than once.
func (s *shard) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Not under the lock: the goroutine takes it to finish its current job.
	if s.stopC != nil {
		close(s.stopC)
		s.wg.Wait()
	}
	if s.dur == nil {
		return nil
	}
	// A run that began before closed was set truncates the WAL in its
	// last hold; one that begins after sees closed and touches nothing.
	s.dur.runC <- struct{}{}
	defer func() { <-s.dur.runC }()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.dur.log.Sync()
	if cerr := s.dur.log.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.dur.ckptErr
	}
	return err
}
