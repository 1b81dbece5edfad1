package aria

// Durability: the sealed WAL + checkpoint stages of the op path
// (DESIGN.md §10). A shard opened with Options.DataDir logs every
// successful write to a sealed write-ahead log (package wal), takes
// atomic sealed snapshots — or, under ColdCompress, segment checkpoints
// (cold.go) — and recovers the committed state on Open.
//
// Everything persisted leaves the enclave's trust boundary, so each
// append charges the simulator the way real sealing would: the AES-CTR
// encryption and CMAC of the record (ChargeCTR/ChargeMAC), one OCALL
// plus the boundary copy of the sealed bytes (SealOut), and one further
// OCALL per fsync the policy issues. Recovery charges the mirror-image
// SealIn path. The cost accounting the paper's figures rest on therefore
// stays honest when durability is on — and is untouched when it is off,
// since a shard without DataDir has no durable state and skips the
// stages.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/ariakv/aria/internal/seal"
	"github.com/ariakv/aria/wal"
)

// Durable is the lifecycle part of Store. Opened without Options.DataDir
// there is no lineage: Checkpoint returns ErrNotDurable and Close only
// stops the store's background goroutine, if it has one.
type Durable interface {
	// Checkpoint writes an atomic sealed snapshot of the keyspace as of
	// one instant (write-temp + rename), then truncates the WAL segments
	// the snapshot made obsolete. Safe to call at any time, and it does
	// not stop the store: reads and writes proceed while it runs, the
	// snapshot still holds exactly the state at the instant it began,
	// and the call returns once the snapshot is durable. (Under
	// ColdCompress the checkpoint is a segment write and does hold its
	// shard for the length of it.) The sharded store checkpoints every
	// shard; concurrent calls on one shard run one after the other.
	Checkpoint() error
	// Close stops the background checkpointer, waits for a checkpoint
	// in flight, flushes the WAL, and closes its files. The store must
	// not be used after Close.
	Close() error
}

// WAL record payload opcodes.
const (
	walOpPut    = 1
	walOpDelete = 2
	// walOpPutTTL is a put carrying an absolute expiry deadline: op (1)
	// || klen (2, LE) || key || exp (8, LE, unix nanos) || value. The
	// deadline is absolute so replay and replicas reconstruct exactly
	// the expiry the primary committed, independent of their clocks.
	walOpPutTTL = 3
	// walOpTxn is one whole transaction as a single sealed record (klen
	// 0; the body is the write list — see encodeWalTxnRecord). One
	// record is atomic by construction: a crash either left it in the
	// committed prefix or cut it off entirely, so recovery can never
	// observe half a transaction.
	walOpTxn = 4
)

// maxWalKey bounds key length to what the WAL and snapshot framing's
// uint16 length prefix can carry. A longer key would wrap the prefix
// and replay would silently reconstruct a different key/value split —
// corruption no MAC can catch, so openDurable refuses to build a
// durable store whose Options.MaxKeySize admits such keys, and the
// encoders below guard against it outright.
const maxWalKey = 1<<16 - 1

// encodeWalRecord builds a WAL payload: op (1) || klen (2, LE) || key
// [|| value]. The value length is implied by the record length.
func encodeWalRecord(op byte, key, value []byte) ([]byte, error) {
	if len(key) > maxWalKey {
		return nil, fmt.Errorf("%w: key of %d bytes exceeds the durable framing limit %d", ErrTooLarge, len(key), maxWalKey)
	}
	p := make([]byte, 3+len(key)+len(value))
	p[0] = op
	binary.LittleEndian.PutUint16(p[1:3], uint16(len(key)))
	copy(p[3:], key)
	copy(p[3+len(key):], value)
	return p, nil
}

// decodeWalRecord splits a WAL payload back into op, key, and value.
func decodeWalRecord(p []byte) (op byte, key, value []byte, err error) {
	if len(p) < 3 {
		return 0, nil, nil, errors.New("aria: wal record too short")
	}
	klen := int(binary.LittleEndian.Uint16(p[1:3]))
	if len(p) < 3+klen {
		return 0, nil, nil, errors.New("aria: wal record key overruns payload")
	}
	return p[0], p[3 : 3+klen], p[3+klen:], nil
}

// encodeWalTTLRecord builds a walOpPutTTL payload (layout above).
func encodeWalTTLRecord(key []byte, exp int64, value []byte) ([]byte, error) {
	if len(key) > maxWalKey {
		return nil, fmt.Errorf("%w: key of %d bytes exceeds the durable framing limit %d", ErrTooLarge, len(key), maxWalKey)
	}
	p := make([]byte, 3+len(key)+8+len(value))
	p[0] = walOpPutTTL
	binary.LittleEndian.PutUint16(p[1:3], uint16(len(key)))
	copy(p[3:], key)
	binary.LittleEndian.PutUint64(p[3+len(key):], uint64(exp))
	copy(p[3+len(key)+8:], value)
	return p, nil
}

// splitTTLBody splits a walOpPutTTL record's post-key bytes into the
// expiry deadline and the value.
func splitTTLBody(rest []byte) (exp int64, value []byte, err error) {
	if len(rest) < 8 {
		return 0, nil, errors.New("aria: wal ttl record too short")
	}
	return int64(binary.LittleEndian.Uint64(rest[:8])), rest[8:], nil
}

// Write kinds inside a walOpTxn record body.
const (
	txnKindPut    = 0
	txnKindDelete = 1
	txnKindPutTTL = 2
)

// encodeWalTxnRecord seals a transaction's resolved writes into one
// record: op (1) || klen=0 (2) || count (4, LE) || writes, each
// kind (1) || klen (2, LE) || key || [exp (8, LE) if put-ttl] ||
// [vlen (4, LE) || value if put or put-ttl]. Check entries are not
// persisted — validation happened before the record was sealed.
func encodeWalTxnRecord(writes []txnWrite) ([]byte, error) {
	size := 3 + 4
	for i := range writes {
		w := &writes[i]
		if len(w.key) > maxWalKey {
			return nil, fmt.Errorf("%w: key of %d bytes exceeds the durable framing limit %d", ErrTooLarge, len(w.key), maxWalKey)
		}
		size += 3 + len(w.key)
		if !w.del {
			if w.exp != 0 {
				size += 8
			}
			size += 4 + len(w.value)
		}
	}
	p := make([]byte, 3, size)
	p[0] = walOpTxn
	var u4 [4]byte
	var u8 [8]byte
	binary.LittleEndian.PutUint32(u4[:], uint32(len(writes)))
	p = append(p, u4[:]...)
	for i := range writes {
		w := &writes[i]
		kind := byte(txnKindPut)
		switch {
		case w.del:
			kind = txnKindDelete
		case w.exp != 0:
			kind = txnKindPutTTL
		}
		var klen [2]byte
		binary.LittleEndian.PutUint16(klen[:], uint16(len(w.key)))
		p = append(p, kind)
		p = append(p, klen[:]...)
		p = append(p, w.key...)
		if kind == txnKindPutTTL {
			binary.LittleEndian.PutUint64(u8[:], uint64(w.exp))
			p = append(p, u8[:]...)
		}
		if kind != txnKindDelete {
			binary.LittleEndian.PutUint32(u4[:], uint32(len(w.value)))
			p = append(p, u4[:]...)
			p = append(p, w.value...)
		}
	}
	return p, nil
}

// decodeWalTxnBody parses a walOpTxn record's post-key bytes back into
// the write list, rejecting any framing defect outright (the record
// authenticated, so a defect is logic-level corruption, not tampering).
func decodeWalTxnBody(body []byte) ([]txnWrite, error) {
	if len(body) < 4 {
		return nil, errors.New("aria: wal txn record too short")
	}
	count := int(binary.LittleEndian.Uint32(body[:4]))
	// Every write takes at least 3 bytes; a count claiming more than
	// the body could hold is corrupt.
	if count < 0 || count > len(body[4:])/3+1 {
		return nil, errors.New("aria: wal txn record count implausible")
	}
	rest := body[4:]
	writes := make([]txnWrite, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 3 {
			return nil, errors.New("aria: wal txn write truncated")
		}
		kind := rest[0]
		klen := int(binary.LittleEndian.Uint16(rest[1:3]))
		rest = rest[3:]
		if len(rest) < klen {
			return nil, errors.New("aria: wal txn key overruns record")
		}
		w := txnWrite{key: rest[:klen]}
		rest = rest[klen:]
		switch kind {
		case txnKindDelete:
			w.del = true
		case txnKindPutTTL:
			if len(rest) < 8 {
				return nil, errors.New("aria: wal txn expiry truncated")
			}
			w.exp = int64(binary.LittleEndian.Uint64(rest[:8]))
			rest = rest[8:]
			fallthrough
		case txnKindPut:
			if len(rest) < 4 {
				return nil, errors.New("aria: wal txn value length truncated")
			}
			vlen := int(binary.LittleEndian.Uint32(rest[:4]))
			rest = rest[4:]
			if vlen < 0 || len(rest) < vlen {
				return nil, errors.New("aria: wal txn value overruns record")
			}
			w.value = rest[:vlen]
			rest = rest[vlen:]
		default:
			return nil, fmt.Errorf("aria: unknown wal txn write kind %d", kind)
		}
		writes = append(writes, w)
	}
	if len(rest) != 0 {
		return nil, errors.New("aria: wal txn record has trailing bytes")
	}
	return writes, nil
}

// snapMetaBytes is the per-pair metadata suffix a snapshot value
// carries: version (8, LE) || expiry deadline (8, LE). One synthetic
// pair with an empty key (impossible for user keys — ErrEmptyKey)
// additionally persists the store's version clock, so recovery resumes
// version assignment exactly where the snapshot left it.
const snapMetaBytes = 16

// encodeSnapValue appends the version/expiry suffix to a user value.
func encodeSnapValue(value []byte, ver uint64, exp int64) []byte {
	out := make([]byte, len(value)+snapMetaBytes)
	copy(out, value)
	binary.LittleEndian.PutUint64(out[len(value):], ver)
	binary.LittleEndian.PutUint64(out[len(value)+8:], uint64(exp))
	return out
}

// decodeSnapValue splits a snapshot pair's value back into the user
// value and its metadata.
func decodeSnapValue(v []byte) (value []byte, ver uint64, exp int64, err error) {
	if len(v) < snapMetaBytes {
		return nil, 0, 0, errors.New("aria: snapshot pair missing version metadata")
	}
	cut := len(v) - snapMetaBytes
	return v[:cut], binary.LittleEndian.Uint64(v[cut:]),
		int64(binary.LittleEndian.Uint64(v[cut+8:])), nil
}

// durable is one shard's WAL + checkpoint lineage.
type durable struct {
	log             *wal.Log
	sealer          *seal.Sealer
	dir             string
	checkpointEvery int
	sinceCkpt       int
	// lastSnapCovered is the covered seq of the newest snapshot loaded
	// or written (valid when hasSnap). Checkpoints retain the previous
	// generation — snapshots and WAL records are only pruned up to this
	// value, never up to the snapshot just written — so recovery under
	// Quarantine always has an older snapshot plus the WAL above it to
	// fall back to when the newest snapshot is tampered.
	lastSnapCovered uint64
	hasSnap         bool
	// The segment-set counterpart (cold.go): the current set in apply
	// order, its on-disk bytes, and its covered seq (valid when hasSet).
	// A lineage that turned ColdCompress off still recovers from a set.
	segNames   []string
	segBytes   int64
	setCovered uint64
	hasSet     bool

	recovered   uint64 // records restored at Open (snapshot + replay)
	recFailures uint64 // tamper detections during recovery (Quarantine)
	checkpoints uint64
	ckptErr     error // last background checkpoint failure

	// ckptC arms the background checkpointer; one pending signal is enough.
	ckptC chan struct{}
	// runC is held for the length of a checkpoint run (and by Close while
	// it closes the log): one run per shard, manual and background alike.
	runC chan struct{}
	// commitHook, when set, runs after every group of records commits to
	// the WAL (still under the shard lock); the replication publisher
	// uses it to wake subscribers without polling.
	commitHook func()
}

func (d *durable) fill(st *Stats) {
	ls := d.log.Stats()
	st.WALAppends = ls.Appends
	st.WALRecords = ls.Records
	st.WALBytes = ls.Bytes
	st.WALFsyncs = ls.Fsyncs
	st.Checkpoints = d.checkpoints
	st.RecoveredRecords = d.recovered
	st.Segments = len(d.segNames)
	st.SegmentBytes = d.segBytes
	// Tampering found during recovery counts like tampering found live:
	// it flips Health() to degraded under Quarantine.
	st.IntegrityFailures += d.recFailures
}

// openDurable makes s durable, rooted at dir, running crash recovery
// first: load the newest valid recovery point, replay the WAL above it,
// stop cleanly at a torn tail, and route tampering through the integrity
// policy — FailStop fails the Open (wrapping ErrIntegrity, log left
// untouched as evidence), Quarantine salvages the valid prefix, counts
// the failure, and serves degraded. s.dur is set only once recovery has
// succeeded, so replay runs the op path with the logging stages off.
func (s *shard) openDurable(opts Options, dir string) error {
	if opts.MaxKeySize > maxWalKey {
		return fmt.Errorf("aria: Options.DataDir requires MaxKeySize <= %d (got %d): longer keys do not fit the WAL record framing", maxWalKey, opts.MaxKeySize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("aria: create data dir: %w", err)
	}
	d := &durable{
		sealer:          seal.New(opts.Seed),
		dir:             dir,
		checkpointEvery: opts.CheckpointEvery,
		ckptC:           make(chan struct{}, 1),
		runC:            make(chan struct{}, 1),
	}
	if opts.ColdCompress {
		s.cold = &coldTier{compactEvery: opts.CompactEvery}
		if s.cold.compactEvery <= 0 {
			s.cold.compactEvery = defaultCompactEvery
		}
	}
	// restore reinstates one recovered pair with its recorded version and
	// deadline, without advancing the version clock.
	restore := func(key, value []byte, ver uint64, exp int64) error {
		if err := s.enginePut(key, value); err != nil {
			return err
		}
		s.stamp(key, ver, exp)
		s.note(key, true, false)
		d.recovered++
		return nil
	}

	// 1. Newest valid recovery point. A directory can hold both segment
	// sets (cold-tier checkpoints) and raw snapshots — a lineage that
	// toggled ColdCompress across restarts — so recovery considers both
	// and applies whichever valid point covers more of the WAL.
	// Segment sets first: under Quarantine a tampered manifest or
	// member counts a failure and falls back to the next older set;
	// under FailStop it fails the Open.
	set, haveSet, err := s.recoverSegments(d)
	if err != nil {
		return err
	}

	// Then the newest valid snapshot — but only if it is newer than the
	// recovered set (wal.ListSnapshots lists newest first, so the first
	// snapshot at or below the set's covered seq ends the search).
	snaps, err := wal.ListSnapshots(dir)
	if err != nil {
		return fmt.Errorf("aria: list snapshots: %w", err)
	}
	coveredSeq := uint64(0)
	for _, snap := range snaps {
		covered, pairs, rerr := wal.ReadSnapshot(snap.Path, d.sealer)
		if rerr != nil {
			if !errors.Is(rerr, wal.ErrTampered) {
				return fmt.Errorf("aria: read snapshot: %w", rerr)
			}
			if s.policy != Quarantine {
				return fmt.Errorf("%w: %w", ErrIntegrity, rerr)
			}
			d.recFailures++
			continue
		}
		if haveSet && covered <= set.covered {
			break // the segment set is the newer recovery point
		}
		for _, p := range pairs {
			if len(p.Key) == 0 {
				// The synthetic version-clock pair (see snapMetaBytes).
				if len(p.Value) != 8 {
					return errors.New("aria: snapshot version-clock pair malformed")
				}
				s.vclock = max(s.vclock, binary.LittleEndian.Uint64(p.Value))
				s.chargeSealIn(len(p.Value) + 2)
				continue
			}
			value, ver, exp, derr := decodeSnapValue(p.Value)
			if derr != nil {
				return fmt.Errorf("aria: restore snapshot pair: %w", derr)
			}
			if err := restore(p.Key, value, ver, exp); err != nil {
				return fmt.Errorf("aria: restore snapshot pair: %w", err)
			}
			s.chargeSealIn(len(p.Key) + len(p.Value) + 2)
		}
		coveredSeq = covered
		d.lastSnapCovered, d.hasSnap = covered, true
		haveSet = false
		break
	}
	if haveSet {
		s.vclock = max(s.vclock, set.clock)
		segKeys := make([]string, 0, len(set.state))
		for k := range set.state {
			segKeys = append(segKeys, k)
		}
		sort.Strings(segKeys)
		for _, k := range segKeys {
			e := set.state[k]
			if err := restore([]byte(k), e.value, e.ver, e.exp); err != nil {
				return fmt.Errorf("aria: restore segment pair: %w", err)
			}
		}
		coveredSeq = set.covered
		d.segNames, d.segBytes = set.names, set.bytes
		d.setCovered, d.hasSet = set.covered, true
	}

	// 2. WAL replay above the recovery point.
	log, err := wal.Open(wal.Options{Dir: dir, Sealer: d.sealer, Fsync: opts.Fsync})
	if err != nil {
		return fmt.Errorf("aria: open wal: %w", err)
	}
	replay := func(seq uint64, payload []byte) error {
		walOp, key, value, derr := decodeWalRecord(payload)
		if derr != nil {
			// An undecodable payload authenticated correctly, so it is
			// a logic-level corruption, not tampering: fail regardless
			// of policy rather than guess.
			return derr
		}
		s.chargeSealIn(len(payload))
		switch walOp {
		case walOpPut, walOpPutTTL:
			var exp int64
			if walOp == walOpPutTTL {
				if exp, value, derr = splitTTLBody(value); derr != nil {
					return derr
				}
			}
			if err := s.apply(op{kind: opKindPut, key: key, value: value, exp: exp}); err != nil {
				return fmt.Errorf("aria: replay put: %w", err)
			}
			s.note(key, true, true)
		case walOpDelete:
			if err := s.apply(op{kind: opKindDelete, key: key}); err != nil && !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("aria: replay delete: %w", err)
			}
			s.note(key, false, true)
		case walOpTxn:
			writes, derr := decodeWalTxnBody(value)
			if derr != nil {
				return derr
			}
			if err := s.applyTxn(writes); err != nil {
				return fmt.Errorf("aria: replay txn: %w", err)
			}
			for i := range writes {
				s.note(writes[i].key, !writes[i].del, true)
			}
		default:
			return fmt.Errorf("aria: unknown wal opcode %d", walOp)
		}
		d.recovered++
		return nil
	}
	_, err = log.Recover(coveredSeq, replay)
	if err != nil {
		if !errors.Is(err, wal.ErrTampered) {
			log.Close()
			return err
		}
		if s.policy != Quarantine {
			log.Close()
			return fmt.Errorf("%w: %w", ErrIntegrity, err)
		}
		// Quarantine: salvage the verified prefix and serve degraded.
		// Records past the first tampered byte are untrusted and lost.
		d.recFailures++
		if terr := log.TruncateTail(); terr != nil {
			log.Close()
			return fmt.Errorf("aria: salvage wal: %w", terr)
		}
	}
	d.log = log
	s.dur = d
	return nil
}

// note records a logged write in key's row: live joins (or a delete
// leaves) the shadow key set and, under the cold tier, a written row
// turns dirty — the next incremental segment's contents, a delete as a
// tombstone — and touched. A pair restored from a recovery point is live
// but not written since it.
func (s *shard) note(key []byte, live, written bool) {
	r := s.recs[string(key)]
	switch {
	case live && !r.is(rowLive):
		r.bits |= rowLive
		s.liveKeys++
	case !live && r.is(rowLive):
		r.bits &^= rowLive
		s.liveKeys--
	}
	if s.cold != nil && written {
		r.bits |= rowDirty | rowTouched
	}
	s.putRec(key, r)
}

// chargeSealIn prices unsealing one recovered record.
func (s *shard) chargeSealIn(payloadBytes int) {
	s.enc.SealIn(payloadBytes + seal.Overhead)
	s.enc.ChargeCTR(payloadBytes)
	s.enc.ChargeMAC(payloadBytes + seal.Overhead)
}

// logRecords appends the payloads as one group commit, charges the
// simulator — seal crypto per record, one boundary crossing for the
// group, one OCALL per fsync issued — and arms the automatic
// checkpointer.
func (s *shard) logRecords(payloads ...[]byte) error {
	d := s.dur
	res, err := d.log.Append(payloads...)
	if err != nil {
		return fmt.Errorf("aria: wal append: %w", err)
	}
	for _, p := range payloads {
		s.enc.ChargeCTR(len(p))
		s.enc.ChargeMAC(len(p) + seal.Overhead)
	}
	s.enc.SealOut(res.Bytes)
	for i := 0; i < res.Fsyncs; i++ {
		s.enc.Ocall()
	}
	d.sinceCkpt += len(payloads)
	if d.checkpointEvery > 0 && d.sinceCkpt >= d.checkpointEvery {
		d.sinceCkpt = 0
		select {
		case d.ckptC <- struct{}{}:
		default: // a checkpoint is already pending
		}
	}
	if d.commitHook != nil {
		d.commitHook()
	}
	return nil
}

// ckptChunk is how many live keys a snapshot run reads per hold of the
// shard lock: ~0.25 ms of engine reads, the longest a request waits for
// the walker.
const ckptChunk = 128

// ckptSlots bounds the snapshot runs in flight across the whole process
// to one fewer than the Ps, so one P always has no checkpointer on it:
// a run that merely yields between holds goes to the global run queue,
// which the scheduler drains before it polls the network, and with a
// run on every P socket readiness waits for sysmon (DESIGN.md §10).
var ckptSlots = make(chan struct{}, max(1, runtime.GOMAXPROCS(0)-1))

// errCkptClosed is Checkpoint's answer on a closed store; the background
// checkpointer drops it.
var errCkptClosed = errors.New("aria: checkpoint on closed store")

// ckptRun is one checkpoint in flight. A snapshot run publishes it as
// shard.run from begin until its walker has read the last key, which is
// what turns the write path's pre-image hook on; everything in it is
// guarded by the shard lock.
type ckptRun struct {
	// vclock is the version clock at the run's cut: a live row at or
	// below it has not been written since.
	vclock uint64
	// names is the live keys at the cut, sorted; nil until the walker's
	// first hold publishes the sorted slice. names[:next] have been read.
	names []string
	next  int
	// stash holds the pre-images writers captured ahead of the walker,
	// as encoded snapshot values; nil = the key has nothing to persist.
	stash map[string][]byte
	err   error // a pre-image read that failed the way a walker read would

	holds int           // times the run has taken the shard lock (the lock-hold pin counts reads by it)
	stall time.Duration // longest single hold
}

// hold runs fn under the shard lock, timing the hold.
func (run *ckptRun) hold(mu *sync.Mutex, fn func()) {
	mu.Lock()
	t0 := time.Now()
	run.holds++
	fn()
	run.stall = max(run.stall, time.Since(t0))
	mu.Unlock()
}

// unreached reports whether the walker has yet to read live key k.
func (run *ckptRun) unreached(k string) bool {
	return run.names == nil || (run.next < len(run.names) && k >= run.names[run.next])
}

// checkpoint takes one checkpoint, manual or background: a segment
// checkpoint under the cold tier (cold.go: incremental compressed
// segments and a set manifest, written under one hold of the shard
// lock), otherwise a sealed snapshot captured in short holds (snapshot).
// One runs per shard at a time, and Close waits for it.
func (s *shard) checkpoint() error {
	d := s.dur
	d.runC <- struct{}{}
	defer func() { <-d.runC }()
	if s.cold == nil {
		ckptSlots <- struct{}{}
		defer func() { <-ckptSlots }()
	}
	t0 := time.Now()
	run := &ckptRun{}
	var err error
	compacted := false
	if s.cold == nil {
		err = s.snapshot(run)
	} else {
		run.hold(&s.mu, func() {
			if s.closed {
				err = errCkptClosed
				return
			}
			before := s.cold.compactions
			err = s.checkpointCold()
			compacted = s.cold.compactions > before
		})
	}
	if err != errCkptClosed {
		s.ins.observeCheckpoint(time.Since(t0), run.stall, compacted)
	}
	return err
}

// snapshot writes an atomic sealed snapshot of the state as of one WAL
// sequence number without stopping the shard (DESIGN.md §10), then
// prunes what the *previous* snapshot generation no longer needs:
// snapshots older than the previous one and WAL segments at or below
// its covered seq. Keeping two generations means a tampered newest
// snapshot still has a working fallback (older snapshot + retained WAL)
// under Quarantine, instead of silently wiping the store.
//
// Begin, one hold: rotate the WAL so the snapshot boundary aligns with a
// segment boundary, fix covered and the version clock, collect the live
// row names, publish the run. Capture, one hold per ckptChunk keys,
// yielding in between: read the keys in ascending order, taking a
// writer's pre-image (preimage) where one got there first — so the pairs
// are exactly what a stop-the-world walk at covered would have read, in
// the same order at the same charges. Finish: seal and write with the
// lock released, prune, and one last hold to charge the sealing, move the
// lineage forward and truncate the WAL.
func (s *shard) snapshot(run *ckptRun) error {
	d := s.dur
	var (
		err     error
		covered uint64 // the cut: the snapshot is the state as of this WAL seq
		names   []string
		keep    uint64 // the previous generation's covered seq: the prune floor
		noop    bool
	)
	run.hold(&s.mu, func() {
		if s.closed {
			err = errCkptClosed
			return
		}
		covered = d.log.NextSeq() - 1
		if noop = d.hasSnap && covered == d.lastSnapCovered; noop {
			// No record was logged since the last snapshot: re-sealing an
			// identical snapshot would only churn the files.
			return
		}
		if err = d.log.Rotate(); err != nil {
			err = fmt.Errorf("aria: checkpoint rotate: %w", err)
			return
		}
		// On the first checkpoint there is no previous snapshot: the floor
		// is 0, so the full WAL is retained and remains a complete fallback
		// on its own.
		if d.hasSnap {
			keep = d.lastSnapCovered
		}
		run.vclock = s.vclock
		// Hash-indexed schemes cannot enumerate their contents, so the
		// walker reads the shadow key set (sorted, for deterministic
		// snapshots).
		names = make([]string, 0, s.liveKeys)
		for k, r := range s.recs {
			if r.is(rowLive) {
				names = append(names, k)
			}
		}
		run.stash = make(map[string][]byte)
		s.run = run
	})
	if err != nil || noop {
		return err
	}
	sort.Strings(names)
	pairs := make([]wal.Pair, 0, len(names)+1)
	// The synthetic version-clock pair leads (empty key — impossible
	// for user keys), so recovery restores the clock before any record
	// above the snapshot replays.
	pairs = append(pairs, wal.Pair{Value: binary.LittleEndian.AppendUint64(nil, run.vclock)})
	for walking := true; walking; {
		run.hold(&s.mu, func() {
			run.names = names
			for end := min(run.next+ckptChunk, len(names)); run.next < end && err == nil; run.next++ {
				k := names[run.next]
				key := []byte(k)
				v, stashed := run.stash[k]
				if stashed {
					delete(run.stash, k)
				} else {
					v, err = s.snapValue(key)
				}
				if v != nil {
					pairs = append(pairs, wal.Pair{Key: key, Value: v})
				}
			}
			if err == nil {
				err = run.err
			}
			if walking = err == nil && run.next < len(names); !walking {
				s.run = nil
			}
		})
		runtime.Gosched()
	}
	if err != nil {
		return err
	}
	bytes, err := wal.WriteSnapshot(d.dir, d.sealer, covered, pairs)
	if err != nil {
		return fmt.Errorf("aria: write snapshot: %w", err)
	}
	// Pruning also sweeps leftover temp files, so it must stay inside the
	// run: the next run's temp file is one of them.
	if err := wal.PruneSnapshots(d.dir, keep); err != nil {
		return fmt.Errorf("aria: prune snapshots: %w", err)
	}
	run.hold(&s.mu, func() {
		for _, p := range pairs {
			s.enc.ChargeCTR(len(p.Key) + len(p.Value) + 2)
			s.enc.ChargeMAC(len(p.Key) + len(p.Value) + 2 + seal.Overhead)
		}
		s.enc.SealOut(int(bytes))
		s.enc.Ocall() // the snapshot fsync
		if err = d.log.TruncateThrough(keep); err != nil {
			err = fmt.Errorf("aria: truncate wal: %w", err)
			return
		}
		d.lastSnapCovered, d.hasSnap = covered, true
		d.checkpoints++
		d.sinceCkpt = 0
	})
	return err
}

// snapValue reads live key k for a snapshot and encodes its pair value;
// nil means the key has nothing to persist.
func (s *shard) snapValue(key []byte) ([]byte, error) {
	v, r, err := s.get(key)
	if err != nil {
		_, err = s.unpersistable(string(key), err) // skip it, or fail the run
		return nil, err
	}
	return encodeSnapValue(v, r.ver(), r.exp()), nil
}

// preimage is the write path's half of a snapshot run: before a logged
// write changes key, capture the value the run must persist for it. That
// is due only for a key the walker has not read yet that was live at
// covered and has not been written since — its version is still at or
// below the run's clock; once it is written, or stashed, later writes
// skip it. The stash lookup comes first, so a write that stashed and
// then failed does not re-capture. The read is charged to the write that
// triggers it, as copy-on-write in a real enclave would be. Reaps and
// sweeps need none: they delete below the WAL, and a key they reclaim
// has a deadline that has passed at every later recovery.
func (s *shard) preimage(key []byte) {
	run := s.run
	if _, stashed := run.stash[string(key)]; stashed || !run.unreached(string(key)) {
		return
	}
	if r := s.recs[string(key)]; !r.is(rowLive) || r.ver() > run.vclock {
		return
	}
	v, err := s.snapValue(key)
	if err != nil && run.err == nil {
		run.err = err
	}
	run.stash[string(key)] = v
	s.ins.observePreimage()
}

// unpersistable sorts the outcome of a checkpoint's read of live key k:
// skip it (true), persist it (false), or fail the checkpoint.
func (s *shard) unpersistable(k string, err error) (bool, error) {
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, ErrNotFound):
		// The shadow set overapproximates (see rowLive); skip.
		return true, nil
	case errors.Is(err, ErrIntegrity) && s.policy == Quarantine:
		// A poisoned key has no trustworthy value to persist; the
		// checkpoint carries the surviving keys and the store stays
		// degraded.
		return true, nil
	}
	return false, fmt.Errorf("aria: checkpoint read %q: %w", k, err)
}

// WALShards reports one lineage for a durable shard, none otherwise.
func (s *shard) WALShards() int {
	if s.dur == nil {
		return 0
	}
	return 1
}

func (s *shard) WALShardDir(int) string { return s.dur.dir }

// WALShardNextSeq returns the next sequence number the lineage will
// assign (last committed + 1).
func (s *shard) WALShardNextSeq(int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur.log.NextSeq()
}

// SetCommitHook installs the replication hook. It runs under the shard
// lock and must not block.
func (s *shard) SetCommitHook(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		s.dur.commitHook = fn
	}
}
