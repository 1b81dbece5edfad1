package aria

// Replication support surface. A durable store exposes its sealed WAL
// lineages to the repl package through Store's WALShard* methods: the
// publisher reads segment files straight off each shard's directory (the
// sealed bytes are the replication stream — see wal/stream.go), and a
// replica node applies verified payloads back through the normal write
// path with ApplyWALPayload so its own WAL re-seals the same operations
// under the same sequence numbers.

import (
	"errors"
	"fmt"
)

// ApplyWALPayload applies one verified WAL record payload through st's
// normal write path, so a replica's own WAL logs the identical
// operation under the identical sequence number (each Put/Delete
// appends exactly one record). A Delete of a key the replica does not
// hold is a divergence — the primary logged an operation the replica's
// state cannot replay — and fails loudly instead of silently skipping
// a sequence number.
func ApplyWALPayload(st Store, payload []byte) error {
	walOp, key, value, err := decodeWalRecord(payload)
	if err != nil {
		return err
	}
	switch walOp {
	case walOpPut:
		return st.Put(key, value)
	case walOpDelete:
		if err := st.Delete(key); err != nil {
			if errors.Is(err, ErrNotFound) {
				return fmt.Errorf("%w: replicated delete of absent key (replica diverged)", ErrIntegrity)
			}
			return err
		}
		return nil
	case walOpPutTTL:
		// The record carries the absolute deadline the primary
		// committed; re-deriving it from a relative TTL on the replica's
		// clock would diverge, so the apply path takes it verbatim.
		exp, v, serr := splitTTLBody(value)
		if serr != nil {
			return serr
		}
		ra, ok := st.(recordApplier)
		if !ok {
			return fmt.Errorf("aria: store %T cannot apply ttl records", st)
		}
		return ra.putExpireAbs(key, v, exp)
	case walOpTxn:
		// The whole transaction applies atomically and re-seals as one
		// record in the replica's own WAL, preserving the primary's
		// all-or-nothing guarantee downstream.
		writes, derr := decodeWalTxnBody(value)
		if derr != nil {
			return derr
		}
		ra, ok := st.(recordApplier)
		if !ok {
			return fmt.Errorf("aria: store %T cannot apply txn records", st)
		}
		return ra.applyTxnWrites(writes)
	default:
		return fmt.Errorf("aria: unknown wal op %d", walOp)
	}
}

// recordApplier is the write path for the two record kinds the public
// Store surface cannot express: a put with an already-absolute deadline,
// and an already-validated transaction. Both stores Open returns
// implement it; a Store from elsewhere cannot be a replica.
type recordApplier interface {
	putExpireAbs(key, value []byte, exp int64) error
	applyTxnWrites(writes []txnWrite) error
}

// InitDataDir prepares dir to be opened with the given seed and shard
// count, writing the sealed shard manifest a fresh sharded data
// directory requires. It is how a replica bootstraps an empty data
// directory before placing transferred snapshots into the per-shard
// lineage directories and calling Open. On a non-empty directory it
// verifies the manifest instead, exactly as Open does.
func InitDataDir(dir string, seed uint64, shards int) error {
	if shards < 1 {
		shards = 1
	}
	return checkShardManifest(dir, seed, shards)
}
