package repl

import (
	"errors"
	"io"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/seal"
	"github.com/ariakv/aria/kvnet"
	"github.com/ariakv/aria/wal"
)

// shardSealer builds the verifier sealer for one WAL lineage, matching
// the per-shard seed offset the sharded store derives.
func (n *Node) shardSealer(shardIdx int) *seal.Sealer {
	if n.shards > 1 {
		return seal.New(n.seed + uint64(shardIdx))
	}
	return seal.New(n.seed)
}

// sleep waits d or until the appliers are told to stop.
func (n *Node) sleep(d time.Duration) {
	select {
	case <-n.stopC:
	case <-n.closeC:
	case <-time.After(d):
	}
}

// applyLoop is a replica's per-shard applier: it subscribes to the
// primary from the local log end and replays the stream until told to
// stop, redialing after transient failures. Terminal conditions —
// fencing, pruned history, divergence — end the loop for good.
func (n *Node) applyLoop(shardIdx int) {
	defer n.applierWG.Done()
	for !n.stopped() {
		applied := n.store.WALShardNextSeq(shardIdx) - 1
		n.met.redial()
		sub, err := kvnet.DialSubscribe(n.primaryAddr, uint32(shardIdx), applied, n.Generation(), true, n.cfg.DialTimeout)
		if err != nil {
			n.logf("repl: shard %d: dial %s: %v", shardIdx, n.primaryAddr, err)
			n.sleep(n.cfg.RedialBackoff)
			continue
		}
		done := n.applyStream(shardIdx, sub)
		sub.Close()
		if done {
			return
		}
		n.sleep(n.cfg.RedialBackoff)
	}
}

// applyStream drains one subscribe stream, verifying every record with
// the replica's own sealer and applying each exactly once through the
// normal write path (which re-seals it into the replica's WAL under
// the same sequence number). It returns true when the applier should
// stop for good, false to redial.
func (n *Node) applyStream(shardIdx int, sub *kvnet.Subscription) (done bool) {
	v := wal.NewStreamVerifier(n.shardSealer(shardIdx))
	applied := n.store.WALShardNextSeq(shardIdx) - 1
	lastAcked := applied
	ack := func() bool {
		if err := sub.Ack(uint32(shardIdx), applied); err != nil {
			return false
		}
		lastAcked = applied
		return true
	}
	for {
		if n.stopped() {
			return true
		}
		ev, err := sub.Next(n.cfg.StreamTimeout)
		switch {
		case err == nil:
		case errors.Is(err, aria.ErrFenced):
			n.becomeFenced(0)
			return true
		case errors.Is(err, kvnet.ErrDraining):
			n.logf("repl: shard %d: publisher draining; redialing", shardIdx)
			return false
		case errors.Is(err, io.EOF):
			return false
		default:
			n.logf("repl: shard %d: stream: %v", shardIdx, err)
			return false
		}
		switch ev.Kind {
		case kvnet.EvSegStart:
			v.StartSegment(ev.Seq)
		case kvnet.EvRecord:
			seq, payload, verr := v.Verify(ev.Rec)
			if verr != nil {
				n.logf("repl: shard %d: record failed verification: %v", shardIdx, verr)
				return false
			}
			if seq <= applied {
				continue // already applied on a previous stream
			}
			if seq != applied+1 {
				n.logf("repl: shard %d: gap: got seq %d, want %d", shardIdx, seq, applied+1)
				return false
			}
			if aerr := aria.ApplyWALPayload(n.store, payload); aerr != nil {
				// The stream verified but the state disagrees: this
				// replica has diverged. Loud stop; re-seed it.
				n.logf("repl: shard %d: APPLY DIVERGENCE at seq %d: %v", shardIdx, seq, aerr)
				return true
			}
			applied = seq
			n.noteApplied(shardIdx)
			if applied-lastAcked >= n.cfg.AckEvery && !ack() {
				return false
			}
		case kvnet.EvHeartbeat:
			n.notePrimaryNext(shardIdx, ev.Seq)
			// Ack only if we advanced since the last ack, so an idle
			// heartbeat does not echo into an ack/recompute spin.
			if lastAcked != applied && !ack() {
				return false
			}
		case kvnet.EvSnapshotNeeded:
			n.logf("repl: shard %d: primary pruned history past our position (snapshot covers seq %d); re-seed this replica",
				shardIdx, ev.Seq)
			return true
		}
	}
}

// notePrimaryNext records the publisher's advertised next sequence for
// lag accounting and refreshes the lag gauge.
func (n *Node) notePrimaryNext(shardIdx int, next uint64) {
	n.mu.Lock()
	n.primaryNext[shardIdx] = next
	n.mu.Unlock()
	n.met.setLag(n.Lag())
}

// noteApplied refreshes the lag gauge after an apply.
func (n *Node) noteApplied(int) {
	n.met.setLag(n.Lag())
}
