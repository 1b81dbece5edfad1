package repl

import (
	"fmt"
	"io"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/kvnet"
	"github.com/ariakv/aria/wal"
)

// Subscribe implements kvnet.ReplBackend on the primary: stream one
// shard's sealed WAL to a subscriber, segment by segment from each
// segment's start (the record chain verifies only from there — the
// subscriber skips records it already applied). The generation
// handshake fences stale lineages in both directions before a single
// record moves:
//
//   - a subscriber presenting a NEWER generation proves a promotion
//     happened elsewhere, so this publisher fences itself;
//   - a subscriber presenting an OLDER generation with log history
//     (afterSeq > 0) is a fenced lineage and is refused;
//   - a subscriber claiming MORE history than the publisher has
//     diverged (an ex-primary's unshipped suffix) and is refused.
func (n *Node) Subscribe(shardIdx uint32, afterSeq, gen uint64, tail bool, acks <-chan uint64, stop <-chan struct{}, emit func(kvnet.ReplEvent) error) error {
	if int(shardIdx) >= n.shards {
		return fmt.Errorf("repl: unknown shard %d", shardIdx)
	}
	n.mu.Lock()
	role, ourGen := n.role, n.gen
	n.mu.Unlock()
	switch {
	case role == kvnet.RoleFenced:
		return fmt.Errorf("repl: publisher is fenced: %w", aria.ErrFenced)
	case role != kvnet.RolePrimary:
		return fmt.Errorf("repl: cannot subscribe to a %s node", role)
	case gen > ourGen:
		n.becomeFenced(gen)
		return fmt.Errorf("repl: superseded by generation %d: %w", gen, aria.ErrFenced)
	case gen < ourGen && afterSeq > 0:
		return fmt.Errorf("repl: subscriber generation %d predates %d: %w", gen, ourGen, aria.ErrFenced)
	case afterSeq > n.AppliedSeq(shardIdx):
		return fmt.Errorf("repl: subscriber at seq %d is ahead of the publisher (diverged lineage): %w",
			afterSeq, aria.ErrFenced)
	}

	id := n.subSeq.Add(1)
	a := n.acks[shardIdx]
	defer a.forget(id)
	drain := func() {
		for {
			select {
			case seq := <-acks:
				a.record(id, seq)
			default:
				return
			}
		}
	}
	// idle parks until something changes: a commit, an ack, stop, or
	// the poll interval (which also paces heartbeats).
	idle := func() bool {
		wake := n.wakeChan()
		select {
		case <-stop:
			return false
		case <-n.closeC:
			return false
		case seq := <-acks:
			a.record(id, seq)
		case <-wake:
		case <-time.After(n.cfg.PollInterval):
		}
		return true
	}

	dir := n.store.WALShardDir(int(shardIdx))
	cursor := afterSeq // highest seq the subscriber is known to hold
	var reader *wal.SegmentReader
	var segFirst uint64  // current segment's first seq
	var streamSeq uint64 // seq of the next record the reader will yield
	defer func() {
		if reader != nil {
			reader.Close()
		}
	}()

	for {
		drain()
		select {
		case <-stop:
			return nil
		case <-n.closeC:
			return nil
		default:
		}
		// Another stream's handshake may have fenced this node mid-way.
		if n.Role() != kvnet.RolePrimary {
			return fmt.Errorf("repl: publisher fenced mid-stream: %w", aria.ErrFenced)
		}

		if reader == nil {
			next := n.store.WALShardNextSeq(int(shardIdx))
			if cursor+1 >= next {
				// Caught up with no open segment: finite catch-up is
				// done; a tail stream heartbeats and parks.
				if !tail {
					return nil
				}
				if err := emit(kvnet.ReplEvent{Kind: kvnet.EvHeartbeat, Seq: next}); err != nil {
					return err
				}
				if !idle() {
					return nil
				}
				continue
			}
			segs, err := wal.Segments(dir)
			if err != nil {
				return err
			}
			var pick *wal.SegmentInfo
			for i := range segs {
				if segs[i].FirstSeq <= cursor+1 {
					pick = &segs[i]
				} else {
					break
				}
			}
			if pick == nil {
				// History before cursor+1 was pruned: the subscriber
				// must bootstrap from a snapshot instead.
				snaps, err := wal.ListSnapshots(dir)
				if err != nil {
					return err
				}
				var covered uint64
				if len(snaps) > 0 {
					covered = snaps[0].Covered
				}
				return emit(kvnet.ReplEvent{Kind: kvnet.EvSnapshotNeeded, Seq: covered})
			}
			r, err := wal.OpenSegment(pick.Path)
			if err != nil {
				return err
			}
			reader, segFirst, streamSeq = r, pick.FirstSeq, pick.FirstSeq
			if err := emit(kvnet.ReplEvent{Kind: kvnet.EvSegStart, Seq: segFirst}); err != nil {
				return err
			}
			continue
		}

		rec, err := reader.Next()
		switch {
		case err == io.EOF:
			// End of the visible bytes: either the log rotated past this
			// segment, or we are at the live tail (possibly mid-append).
			segs, serr := wal.Segments(dir)
			if serr != nil {
				return serr
			}
			var newer *wal.SegmentInfo
			for i := range segs {
				if segs[i].FirstSeq > segFirst {
					newer = &segs[i]
					break
				}
			}
			if newer != nil {
				if newer.FirstSeq != streamSeq {
					return fmt.Errorf("repl: segment at seq %d ends at %d before successor at %d: %w",
						segFirst, streamSeq-1, newer.FirstSeq, wal.ErrTampered)
				}
				reader.Close()
				reader = nil // rotate to the successor
				continue
			}
			// Live tail. Heartbeat when caught up, then wait for more.
			if tail && cursor+1 >= n.store.WALShardNextSeq(int(shardIdx)) {
				if err := emit(kvnet.ReplEvent{Kind: kvnet.EvHeartbeat, Seq: cursor + 1}); err != nil {
					return err
				}
			} else if !tail && cursor+1 >= n.store.WALShardNextSeq(int(shardIdx)) {
				return nil
			}
			if !idle() {
				return nil
			}
		case err != nil:
			return err // on-disk corruption below the publisher
		default:
			if err := emit(kvnet.ReplEvent{Kind: kvnet.EvRecord, Rec: rec}); err != nil {
				return err
			}
			n.met.addBytes(len(rec))
			cursor = streamSeq
			streamSeq++
		}
	}
}
