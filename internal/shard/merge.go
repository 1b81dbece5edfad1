package shard

import "bytes"

// ScanFunc is the shape of one shard's ordered range scan: visit every
// pair with start <= key < end (nil end = unbounded) in key order,
// stopping early when fn returns false. The slices passed to fn are only
// valid during the call — exactly the contract of aria.Store.Scan.
type ScanFunc func(start, end []byte, fn func(key, value []byte) bool) error

// DefaultBatch is the number of pairs Merge pulls from a shard per
// refill. Larger batches amortize the B+-tree re-descent each refill
// pays; smaller ones bound how long a shard's lock is held while other
// shards' operations wait.
const DefaultBatch = 64

// pair is one buffered KV copy. Merge owns these copies, so the slices it
// hands to the caller stay valid for the duration of the callback even
// though the underlying shard scan has already moved on.
type pair struct {
	key, value []byte
}

// cursor tracks one shard's progress through the merge.
type cursor struct {
	scan  ScanFunc
	buf   []pair // pairs fetched but not yet delivered
	next  int    // index of the head pair in buf
	start []byte // where the next refill begins (inclusive)
	done  bool   // shard exhausted its range
}

// refill pulls up to batch pairs from the shard, starting at c.start.
// Each refill is one bounded scan: the shard's lock (taken inside
// c.scan) is held only for the duration of the batch, not the whole
// merge.
func (c *cursor) refill(end []byte, batch int) error {
	if c.done {
		return nil
	}
	c.buf = c.buf[:0]
	c.next = 0
	err := c.scan(c.start, end, func(k, v []byte) bool {
		c.buf = append(c.buf, pair{
			key:   append([]byte(nil), k...),
			value: append([]byte(nil), v...),
		})
		return len(c.buf) < batch
	})
	if err != nil {
		return err
	}
	if len(c.buf) < batch {
		// The scan ended before filling the batch: range exhausted.
		c.done = true
	} else {
		// More may follow; resume just past the last delivered key.
		// Appending 0x00 yields the immediate successor in bytewise
		// order, so the next (inclusive) scan cannot re-deliver it.
		last := c.buf[len(c.buf)-1].key
		c.start = append(append(c.start[:0], last...), 0)
	}
	return nil
}

func (c *cursor) head() *pair {
	if c.next >= len(c.buf) {
		return nil
	}
	return &c.buf[c.next]
}

// Merge runs a k-way merge over the per-shard ordered scans, delivering
// every pair with start <= key < end in global key order, stopping early
// when fn returns false. batch <= 0 selects DefaultBatch.
//
// Shards of a partitioned keyspace hold disjoint keys, so no key is ever
// delivered twice; should two streams nevertheless tie, the lower shard
// index wins and both pairs are delivered (Merge never silently drops
// data). A scan error from any shard aborts the merge immediately with
// that error; pairs already delivered stay delivered, matching the
// mid-stream error semantics of a single store's Scan.
func Merge(scans []ScanFunc, start, end []byte, batch int, fn func(key, value []byte) bool) error {
	if batch <= 0 {
		batch = DefaultBatch
	}
	if len(scans) == 1 {
		// One shard needs no merge machinery — and no copies.
		return scans[0](start, end, fn)
	}
	cursors := make([]*cursor, len(scans))
	for i, sc := range scans {
		c := &cursor{scan: sc, start: append([]byte(nil), start...)}
		if err := c.refill(end, batch); err != nil {
			return err
		}
		cursors[i] = c
	}
	for {
		// Select the smallest head across shards. Shard counts are
		// small (typically <= 64), so a linear pass beats heap
		// bookkeeping and keeps ties deterministic: lowest index wins.
		min := -1
		for i, c := range cursors {
			h := c.head()
			if h == nil {
				continue
			}
			if min < 0 || bytes.Compare(h.key, cursors[min].head().key) < 0 {
				min = i
			}
		}
		if min < 0 {
			return nil // every shard exhausted
		}
		c := cursors[min]
		h := c.head()
		if !fn(h.key, h.value) {
			return nil // caller stopped the scan
		}
		c.next++
		if c.head() == nil && !c.done {
			if err := c.refill(end, batch); err != nil {
				return err
			}
		}
	}
}
