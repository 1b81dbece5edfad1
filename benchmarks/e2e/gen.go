package main

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/ariakv/aria/internal/workload"
)

const (
	keySize   = 16
	valueSize = 128
	// streamLen is the length of one client's pre-generated op stream. A
	// window longer than the stream cycles through it again; write
	// sequences keep advancing, so every written value is still unique.
	streamLen = 1 << 20
	writeFlag = 1 << 31
)

// mix is SplitMix64's finaliser: the benchmark's only source of value bytes.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// tokens is the small vocabulary the compressible part of a value draws
// from, so the cold tier's dictionary finds real repeats without the value
// collapsing the way workload.ValueAt's cyclic alphabet does.
var tokens = [...]string{
	"status=A", "status=B", "region=1", "region=2", "tier=hot", "tier=std",
	"flag=000", "flag=001", "user=abc", "user=xyz", "type=img", "type=txt",
	"ver=0001", "ver=0002", "acl=priv", "acl=publ",
}

// keySlab holds every key back to back so an op costs no key formatting.
type keySlab []byte

func newKeySlab(n int) keySlab {
	s := make(keySlab, n*keySize)
	for i := 0; i < n; i++ {
		k := s[i*keySize : (i+1)*keySize]
		copy(k, "key-0000")
		binary.BigEndian.PutUint64(k[8:], uint64(i))
	}
	return s
}

func (s keySlab) key(i int) []byte { return s[i*keySize : (i+1)*keySize : (i+1)*keySize] }

// fillValue writes the value of key idx at write sequence seq into v:
// 8-byte key index, 8-byte sequence, 40 bytes of dictionary tokens, 64
// pseudo-random bytes and an 8-byte checksum over the rest.
func fillValue(v []byte, idx int, seq uint64) {
	binary.LittleEndian.PutUint64(v[0:], uint64(idx))
	binary.LittleEndian.PutUint64(v[8:], seq)
	h := mix(uint64(idx)<<20 ^ seq)
	for j := 0; j < 5; j++ {
		copy(v[16+8*j:], tokens[(h>>(4*j))&15])
	}
	for j := 0; j < 8; j++ {
		h = mix(h)
		binary.LittleEndian.PutUint64(v[56+8*j:], h)
	}
	binary.LittleEndian.PutUint64(v[120:], valueSum(v[:120]))
}

func valueSum(b []byte) uint64 {
	s := uint64(0xcbf29ce484222325)
	for i := 0; i+8 <= len(b); i += 8 {
		s = (s ^ binary.LittleEndian.Uint64(b[i:])) * 0x100000001b3
		s = bits.RotateLeft64(s, 29)
	}
	return s
}

// checkValue reports the write sequence v carries and whether v is a
// well-formed value of key idx.
func checkValue(v []byte, idx int) (seq uint64, ok bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint64(v) != uint64(idx) ||
		binary.LittleEndian.Uint64(v[120:]) != valueSum(v[:120]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v[8:]), true
}

// oracle remembers, per key, the sequence of the last acknowledged write.
// Every key has one writer (see genStream), so the slot is written by one
// goroutine and a reader that loads it before its Get must see that
// sequence or a later one; with a single client the match is exact.
type oracle struct {
	acked []atomic.Uint64
	seq   atomic.Uint64 // last write sequence handed out
}

func newOracle(keys int) *oracle { return &oracle{acked: make([]atomic.Uint64, keys)} }

// genStream pre-generates one client's op stream: key popularity is the
// YCSB scrambled Zipfian (theta 0.99) from internal/workload, the read or
// write flag is drawn at readRatio. Writes of client c of n go only to
// keys congruent to c modulo n, which gives every key a single writer.
func genStream(keys int, readRatio float64, seed int64, c, n, length int) ([]uint32, error) {
	g, err := workload.New(workload.Config{Keys: keys, Dist: workload.Zipfian, Skew: 0.99, Seed: seed})
	if err != nil {
		return nil, err
	}
	ops := make([]uint32, length)
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(c)
	thresh := uint64(readRatio * float64(math.MaxUint32))
	for i := range ops {
		idx := g.NextIndex()
		h = mix(h)
		if h&math.MaxUint32 >= thresh {
			if idx = idx - idx%n + c; idx >= keys {
				idx -= n
			}
			ops[i] = uint32(idx) | writeFlag
		} else {
			ops[i] = uint32(idx)
		}
	}
	return ops, nil
}

// lhist is a log-linear latency histogram over nanoseconds: 64 linear
// sub-buckets per power of two (under 1.6 % wide), so a window of millions
// of ops keeps its percentiles without keeping its samples.
type lhist struct {
	counts [lhistBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

const (
	lhistSub     = 64
	lhistBuckets = lhistSub * 40
)

func lhistBucket(v uint64) int {
	if v < lhistSub {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e is in [64,128)
	b := (e+1)*lhistSub + int(v>>uint(e)) - lhistSub
	if b >= lhistBuckets {
		b = lhistBuckets - 1
	}
	return b
}

func lhistLow(b int) float64 {
	if b < lhistSub {
		return float64(b)
	}
	e := b/lhistSub - 1
	return float64(uint64(lhistSub+b%lhistSub) << uint(e))
}

func (h *lhist) record(ns int64) {
	v := uint64(ns)
	if ns < 0 {
		v = 0
	}
	h.counts[lhistBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *lhist) merge(o *lhist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile interpolates inside the bucket that holds rank q*n.
func (h *lhist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := lhistLow(b), lhistLow(b+1)
			if hi > float64(h.max) {
				hi = float64(h.max)
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

func (h *lhist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
