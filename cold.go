package aria

// The cold tier (Options.ColdCompress; DESIGN.md §15). Two mechanisms
// share the same compressor (internal/compress) and hang off the
// durable stages of the op path:
//
//  1. Segment checkpoints. Instead of re-sealing the whole keyspace
//     into a snapshot on every checkpoint, the store writes an
//     immutable, sorted, compressed, sealed segment holding only the
//     keys written since the last checkpoint (tombstones for deletes),
//     and publishes a sealed set manifest naming the segments that
//     constitute the recovery point. When the set grows past
//     CompactEvery segments, a compaction rewrites every live key into
//     one segment and starts a fresh set. Checkpoint cost is O(dirty),
//     not O(keyspace) — the term that made large keyspaces fall off the
//     throughput cliff when checkpoints were raw snapshots.
//
//  2. Cold demotion. After each checkpoint, keys that were not touched
//     since the previous one are compressed and moved out of the
//     enclave-resident store into an untrusted cold area (modelled by
//     the coldRec hanging off the key's row), shrinking resident bytes
//     — index, Secure Cache and heap pressure — so the EPC covers a
//     larger hot set. Any later access promotes the key back
//     (decompress-on-miss); its version and expiry never left the row,
//     so CAS/TTL/transaction semantics are oblivious to demotion.
//
// Every byte that crosses the trust boundary is charged to the
// simulator: ChargeCompress/ChargeDecompress for the codec work, CTR +
// CMAC + SealOut/SealIn for sealing the (compressed) bytes — this is
// where compression honestly pays, since fewer sealed bytes cross.

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"github.com/ariakv/aria/internal/compress"
	"github.com/ariakv/aria/internal/seal"
	"github.com/ariakv/aria/internal/segment"
	"github.com/ariakv/aria/wal"
)

// defaultCompactEvery bounds the segment set when Options.CompactEvery
// is left zero.
const defaultCompactEvery = 8

// coldRec is one demoted value, compressed under its demotion round's
// dictionary. The key's version and deadline stay in its table row.
type coldRec struct {
	comp   []byte
	rawLen int
	raw    bool // value stored uncompressed (dictionary did not help)
	dict   *compress.Dict
}

// coldTier is one shard's cold-tier bookkeeping.
type coldTier struct {
	compactEvery int
	keys         int    // rows currently demoted
	resident     int    // compressed bytes held in the cold area
	dictBytes    int    // serialized size of the newest dictionary
	hits         uint64 // accesses promoted out of the cold tier
	misses       uint64 // read lookups past the cold tier that found nothing
	compRaw      uint64 // compressor input bytes (demotions + segments)
	compOut      uint64 // compressor output bytes
	compactions  uint64 // major compactions (full set rewrites)
}

func (c *coldTier) fill(st *Stats) {
	st.ColdKeys = c.keys
	st.ColdBytes = c.resident
	st.ColdHits = c.hits
	st.ColdMisses = c.misses
	st.CompRawBytes = c.compRaw
	st.CompBytes = c.compOut
	st.CompDictBytes = c.dictBytes
	st.Compactions = c.compactions
}

// coldValue decodes one cold record back to its raw value, charging the
// decompression and the boundary copy of the compressed bytes.
func (s *shard) coldValue(rec *coldRec) ([]byte, error) {
	value := rec.comp
	if !rec.raw {
		v, err := rec.dict.Decompress(rec.comp, rec.rawLen)
		if err != nil {
			// The cold area is process-private memory, so a defect here is
			// a logic bug, not host tampering — but serving a wrong value
			// would be worse than failing, so treat it as integrity loss.
			return nil, fmt.Errorf("%w: cold record corrupt: %v", ErrIntegrity, err)
		}
		value = v
	}
	s.enc.SealIn(len(rec.comp) + seal.Overhead)
	s.enc.ChargeCTR(len(rec.comp))
	s.enc.ChargeMAC(len(rec.comp) + seal.Overhead)
	if !rec.raw {
		s.enc.ChargeDecompress(rec.rawLen)
	}
	return value, nil
}

// promote is the cold-residency stage: it marks key touched and, if the
// key was demoted, puts its value back into the engine. Every
// key-touching operation runs it first, so the later stages never see a
// demoted key — which also makes it the one place every logged write
// passes before it changes a key, where a snapshot run in flight gets
// its pre-image (durable.go). read is set on read paths: they need no
// pre-image, and ColdMisses means "read fell past the cold tier", not
// "fresh key inserted".
func (s *shard) promote(key []byte, read bool) error {
	if s.cold == nil && s.run == nil { // kept this small so the disabled path inlines to the checks
		return nil
	}
	return s.promoteSlow(key, read)
}

func (s *shard) promoteSlow(key []byte, read bool) error {
	if s.cold == nil { // a snapshot run is capturing: runs and the cold tier exclude each other
		if !read {
			s.preimage(key)
		}
		return nil
	}
	r := s.recs[string(key)]
	rec := r.cold()
	if rec == nil {
		if read && !r.is(rowLive) {
			s.cold.misses++
		}
		// Only a live key can be demoted, so only a live key needs the mark.
		if r.bits&(rowLive|rowTouched) == rowLive {
			r.bits |= rowTouched
			s.recs[string(key)] = r
		}
		return nil
	}
	value, err := s.coldValue(rec)
	if err != nil {
		return err
	}
	if err := s.enginePut(key, value); err != nil {
		return fmt.Errorf("aria: promote cold key: %w", err)
	}
	s.cold.hits++
	s.cold.keys--
	s.cold.resident -= len(rec.comp)
	r.bits |= rowTouched
	s.recs[string(key)] = r.with(r.exp(), nil)
	return nil
}

// promoteRange promotes every cold key in [start, end) (nil end =
// unbounded), in key order, so a Scan over the engine sees the whole
// keyspace.
func (s *shard) promoteRange(start, end []byte) error {
	if s.cold == nil || s.cold.keys == 0 {
		return nil
	}
	var hit []string
	for k, r := range s.recs {
		if r.cold() != nil && string(start) <= k && (end == nil || k < string(end)) {
			hit = append(hit, k)
		}
	}
	sort.Strings(hit)
	for _, k := range hit {
		if err := s.promote([]byte(k), false); err != nil {
			return err
		}
	}
	return nil
}

// valueOf reads one live key's value and row wherever it resides —
// engine or cold tier — without changing its residency, so a checkpoint
// does not promote the whole keyspace.
func (s *shard) valueOf(k string) ([]byte, keyRec, error) {
	if r := s.recs[k]; r.cold() != nil {
		v, err := s.coldValue(r.cold())
		return v, r, err
	}
	return s.get([]byte(k))
}

// chargeSegment prices one segment crossing the boundary: one CTR+CMAC
// per sealed record (header with dictionary, each block, trailer).
func (s *shard) chargeSegment(meta segment.Meta) {
	s.enc.ChargeCTR(meta.DictBytes + 32)
	s.enc.ChargeMAC(meta.DictBytes + 32 + seal.Overhead)
	for _, n := range meta.BlockBytes {
		s.enc.ChargeCTR(n)
		s.enc.ChargeMAC(n + seal.Overhead)
	}
	s.enc.ChargeCTR(11)
	s.enc.ChargeMAC(11 + seal.Overhead)
}

// checkpointCold is the segment-set checkpoint (the ColdCompress branch
// of checkpoint): rotate the WAL so the boundary aligns with a segment
// boundary, write one segment — incremental (dirty keys + tombstones)
// or, when the set is full, a compaction of every live key — publish the
// new set manifest, prune the generation before the previous one, and
// demote keys that have gone cold. Callers hold the shard lock.
func (s *shard) checkpointCold() error {
	d, c := s.dur, s.cold
	covered := d.log.NextSeq() - 1
	if d.hasSet && covered == d.setCovered {
		return nil // nothing logged since the last segment
	}
	if err := d.log.Rotate(); err != nil {
		return fmt.Errorf("aria: checkpoint rotate: %w", err)
	}
	full := !d.hasSet || len(d.segNames) >= c.compactEvery
	col := segment.NewCollector(s.liveKeys)
	for k, r := range s.recs {
		switch {
		case r.is(rowLive) && (full || r.is(rowDirty)):
			v, r, err := s.valueOf(k)
			if skip, err := s.unpersistable(k, err); err != nil {
				return err
			} else if !skip {
				col.Add([]byte(k), encodeSnapValue(v, r.ver(), r.exp()), false)
			}
		case r.is(rowDirty) && !full:
			col.Add([]byte(k), nil, true) // deleted since the last segment
		}
	}
	meta, err := col.Load(d.dir, d.sealer, covered)
	if err != nil {
		return fmt.Errorf("aria: write segment: %w", err)
	}
	// Sealing the segment out: compression of the raw payload, the
	// per-record crypto, the boundary copy of the whole file, the fsync.
	s.enc.ChargeCompress(int(meta.RawBytes))
	s.chargeSegment(meta)
	s.enc.SealOut(int(meta.FileBytes))
	s.enc.Ocall()
	c.compRaw += uint64(meta.RawBytes)
	c.compOut += uint64(meta.CompBytes)
	c.dictBytes = meta.DictBytes
	if full {
		if d.hasSet {
			c.compactions++
		}
		d.segNames = []string{meta.Name}
		d.segBytes = meta.FileBytes
	} else {
		d.segNames = append(d.segNames, meta.Name)
		d.segBytes += meta.FileBytes
	}
	setBytes, err := segment.WriteSet(d.dir, d.sealer, covered, s.vclock, d.segNames)
	if err != nil {
		return fmt.Errorf("aria: write segment set: %w", err)
	}
	// Publishing the set manifest.
	s.enc.ChargeCTR(int(setBytes))
	s.enc.ChargeMAC(int(setBytes))
	s.enc.SealOut(int(setBytes))
	s.enc.Ocall()
	// Retention mirrors the snapshot path, but a generation is a SET:
	// prune keeps every segment a surviving manifest references, so
	// carried-forward segments are not double-counted against the
	// two-generation budget and compaction does not double disk usage.
	keep := uint64(0)
	if d.hasSet {
		keep = d.setCovered
	}
	if err := segment.Prune(d.dir, d.sealer, keep); err != nil {
		return fmt.Errorf("aria: prune segments: %w", err)
	}
	// Legacy raw snapshots (a lineage started without ColdCompress) age
	// out under the same floor.
	if err := wal.PruneSnapshots(d.dir, keep); err != nil {
		return fmt.Errorf("aria: prune snapshots: %w", err)
	}
	if err := d.log.TruncateThrough(keep); err != nil {
		return fmt.Errorf("aria: truncate wal: %w", err)
	}
	d.setCovered, d.hasSet = covered, true
	d.checkpoints++
	d.sinceCkpt = 0
	s.demote()
	return nil
}

// demote closes a checkpoint epoch: it clears every row's dirty and
// touched marks and moves the live, resident keys nobody touched since
// the previous checkpoint out of the engine into the compressed cold
// area. The round trains its own dictionary on the values it demotes
// (each cold record keeps a reference, so earlier rounds' records stay
// decodable), compresses, charges the seal-out of the compressed bytes,
// and deletes the resident copy — which is what actually returns index,
// heap, and Secure Cache space to the hot set.
func (s *shard) demote() {
	var cands []string
	for k, r := range s.recs {
		if r.bits&(rowLive|rowTouched) == rowLive && r.cold() == nil {
			cands = append(cands, k)
		}
		if r.bits&(rowDirty|rowTouched) != 0 {
			if r.bits &^= rowDirty | rowTouched; r == (keyRec{}) {
				delete(s.recs, k) // a deleted key's tombstone, now persisted
			} else {
				s.recs[k] = r
			}
		}
	}
	sort.Strings(cands) // deterministic demotion order → deterministic costs
	type pending struct {
		k string
		v []byte
	}
	pend := make([]pending, 0, len(cands))
	samples := make([][]byte, 0, len(cands))
	for _, k := range cands {
		v, _, err := s.get([]byte(k))
		if err != nil {
			continue // expired, vanished, or poisoned: leave as-is
		}
		pend = append(pend, pending{k, v})
		samples = append(samples, v)
	}
	if len(pend) == 0 {
		return
	}
	c := s.cold
	dict := compress.Train(samples)
	c.dictBytes = dict.Bytes()
	for _, p := range pend {
		comp := dict.Compress(nil, p.v)
		raw := false
		if len(comp) >= len(p.v) {
			comp, raw = p.v, true
		}
		s.enc.ChargeCompress(len(p.v))
		s.enc.SealOut(len(comp) + seal.Overhead)
		s.enc.ChargeCTR(len(comp))
		s.enc.ChargeMAC(len(comp) + seal.Overhead)
		if err := s.engineDelete([]byte(p.k)); err != nil {
			continue // could not evict: the key simply stays resident
		}
		r := s.recs[p.k]
		s.recs[p.k] = r.with(r.exp(), &coldRec{comp: comp, rawLen: len(p.v), raw: raw, dict: dict})
		c.keys++
		c.resident += len(comp)
		c.compRaw += uint64(len(p.v))
		c.compOut += uint64(len(comp))
	}
}

// recoveredSet is a segment set's merged state (members applied in
// order, tombstones shadowing) and identity.
type recoveredSet struct {
	state          map[string]segPairState
	covered, clock uint64
	names          []string
	bytes          int64
}

// segPairState is one key's merged recovery state across a segment set.
type segPairState struct {
	value []byte
	ver   uint64
	exp   int64
}

// recoverSegments finds the newest valid segment set in d.dir and loads
// it. Under Quarantine a tampered manifest or member counts a recovery
// failure and falls back to the next older set; under FailStop it fails
// the Open. ok is false when no usable set exists.
func (s *shard) recoverSegments(d *durable) (set recoveredSet, ok bool, err error) {
	sets, serr := segment.Sets(d.dir)
	if serr != nil {
		return set, false, fmt.Errorf("aria: list segment sets: %w", serr)
	}
	for _, ref := range sets {
		covered, clock, members, rerr := segment.ReadSet(ref.Path, d.sealer)
		if rerr != nil {
			if s.policy != Quarantine {
				return set, false, fmt.Errorf("%w: %w", ErrIntegrity, rerr)
			}
			d.recFailures++
			continue
		}
		set = recoveredSet{state: make(map[string]segPairState), covered: covered, clock: clock, names: members}
		good := true
		for _, name := range members {
			meta, merr := segment.Read(filepath.Join(d.dir, name), d.sealer, func(p segment.Pair) error {
				if p.Tombstone {
					delete(set.state, string(p.Key))
					return nil
				}
				value, ver, exp, derr := decodeSnapValue(p.Value)
				if derr != nil {
					return derr
				}
				set.state[string(p.Key)] = segPairState{
					value: append([]byte(nil), value...), ver: ver, exp: exp,
				}
				return nil
			})
			if merr != nil {
				// A referenced member that is missing is tampering, not a
				// crash artifact: the manifest is published only after its
				// members are durable, so a vanished file means rollback.
				if !errors.Is(merr, segment.ErrTampered) && !errors.Is(merr, fs.ErrNotExist) {
					return set, false, fmt.Errorf("aria: read segment: %w", merr)
				}
				if s.policy != Quarantine {
					return set, false, fmt.Errorf("%w: %w", ErrIntegrity, merr)
				}
				d.recFailures++
				good = false
				break
			}
			// The mirror image of sealing it out: unseal, then decompress.
			s.enc.SealIn(int(meta.FileBytes))
			s.chargeSegment(meta)
			s.enc.ChargeDecompress(int(meta.RawBytes))
			set.bytes += meta.FileBytes
		}
		if good {
			return set, true, nil
		}
		// Quarantine: fall back to the previous generation.
	}
	return set, false, nil
}
