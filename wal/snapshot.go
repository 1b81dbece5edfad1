package wal

// Sealed snapshots. A snapshot is a point-in-time copy of the whole
// keyspace covering every WAL record up to its CoveredSeq; loading the
// newest valid snapshot and replaying the records above CoveredSeq
// reconstructs the store. Snapshots are written to a temporary file and
// renamed into place, so a crash mid-checkpoint leaves at most a stale
// .tmp file — a renamed snapshot is always complete. Inside, a snapshot
// is a mini record lineage sealed exactly like the log (its own salt
// and chain label, sequence numbers 0..n+1): a header record, one
// record per pair, and a trailer record whose presence proves the file
// was not cut short. Any defect in a renamed snapshot is therefore
// tampering, never a crash artifact.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/ariakv/aria/internal/seal"
)

const (
	snapPrefix = "snap-"
	snapSuffix = ".seal"
	tmpSuffix  = ".tmp"
	// saltSnapshot is the keystream domain for snapshot records
	// ("ariaSNAP"), distinct from saltRecords. Each snapshot file
	// additionally XORs its covered sequence number into the salt
	// (snapSalt), so two snapshots — whose internal sequence numbers
	// both start at 0 — never share a counter block, on top of the
	// per-session epoch internal/seal already folds in.
	saltSnapshot = 0x61726961534e4150
	// snapChainLabel seeds a snapshot's MAC chain together with its
	// covered sequence number ("-v2": see chainLabel).
	snapChainLabel = "aria-snapshot-v2"
	// maxSnapshotKey bounds a snapshot pair's key to what the uint16
	// length prefix can frame; WriteSnapshot rejects longer keys so the
	// prefix can never wrap and silently re-split key and value.
	maxSnapshotKey = 1<<16 - 1
	// snapMagic opens the header record.
	snapMagic = "ariasnap1"
)

// Pair is one key/value pair carried by a snapshot.
type Pair struct {
	// Key is the pair's key.
	Key []byte
	// Value is the pair's value.
	Value []byte
}

// SnapshotName returns the file name of a snapshot covering seq.
func SnapshotName(coveredSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, coveredSeq, snapSuffix)
}

// parseSnapName extracts the covered sequence number from a snapshot
// file name.
func parseSnapName(name string, covered *uint64) bool {
	if len(name) != len(snapPrefix)+20+len(snapSuffix) ||
		name[:len(snapPrefix)] != snapPrefix || name[len(name)-len(snapSuffix):] != snapSuffix {
		return false
	}
	var v uint64
	for _, c := range name[len(snapPrefix) : len(name)-len(snapSuffix)] {
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + uint64(c-'0')
	}
	*covered = v
	return true
}

// SnapshotInfo describes one snapshot file: its path and the sequence
// number it covers (encoded in the file name).
type SnapshotInfo struct {
	// Path is the snapshot file's path.
	Path string
	// Covered is the highest WAL sequence number the snapshot covers.
	Covered uint64
}

// ListSnapshots lists dir's snapshot files, newest (highest covered
// sequence) first. A missing directory lists as empty, not as an error.
func ListSnapshots(dir string) ([]SnapshotInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var snaps []SnapshotInfo
	for _, e := range entries {
		var covered uint64
		if e.Type().IsRegular() && parseSnapName(e.Name(), &covered) {
			snaps = append(snaps, SnapshotInfo{Path: filepath.Join(dir, e.Name()), Covered: covered})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Covered > snaps[j].Covered })
	return snaps, nil
}

// snapSalt is the keystream domain of one snapshot file: the snapshot
// base salt distinguished per covered sequence number.
func snapSalt(coveredSeq uint64) uint64 { return saltSnapshot ^ coveredSeq }

// WriteSnapshot seals pairs into an atomic snapshot covering
// coveredSeq: written to a temporary file, fsynced, renamed into place,
// directory fsynced. It returns the snapshot's size in bytes. Keys
// longer than 65535 bytes do not fit the pair framing and are rejected.
func WriteSnapshot(dir string, s *seal.Sealer, coveredSeq uint64, pairs []Pair) (int64, error) {
	for _, p := range pairs {
		if len(p.Key) > maxSnapshotKey {
			return 0, fmt.Errorf("wal: snapshot key of %d bytes exceeds the %d-byte framing limit", len(p.Key), maxSnapshotKey)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("wal: create dir: %w", err)
	}
	final := filepath.Join(dir, SnapshotName(coveredSeq))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: create snapshot temp: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	// Records are sealed straight into one buffer that is written out
	// when the next record would not fit: a write(2) per 64 KiB, not two
	// per pair, and nothing allocated per pair beyond the CMAC's state.
	const bufBytes = 64 << 10
	var (
		st      = s.NewStream()
		chain   = s.ChainInit(snapChainLabel, coveredSeq)
		seq     = uint64(0)
		written int64
		buf     = make([]byte, 0, bufBytes)
		body    []byte
	)
	flush := func() error {
		n, err := f.Write(buf)
		written += int64(n)
		buf = buf[:0]
		return err
	}
	emit := func(payload []byte) error {
		n := seal.Overhead + len(payload)
		if len(buf) > 0 && len(buf)+headerBytes+n > cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		buf = binary.LittleEndian.AppendUint32(buf, ^uint32(n))
		buf, chain = st.AppendSeal(buf, seq, snapSalt(coveredSeq), chain, payload)
		seq++
		return nil
	}
	hdr := make([]byte, len(snapMagic)+16)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic):], coveredSeq)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic)+8:], uint64(len(pairs)))
	if err := emit(hdr); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: write snapshot: %w", err)
	}
	for _, p := range pairs {
		body = binary.LittleEndian.AppendUint16(body[:0], uint16(len(p.Key)))
		body = append(append(body, p.Key...), p.Value...)
		if err := emit(body); err != nil {
			f.Close()
			return 0, fmt.Errorf("wal: write snapshot: %w", err)
		}
	}
	err = emit([]byte("end"))
	if err == nil {
		err = flush()
	}
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: write snapshot trailer: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("wal: publish snapshot: %w", err)
	}
	syncDir(dir)
	return written, nil
}

// syncDir fsyncs a directory so a rename is durable; best-effort on
// platforms where directories cannot be fsynced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// ReadSnapshot verifies and decrypts one snapshot file, returning the
// covered sequence number and the pairs. Every defect — a bad MAC, a
// broken header pair, a wrong count, a missing trailer — returns
// ErrTampered: renames are atomic, so an incomplete renamed snapshot
// cannot be a crash artifact.
func ReadSnapshot(path string, s *seal.Sealer) (uint64, []Pair, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: read snapshot: %w", err)
	}
	var declared uint64
	if !parseSnapName(filepath.Base(path), &declared) {
		return 0, nil, fmt.Errorf("%w: snapshot %s: malformed name", ErrTampered, filepath.Base(path))
	}
	chain := s.ChainInit(snapChainLabel, declared)
	seq := uint64(0)
	off := int64(0)
	next := func() ([]byte, error) {
		rest := data[off:]
		if len(rest) < headerBytes {
			return nil, fmt.Errorf("%w: snapshot %s: cut short at offset %d", ErrTampered, filepath.Base(path), off)
		}
		length := binary.LittleEndian.Uint32(rest[:4])
		check := binary.LittleEndian.Uint32(rest[4:8])
		if check != ^length || length < seal.Overhead || length > maxRecordBytes ||
			int64(len(rest)) < headerBytes+int64(length) {
			return nil, fmt.Errorf("%w: snapshot %s: bad record framing at offset %d", ErrTampered, filepath.Base(path), off)
		}
		rec := rest[headerBytes : headerBytes+int64(length)]
		gotSeq, payload, nc, err := s.Open(snapSalt(declared), chain, rec)
		if err != nil || gotSeq != seq {
			return nil, fmt.Errorf("%w: snapshot %s: record %d failed authentication", ErrTampered, filepath.Base(path), seq)
		}
		chain = nc
		seq++
		off += headerBytes + int64(length)
		return payload, nil
	}
	hdr, err := next()
	if err != nil {
		return 0, nil, err
	}
	if len(hdr) != len(snapMagic)+16 || !strings.HasPrefix(string(hdr), snapMagic) {
		return 0, nil, fmt.Errorf("%w: snapshot %s: bad header", ErrTampered, filepath.Base(path))
	}
	covered := binary.LittleEndian.Uint64(hdr[len(snapMagic):])
	count := binary.LittleEndian.Uint64(hdr[len(snapMagic)+8:])
	if covered != declared {
		return 0, nil, fmt.Errorf("%w: snapshot %s: header covers seq %d but name declares %d", ErrTampered, filepath.Base(path), covered, declared)
	}
	pairs := make([]Pair, 0, count)
	for i := uint64(0); i < count; i++ {
		body, err := next()
		if err != nil {
			return 0, nil, err
		}
		if len(body) < 2 {
			return 0, nil, fmt.Errorf("%w: snapshot %s: short pair record", ErrTampered, filepath.Base(path))
		}
		klen := int(binary.LittleEndian.Uint16(body[:2]))
		if len(body) < 2+klen {
			return 0, nil, fmt.Errorf("%w: snapshot %s: pair key overruns record", ErrTampered, filepath.Base(path))
		}
		pairs = append(pairs, Pair{Key: body[2 : 2+klen], Value: body[2+klen:]})
	}
	trailer, err := next()
	if err != nil {
		return 0, nil, err
	}
	if string(trailer) != "end" || off != int64(len(data)) {
		return 0, nil, fmt.Errorf("%w: snapshot %s: bad trailer", ErrTampered, filepath.Base(path))
	}
	return covered, pairs, nil
}

// PruneSnapshots removes snapshots older than keep and any leftover
// temporary files, called after a checkpoint publishes a new snapshot.
func PruneSnapshots(dir string, keep uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: read dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		var covered uint64
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("wal: remove stale temp: %w", err)
			}
		case parseSnapName(name, &covered) && covered < keep:
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("wal: remove old snapshot: %w", err)
			}
		}
	}
	return nil
}
