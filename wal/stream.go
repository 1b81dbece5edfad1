package wal

// Segment streaming for replication. A sealed WAL segment is already a
// self-verifying byte stream — records frame themselves (length +
// complement header), authenticate themselves (chained CMACs from the
// segment's first sequence number), and torn tails are decidable by
// construction. Replication therefore ships the sealed bytes verbatim:
// the primary reads framed records off its segment files without
// unsealing them (SegmentReader), and the replica verifies them with
// its own same-seed Sealer exactly as recovery would (StreamVerifier).
// The untrusted network is trusted precisely as much as the untrusted
// disk — not at all.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/ariakv/aria/internal/seal"
)

// SegmentInfo describes one on-disk WAL segment file: its path and the
// sequence number of its first record (encoded in the file name).
type SegmentInfo struct {
	// Path is the segment file's path.
	Path string
	// FirstSeq is the sequence number of the segment's first record.
	FirstSeq uint64
}

// Segments lists dir's WAL segment files in ascending FirstSeq order.
// A missing directory lists as empty, not as an error.
func Segments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		var first uint64
		if e.Type().IsRegular() && parseSegName(e.Name(), &first) {
			segs = append(segs, SegmentInfo{Path: filepath.Join(dir, e.Name()), FirstSeq: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].FirstSeq < segs[j].FirstSeq })
	return segs, nil
}

// SegmentReader incrementally reads framed sealed records off one
// segment file without unsealing them — the publisher's view of a
// segment it is streaming to subscribers. Next tolerates an incomplete
// tail (a record the writer is still appending, or a torn tail) by
// returning io.EOF rather than an error: the reader keeps its offset,
// and a later Next picks up the record once the remaining bytes land.
// Only a defect a crash cannot produce — a broken length/complement
// header pair or an out-of-range length — returns ErrTampered.
type SegmentReader struct {
	f   *os.File
	off int64
}

// OpenSegment opens a segment file for incremental record reads.
func OpenSegment(path string) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	return &SegmentReader{f: f}, nil
}

// Offset returns the file offset where the next record read starts.
func (r *SegmentReader) Offset() int64 { return r.off }

// Next returns the next framed record's sealed bytes (header stripped).
// io.EOF means no complete record is available at the current offset —
// a clean end, or a tail still being written; the offset is unchanged,
// so Next can be retried after the writer makes progress.
func (r *SegmentReader) Next() ([]byte, error) {
	var hdr [headerBytes]byte
	n, err := r.f.ReadAt(hdr[:], r.off)
	if n < headerBytes {
		if err == nil || errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wal: read segment header: %w", err)
	}
	length := le32(hdr[:4])
	check := le32(hdr[4:8])
	if check != ^length {
		return nil, fmt.Errorf("%w: segment record header check mismatch at offset %d", ErrTampered, r.off)
	}
	if length < seal.Overhead || length > maxRecordBytes {
		return nil, fmt.Errorf("%w: segment record length %d out of range at offset %d", ErrTampered, length, r.off)
	}
	rec := make([]byte, length)
	n, err = r.f.ReadAt(rec, r.off+headerBytes)
	if n < int(length) {
		if err == nil || errors.Is(err, io.EOF) {
			return nil, io.EOF // body still in flight (or torn)
		}
		return nil, fmt.Errorf("wal: read segment record: %w", err)
	}
	r.off += headerBytes + int64(length)
	return rec, nil
}

// Close closes the underlying file.
func (r *SegmentReader) Close() error { return r.f.Close() }

// le32 reads a little-endian uint32 (avoids importing encoding/binary
// twice under different names in this file's hot loop).
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// StreamVerifier authenticates a stream of sealed WAL records arriving
// over replication, holding the same per-segment chain state Recover
// derives from the files. StartSegment resets the chain to a segment
// boundary; Verify then checks each record against the running chain
// and enforces sequence continuity, so a reordered, spliced, replayed,
// or bit-flipped stream fails at the first bad record — the network
// gets no more trust than the disk.
type StreamVerifier struct {
	s       *seal.Sealer
	chain   seal.Chain
	want    uint64
	started bool
}

// NewStreamVerifier returns a verifier for records sealed by any
// sealing session under the same seed (the shared enclave identity).
func NewStreamVerifier(s *seal.Sealer) *StreamVerifier {
	return &StreamVerifier{s: s}
}

// StartSegment resets the verifier to the start of a segment whose
// first record carries firstSeq, exactly as Recover does per file.
func (v *StreamVerifier) StartSegment(firstSeq uint64) {
	v.chain = v.s.ChainInit(chainLabel, firstSeq)
	v.want = firstSeq
	v.started = true
}

// NextSeq returns the sequence number the next verified record must
// carry (0 before the first StartSegment).
func (v *StreamVerifier) NextSeq() uint64 { return v.want }

// Verify authenticates one sealed record against the running chain and
// returns its sequence number and decrypted payload. Any defect —
// verification outside a segment, a MAC failure, a sequence
// discontinuity — returns ErrTampered.
func (v *StreamVerifier) Verify(rec []byte) (uint64, []byte, error) {
	if !v.started {
		return 0, nil, fmt.Errorf("%w: record received before a segment start", ErrTampered)
	}
	seq, payload, next, err := v.s.Open(saltRecords, v.chain, rec)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: streamed record failed authentication: %v", ErrTampered, err)
	}
	if seq != v.want {
		return 0, nil, fmt.Errorf("%w: streamed sequence %d where %d expected", ErrTampered, seq, v.want)
	}
	v.chain = next
	v.want = seq + 1
	return seq, payload, nil
}
