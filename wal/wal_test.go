package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/ariakv/aria/internal/seal"
)

func openLog(t *testing.T, dir string, policy FsyncPolicy, segBytes int) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, Sealer: seal.New(99), Fsync: policy, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func recoverAll(t *testing.T, l *Log, afterSeq uint64) ([][]byte, RecoverInfo) {
	t.Helper()
	var got [][]byte
	info, err := l.Recover(afterSeq, func(seq uint64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, info
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncBatch, FsyncAlways, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l := openLog(t, dir, policy, 1<<20)
			if _, err := l.Append([]byte("x")); !errors.Is(err, ErrNotRecovered) {
				t.Fatalf("append before recover: %v", err)
			}
			recoverAll(t, l, 0)
			var want [][]byte
			for i := 0; i < 10; i++ {
				p := []byte(fmt.Sprintf("record-%d", i))
				want = append(want, p)
				if _, err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2 := openLog(t, dir, policy, 1<<20)
			got, info := recoverAll(t, l2, 0)
			if info.Torn {
				t.Fatal("clean log reported torn")
			}
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
			// Appends continue the chain after recovery.
			if _, err := l2.Append([]byte("after")); err != nil {
				t.Fatal(err)
			}
			l2.Close()
		})
	}
}

func TestGroupCommitFsyncCounts(t *testing.T) {
	group := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	cases := []struct {
		policy FsyncPolicy
		want   int
	}{{FsyncBatch, 1}, {FsyncAlways, 3}, {FsyncNever, 0}}
	for _, c := range cases {
		t.Run(c.policy.String(), func(t *testing.T) {
			l := openLog(t, t.TempDir(), c.policy, 1<<20)
			recoverAll(t, l, 0)
			res, err := l.Append(group...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fsyncs != c.want {
				t.Fatalf("fsyncs = %d, want %d", res.Fsyncs, c.want)
			}
			if res.FirstSeq != 1 || res.LastSeq != 3 {
				t.Fatalf("seq range [%d,%d], want [1,3]", res.FirstSeq, res.LastSeq)
			}
			if st := l.Stats(); st.Appends != 1 || st.Records != 3 || st.Bytes != uint64(res.Bytes) {
				t.Fatalf("stats %+v inconsistent with result %+v", st, res)
			}
			l.Close()
		})
	}
}

func TestRotationAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncNever, 64) // tiny segments force rotation
	recoverAll(t, l, 0)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(l.segs))
	}
	// Truncating through the second segment's start leaves later ones.
	cut := l.segs[2].firstSeq - 1
	if err := l.TruncateThrough(cut); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := openLog(t, dir, FsyncNever, 64)
	got, _ := recoverAll(t, l2, cut)
	if want := 20 - int(cut); len(got) != want {
		t.Fatalf("replayed %d records after truncation, want %d", len(got), want)
	}
	l2.Close()
}

func TestTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncBatch, 1<<20)
	recoverAll(t, l, 0)
	var sizes []int64
	total := int64(0)
	for i := 0; i < 5; i++ {
		res, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		total += int64(res.Bytes)
		sizes = append(sizes, total)
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(pristine)); cut++ {
		if err := os.WriteFile(seg, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2 := openLog(t, dir, FsyncBatch, 1<<20)
		got, info := recoverAll(t, l2, 0)
		// The recovered records must be exactly the committed prefix:
		// every record whose bytes fully fit under the cut.
		want := 0
		for _, s := range sizes {
			if s <= cut {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		boundary := cut == 0
		for _, s := range sizes {
			boundary = boundary || s == cut
		}
		if info.Torn == boundary {
			t.Fatalf("cut %d: torn=%v, want %v", cut, info.Torn, !boundary)
		}
		l2.Close()
	}
}

func TestFlippedByteIsTampering(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncBatch, 1<<20)
	recoverAll(t, l, 0)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for off := range pristine {
		bad := append([]byte(nil), pristine...)
		bad[off] ^= 0x10
		if err := os.WriteFile(seg, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		l2 := openLog(t, dir, FsyncBatch, 1<<20)
		_, err := l2.Recover(0, nil)
		if !errors.Is(err, ErrTampered) {
			t.Fatalf("flip at offset %d: err = %v, want ErrTampered", off, err)
		}
		l2.Close()
	}
}

func TestTruncateTailSalvagesPrefix(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncBatch, 1<<20)
	recoverAll(t, l, 0)
	var bound int64
	for i := 0; i < 4; i++ {
		res, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			bound += int64(res.Bytes)
		} else if i == 0 {
			bound = int64(res.Bytes)
		}
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[bound+headerBytes+2] ^= 0xFF // corrupt record 3's body
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, FsyncBatch, 1<<20)
	var replayed int
	_, err = l2.Recover(0, func(uint64, []byte) error { replayed++; return nil })
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
	if err := l2.TruncateTail(); err != nil {
		t.Fatal(err)
	}
	// The salvaged log accepts appends and replays only the prefix.
	if _, err := l2.Append([]byte("salvaged")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3 := openLog(t, dir, FsyncBatch, 1<<20)
	got, _ := recoverAll(t, l3, 0)
	if len(got) != 3 { // records 0, 1 (valid prefix) + "salvaged"
		t.Fatalf("replayed %d records after salvage, want 3", len(got))
	}
	if !bytes.Equal(got[2], []byte("salvaged")) {
		t.Fatalf("last record = %q, want %q", got[2], "salvaged")
	}
	l3.Close()
}

// TestTornReappendDoesNotReuseKeystream models the two-time-pad attack
// the epoch defends against: the host keeps a copy of the log, forces a
// truncation that is indistinguishable from a crash (cut mid-record),
// and watches recovery re-seal a different payload under the same
// sequence number. XORing the kept and re-sealed ciphertexts must not
// reveal the XOR of the plaintexts.
func TestTornReappendDoesNotReuseKeystream(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncBatch, 1<<20)
	recoverAll(t, l, 0)
	p1 := bytes.Repeat([]byte{0xAA}, 64)
	if _, err := l.Append(p1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The "crash": the record loses its final byte, so recovery drops it
	// and the next append re-issues sequence number 1.
	if err := os.WriteFile(seg, pristine[:len(pristine)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, FsyncBatch, 1<<20) // fresh sealer = fresh epoch
	if _, info := recoverAll(t, l2, 0); !info.Torn {
		t.Fatal("cut record not reported torn")
	}
	p2 := bytes.Repeat([]byte{0x55}, 64)
	if res, err := l2.Append(p2); err != nil || res.FirstSeq != 1 {
		t.Fatalf("re-append: res=%+v err=%v, want seq 1", res, err)
	}
	l2.Close()
	resealed, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Both records sit at the same offsets: header, then seq+epoch (16
	// bytes of seal prefix), then the 64 ciphertext bytes.
	ct1 := pristine[headerBytes+16 : headerBytes+16+len(p1)]
	ct2 := resealed[headerBytes+16 : headerBytes+16+len(p2)]
	reuse := true
	for i := range ct1 {
		if ct1[i]^ct2[i] != p1[i]^p2[i] {
			reuse = false
			break
		}
	}
	if reuse {
		t.Fatal("re-sealed record shares the dropped record's keystream (two-time pad)")
	}
}

// TestSnapshotsDoNotShareKeystream pins the snapshot-side counter-block
// separation: every snapshot's record sequence numbers start at 0, so
// two snapshots written by one session (same epoch) must be kept apart
// by the covered-seq fold in their salt.
func TestSnapshotsDoNotShareKeystream(t *testing.T) {
	dir := t.TempDir()
	s := seal.New(7)
	pair := []Pair{{Key: []byte("k"), Value: bytes.Repeat([]byte{0xEE}, 48)}}
	if _, err := WriteSnapshot(dir, s, 1, pair); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, s, 2, pair); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dir, SnapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, SnapshotName(2)))
	if err != nil {
		t.Fatal(err)
	}
	// The pair record is the second record of each file and identical in
	// plaintext; under a shared keystream its ciphertext would be
	// byte-identical across the two files.
	first := int64(headerBytes) + int64(binary.LittleEndian.Uint32(a[:4]))
	recA := a[first+headerBytes+16:]
	recB := b[first+headerBytes+16:]
	n := len(pair[0].Key) + len(pair[0].Value) + 2
	if bytes.Equal(recA[:n], recB[:n]) {
		t.Fatal("two snapshots encrypted an identical pair to identical ciphertext (shared keystream)")
	}
}

func TestMissingHistoryIsTampering(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncNever, 64)
	recoverAll(t, l, 0)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	first := l.segs[0].path
	mid := l.segs[1].path
	l.Close()

	// Deleting an interior segment leaves a sequence gap.
	if err := os.Remove(mid); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, FsyncNever, 64)
	if _, err := l2.Recover(0, nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("interior segment removal: err = %v, want ErrTampered", err)
	}
	l2.Close()

	// Deleting the oldest segment removes history the snapshot does not
	// cover.
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	l3 := openLog(t, dir, FsyncNever, 64)
	if _, err := l3.Recover(0, nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("history removal: err = %v, want ErrTampered", err)
	}
	l3.Close()
}

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	s := seal.New(7)
	pairs := []Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("bb"), Value: bytes.Repeat([]byte{0xCD}, 100)},
		{Key: []byte("empty"), Value: nil},
	}
	if _, err := WriteSnapshot(dir, s, 10, pairs); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, s, 25, pairs[:1]); err != nil {
		t.Fatal(err)
	}
	snaps, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || filepath.Base(snaps[0].Path) != SnapshotName(25) || snaps[0].Covered != 25 || snaps[1].Covered != 10 {
		t.Fatalf("snapshots = %v, want newest-first with %s first", snaps, SnapshotName(25))
	}
	covered, got, err := ReadSnapshot(filepath.Join(dir, SnapshotName(10)), s)
	if err != nil {
		t.Fatal(err)
	}
	if covered != 10 || len(got) != len(pairs) {
		t.Fatalf("covered=%d pairs=%d, want 10/%d", covered, len(got), len(pairs))
	}
	for i := range pairs {
		if !bytes.Equal(got[i].Key, pairs[i].Key) || !bytes.Equal(got[i].Value, pairs[i].Value) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	if err := PruneSnapshots(dir, 25); err != nil {
		t.Fatal(err)
	}
	snaps, _ = ListSnapshots(dir)
	if len(snaps) != 1 || filepath.Base(snaps[0].Path) != SnapshotName(25) {
		t.Fatalf("after prune: %v, want only %s", snaps, SnapshotName(25))
	}
}

// snapPairs builds n pairs of the size a checkpoint typically carries.
func snapPairs(n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte(fmt.Sprintf("key-%012d", i)), Value: bytes.Repeat([]byte{byte(i)}, 144)}
	}
	return pairs
}

// TestSnapshotBytesMatchRecordByRecordSealing pins the buffered write
// path to the format: the file is exactly the framed records Seal
// produces one at a time, across buffer flushes and around a record
// larger than the buffer.
func TestSnapshotBytesMatchRecordByRecordSealing(t *testing.T) {
	dir := t.TempDir()
	s := seal.New(7)
	pairs := snapPairs(2000)
	pairs[700].Value = bytes.Repeat([]byte{0x5A}, 200<<10)
	const covered = 31
	size, err := WriteSnapshot(dir, s, covered, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	chain := s.ChainInit(snapChainLabel, covered)
	seq := uint64(0)
	add := func(payload []byte) {
		rec, next := s.Seal(seq, snapSalt(covered), chain, payload)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(rec)))
		want = binary.LittleEndian.AppendUint32(want, ^uint32(len(rec)))
		want = append(want, rec...)
		chain = next
		seq++
	}
	hdr := append([]byte(snapMagic), make([]byte, 16)...)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic):], covered)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic)+8:], uint64(len(pairs)))
	add(hdr)
	for _, p := range pairs {
		body := binary.LittleEndian.AppendUint16(nil, uint16(len(p.Key)))
		add(append(append(body, p.Key...), p.Value...))
	}
	add([]byte("end"))
	got, err := os.ReadFile(filepath.Join(dir, SnapshotName(covered)))
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(got)) || !bytes.Equal(got, want) {
		t.Fatalf("snapshot file (%d bytes, reported %d) differs from record-by-record sealing (%d bytes)", len(got), size, len(want))
	}
	if _, back, err := ReadSnapshot(filepath.Join(dir, SnapshotName(covered)), s); err != nil || len(back) != len(pairs) {
		t.Fatalf("read back: %d pairs, err %v", len(back), err)
	}
}

// TestSnapshotWriteAllocsPerPair pins the write path's allocation
// budget: at most one per pair, whatever the fixed per-file cost. The
// sealing stream's reusable CTR and CMAC make it none today; the race
// detector's own allocations account for the margin.
func TestSnapshotWriteAllocsPerPair(t *testing.T) {
	dir := t.TempDir()
	s := seal.New(7)
	pairs := snapPairs(3000)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := WriteSnapshot(dir, s, 5, pairs[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perPair := (allocs(3000) - allocs(1000)) / 2000; perPair > 1 {
		t.Fatalf("WriteSnapshot allocates %.2f times per pair, want <= 1", perPair)
	}
}

func TestSnapshotTamperDetected(t *testing.T) {
	dir := t.TempDir()
	s := seal.New(7)
	pairs := []Pair{{Key: []byte("key"), Value: []byte("value")}}
	if _, err := WriteSnapshot(dir, s, 3, pairs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotName(3))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := range pristine {
		bad := append([]byte(nil), pristine...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshot(path, s); !errors.Is(err, ErrTampered) {
			t.Fatalf("flip at %d: err = %v, want ErrTampered", off, err)
		}
	}
	// Truncation of a renamed snapshot is also tampering.
	if err := os.WriteFile(path, pristine[:len(pristine)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(path, s); !errors.Is(err, ErrTampered) {
		t.Fatalf("truncated snapshot: err = %v, want ErrTampered", err)
	}
	// A wrong seed (different enclave identity) cannot read it.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(path, seal.New(8)); !errors.Is(err, ErrTampered) {
		t.Fatalf("foreign-seed read: err = %v, want ErrTampered", err)
	}
}

// TestRecoverAfterSeqAtSegmentBoundary pins the catch-up edge case
// replication leans on: recovering with afterSeq equal to the last
// sequence of a segment replays exactly from the next segment's first
// record, while the whole lineage is still verified.
func TestRecoverAfterSeqAtSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncNever, 64) // tiny segments force rotation
	recoverAll(t, l, 0)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(l.segs))
	}
	boundary := l.segs[1].firstSeq - 1 // last record of the first segment
	l.Close()
	l2 := openLog(t, dir, FsyncNever, 64)
	var first uint64
	var replayed int
	info, err := l2.Recover(boundary, func(seq uint64, _ []byte) error {
		if replayed == 0 {
			first = seq
		}
		replayed++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Verified != 20 {
		t.Fatalf("verified %d records, want all 20", info.Verified)
	}
	if first != boundary+1 {
		t.Fatalf("replay started at seq %d, want %d (next segment's first record)", first, boundary+1)
	}
	if want := 20 - int(boundary); replayed != want {
		t.Fatalf("replayed %d records, want %d", replayed, want)
	}
	if l2.NextSeq() != 21 {
		t.Fatalf("NextSeq = %d, want 21", l2.NextSeq())
	}
	l2.Close()
}

// TestRecoverAfterSeqBeyondNextSeq pins what happens when the caller's
// afterSeq overshoots the log: everything is still verified, nothing is
// replayed, and NextSeq lands at the true log end — not afterSeq+1 — so
// appends continue the real lineage.
func TestRecoverAfterSeqBeyondNextSeq(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncBatch, 1<<20)
	recoverAll(t, l, 0)
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2 := openLog(t, dir, FsyncBatch, 1<<20)
	got, info := recoverAll(t, l2, 100)
	if len(got) != 0 || info.Replayed != 0 {
		t.Fatalf("replayed %d records with afterSeq beyond the log, want 0", len(got))
	}
	if info.Verified != 5 {
		t.Fatalf("verified %d records, want 5", info.Verified)
	}
	if l2.NextSeq() != 6 {
		t.Fatalf("NextSeq = %d, want 6 (true log end, not afterSeq+1)", l2.NextSeq())
	}
	if res, err := l2.Append([]byte("after")); err != nil || res.FirstSeq != 6 {
		t.Fatalf("append after overshoot recover: res=%+v err=%v, want seq 6", res, err)
	}
	l2.Close()
}

// TestRecoverResumesAfterTruncateTailSalvage pins catch-up across a
// salvage: after TruncateTail drops a tampered suffix and new appends
// reuse those sequence numbers, a later Recover from a snapshot
// boundary replays only the surviving lineage.
func TestRecoverResumesAfterTruncateTailSalvage(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, FsyncBatch, 1<<20)
	recoverAll(t, l, 0)
	var bound int64
	for i := 0; i < 4; i++ {
		res, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			bound = int64(res.Bytes)
		} else if i == 1 {
			bound += int64(res.Bytes)
		}
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[bound+headerBytes+2] ^= 0xFF // corrupt record 3's body
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, FsyncBatch, 1<<20)
	if _, err := l2.Recover(0, nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
	if err := l2.TruncateTail(); err != nil {
		t.Fatal(err)
	}
	if res, err := l2.Append([]byte("salvaged")); err != nil || res.FirstSeq != 3 {
		t.Fatalf("salvage append: res=%+v err=%v, want seq 3", res, err)
	}
	l2.Close()
	// A catch-up recover from seq 2 (as if a snapshot covered the valid
	// prefix) replays only the re-issued record.
	l3 := openLog(t, dir, FsyncBatch, 1<<20)
	got, info := recoverAll(t, l3, 2)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("salvaged")) {
		t.Fatalf("replayed %v, want only the salvaged record", got)
	}
	if info.Torn {
		t.Fatal("salvaged log reported torn")
	}
	if l3.NextSeq() != 4 {
		t.Fatalf("NextSeq = %d, want 4", l3.NextSeq())
	}
	l3.Close()
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncBatch, FsyncAlways, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, err %v", p, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
