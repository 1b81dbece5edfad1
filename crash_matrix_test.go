package aria

// The crash matrix: the durability subsystem's core property, tested
// exhaustively. A scripted workload is written through a durable store
// with FsyncAlways (every record individually committed), then the
// resulting WAL is attacked one byte at a time:
//
//   - truncated to EVERY length 0..len(file): reopening must recover
//     exactly the committed prefix — the state after the last record
//     that fits entirely in the truncated file — because a crash can
//     only shorten an append-only log;
//   - EVERY byte flipped in place: under FailStop the reopen must fail
//     with ErrIntegrity (the log is evidence); under Quarantine it must
//     come up degraded with exactly the records before the flipped one.
//
// The same property is asserted per shard on a sharded store, where
// each shard keeps an independent WAL lineage.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// crashOpts keeps the store as small as the schemes allow, because the
// matrix reopens it hundreds of times.
func crashOpts(dir string) Options {
	opts := durableOpts(dir)
	opts.EPCBytes = 16 << 20
	opts.ExpectedKeys = 512
	opts.Fsync = FsyncAlways
	return opts
}

// crashOp is one scripted mutation; del selects Delete over Put.
type crashOp struct {
	key, value string
	del        bool
}

// crashScript is the workload the matrix replays: inserts, an
// overwrite, and a delete, so recovered state is order-sensitive.
var crashScript = []crashOp{
	{key: "alpha", value: "1"},
	{key: "bravo", value: "2"},
	{key: "charlie", value: "3"},
	{key: "alpha", value: "1-rewritten"},
	{key: "delta", value: "4"},
	{key: "bravo", del: true},
	{key: "echo", value: "5"},
	{key: "foxtrot", value: "6"},
}

// apply runs ops[0:k] into a fresh map: the expected state after a
// committed prefix of k records.
func apply(ops []crashOp, k int) map[string]string {
	want := make(map[string]string)
	for _, op := range ops[:k] {
		if op.del {
			delete(want, op.key)
		} else {
			want[op.key] = op.value
		}
	}
	return want
}

// buildCrashWAL writes the script through a durable store one op per
// record and returns the segment file's bytes plus ends[k] = file
// length once op k is durable (ends[0] = 0). FsyncAlways means each op
// is fully committed before the next, so ends[] are exactly the legal
// crash points.
func buildCrashWAL(t *testing.T, dir string) (data []byte, ends []int64, segName string) {
	t.Helper()
	st := mustOpen(t, crashOpts(dir))
	seg := singleSegment(t, dir)
	segName = filepath.Base(seg)
	ends = append(ends, 0)
	for _, op := range crashScript {
		var err error
		if op.del {
			err = st.Delete([]byte(op.key))
		} else {
			err = st.Put([]byte(op.key), []byte(op.value))
		}
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	mustClose(t, st)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != ends[len(ends)-1] {
		t.Fatalf("segment is %d bytes, expected %d after the last op", len(data), ends[len(ends)-1])
	}
	return data, ends, segName
}

// singleSegment returns the path of dir's only WAL segment.
func singleSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("found %d WAL segments in %s, want exactly 1", len(segs), dir)
	}
	return segs[0]
}

// committedPrefix maps a file length to the number of fully-contained
// records: the largest k with ends[k] <= size.
func committedPrefix(ends []int64, size int64) int {
	k := 0
	for i, e := range ends {
		if e <= size {
			k = i
		}
	}
	return k
}

// corruptedRecord maps a byte offset to the 1-based record holding it.
func corruptedRecord(ends []int64, off int64) int {
	for k := 1; k < len(ends); k++ {
		if off < ends[k] {
			return k
		}
	}
	return len(ends) - 1
}

// writeCrashCopy materialises one matrix cell: the original log bytes
// with the given mutation, in a fresh directory under the original
// segment file name (the name encodes the first sequence number).
func writeCrashCopy(t *testing.T, segName string, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCrashMatrixTruncation(t *testing.T) {
	data, ends, segName := buildCrashWAL(t, t.TempDir())
	for size := int64(0); size <= int64(len(data)); size++ {
		k := committedPrefix(ends, size)
		dir := writeCrashCopy(t, segName, data[:size])
		st, err := Open(crashOpts(dir))
		if err != nil {
			t.Fatalf("truncate to %d bytes: reopen failed: %v (a cut is a crash, never tampering)", size, err)
		}
		if got := st.Stats().RecoveredRecords; got != uint64(k) {
			t.Fatalf("truncate to %d bytes: recovered %d records, want committed prefix %d", size, got, k)
		}
		want := apply(crashScript, k)
		if got := dump(t, st); !mapsEqual(got, want) {
			t.Fatalf("truncate to %d bytes: state %v, want committed prefix state %v", size, got, want)
		}
		mustClose(t, st)
	}
}

func TestCrashMatrixByteFlipFailStop(t *testing.T) {
	data, _, segName := buildCrashWAL(t, t.TempDir())
	for off := int64(0); off < int64(len(data)); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		dir := writeCrashCopy(t, segName, mut)
		opts := crashOpts(dir)
		opts.IntegrityPolicy = FailStop
		st, err := Open(opts)
		if err == nil {
			mustClose(t, st)
			t.Fatalf("flip at offset %d: FailStop open succeeded on a tampered log", off)
		}
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flip at offset %d: error %v does not wrap ErrIntegrity", off, err)
		}
	}
}

func TestCrashMatrixByteFlipQuarantine(t *testing.T) {
	data, ends, segName := buildCrashWAL(t, t.TempDir())
	for off := int64(0); off < int64(len(data)); off++ {
		bad := corruptedRecord(ends, off)
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		dir := writeCrashCopy(t, segName, mut)
		opts := crashOpts(dir)
		opts.IntegrityPolicy = Quarantine
		st, err := Open(opts)
		if err != nil {
			t.Fatalf("flip at offset %d: Quarantine open failed: %v", off, err)
		}
		stats := st.Stats()
		if stats.Health() != HealthDegraded {
			t.Fatalf("flip at offset %d: health %v, want degraded", off, stats.Health())
		}
		if got := stats.RecoveredRecords; got != uint64(bad-1) {
			t.Fatalf("flip at offset %d (record %d): recovered %d records, want %d", off, bad, got, bad-1)
		}
		want := apply(crashScript, bad-1)
		if got := dump(t, st); !mapsEqual(got, want) {
			t.Fatalf("flip at offset %d: state %v, want salvaged prefix %v", off, got, want)
		}
		mustClose(t, st)
	}
}

// txnCrashStep is one scripted mutation for the transactional matrix:
// plain puts and deletes, TTL-bearing puts, a CAS, and multi-key
// transactions that must commit through ONE WAL record each.
type txnCrashStep struct {
	kind  byte // 'p' put, 'd' delete, 't' putttl, 'c' cas, 'x' txn
	key   string
	value string
	ttl   time.Duration
	ops   []txnCrashWrite // sub-writes of an 'x' step
}

// txnCrashWrite is one write inside a scripted transaction.
type txnCrashWrite struct {
	key, value string
	ttl        time.Duration
	del        bool
}

// txnCrashScript interleaves every durable record shape. All TTLs are
// far future against the fixed clock, so sealed deadlines round-trip
// without expiring mid-matrix.
var txnCrashScript = []txnCrashStep{
	{kind: 'p', key: "alpha", value: "1"},
	{kind: 't', key: "bravo", value: "2", ttl: time.Hour},
	{kind: 'x', ops: []txnCrashWrite{
		{key: "golf", value: "7"},
		{key: "alpha", value: "1-txn"},
		{key: "hotel", value: "8", ttl: 2 * time.Hour},
		{key: "bravo", del: true},
	}},
	{kind: 'c', key: "alpha", value: "1-cas"},
	{kind: 'x', ops: []txnCrashWrite{
		{key: "golf", del: true},
		{key: "india", value: "9"},
	}},
	{kind: 't', key: "alpha", value: "1-ttl", ttl: 3 * time.Hour},
	{kind: 'd', key: "india"},
}

// applyTxnScript computes the expected state after the first k steps:
// a transaction's sub-writes land together or not at all.
func applyTxnScript(k int) map[string]string {
	want := make(map[string]string)
	for _, step := range txnCrashScript[:k] {
		switch step.kind {
		case 'd':
			delete(want, step.key)
		case 'x':
			for _, w := range step.ops {
				if w.del {
					delete(want, w.key)
				} else {
					want[w.key] = w.value
				}
			}
		default:
			want[step.key] = step.value
		}
	}
	return want
}

// txnScriptKeys lists every key the script touches, once.
func txnScriptKeys() []string {
	seen := make(map[string]bool)
	var keys []string
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, step := range txnCrashScript {
		if step.kind == 'x' {
			for _, w := range step.ops {
				add(w.key)
			}
		} else {
			add(step.key)
		}
	}
	return keys
}

// buildTxnCrashWAL writes the transactional script through a durable
// store under a fixed clock, one WAL record per step (a whole txn is one
// group-commit record), and returns the segment bytes plus the legal
// crash points, as buildCrashWAL does.
func buildTxnCrashWAL(t *testing.T, dir string, now func() time.Time) (data []byte, ends []int64, segName string) {
	t.Helper()
	opts := crashOpts(dir)
	opts.Now = now
	st := mustOpen(t, opts)
	seg := singleSegment(t, dir)
	segName = filepath.Base(seg)
	ends = append(ends, 0)
	for i, step := range txnCrashScript {
		var err error
		switch step.kind {
		case 'p':
			err = st.Put([]byte(step.key), []byte(step.value))
		case 'd':
			err = st.Delete([]byte(step.key))
		case 't':
			err = st.PutTTL([]byte(step.key), []byte(step.value), step.ttl)
		case 'c':
			var ver uint64
			if _, ver, err = st.GetV([]byte(step.key)); err == nil {
				err = st.CompareAndSwap([]byte(step.key), []byte(step.value), ver)
			}
		case 'x':
			ops := make([]TxnOp, len(step.ops))
			for j, w := range step.ops {
				ops[j] = TxnOp{Key: []byte(w.key), Value: []byte(w.value), TTL: w.ttl, Delete: w.del}
			}
			err = st.TxnCommit(ops)
		}
		if err != nil {
			t.Fatalf("step %d (%c): %v", i, step.kind, err)
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if sz := fi.Size(); sz <= ends[len(ends)-1] {
			t.Fatalf("step %d (%c) appended no WAL record", i, step.kind)
		} else {
			ends = append(ends, sz)
		}
	}
	mustClose(t, st)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	return data, ends, segName
}

// checkTxnState verifies the recovered store against want through Get,
// which honors lazy TTL expiry (Scan may surface unreaped entries).
func checkTxnState(t *testing.T, st Store, want map[string]string, context string) {
	t.Helper()
	for _, key := range txnScriptKeys() {
		v, err := st.Get([]byte(key))
		wantV, present := want[key]
		switch {
		case present && err != nil:
			t.Fatalf("%s: Get(%s): %v, want %q", context, key, err, wantV)
		case present && string(v) != wantV:
			t.Fatalf("%s: Get(%s) = %q, want %q", context, key, v, wantV)
		case !present && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: Get(%s) = %q, %v, want ErrNotFound", context, key, v, err)
		}
	}
}

// TestCrashMatrixTxnTruncation cuts a WAL holding txn group-commit and
// TTL-bearing records to every length: each reopen must recover exactly
// the committed prefix of whole steps — in particular, a cut anywhere
// inside a transaction's record makes ALL of its writes vanish, never
// some of them.
func TestCrashMatrixTxnTruncation(t *testing.T) {
	fixed := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return fixed }
	data, ends, segName := buildTxnCrashWAL(t, t.TempDir(), now)
	for size := int64(0); size <= int64(len(data)); size++ {
		k := committedPrefix(ends, size)
		dir := writeCrashCopy(t, segName, data[:size])
		opts := crashOpts(dir)
		opts.Now = now
		st, err := Open(opts)
		if err != nil {
			t.Fatalf("truncate to %d bytes: reopen failed: %v", size, err)
		}
		if got := st.Stats().RecoveredRecords; got != uint64(k) {
			t.Fatalf("truncate to %d bytes: recovered %d records, want committed prefix %d", size, got, k)
		}
		checkTxnState(t, st, applyTxnScript(k),
			fmt.Sprintf("truncate to %d bytes (prefix %d)", size, k))
		mustClose(t, st)
	}
}

// TestCrashMatrixTxnByteFlipFailStop flips every byte of the
// transactional WAL: the new record shapes must be just as much
// evidence as plain puts — FailStop refuses the whole log.
func TestCrashMatrixTxnByteFlipFailStop(t *testing.T) {
	fixed := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return fixed }
	data, _, segName := buildTxnCrashWAL(t, t.TempDir(), now)
	for off := int64(0); off < int64(len(data)); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		dir := writeCrashCopy(t, segName, mut)
		opts := crashOpts(dir)
		opts.Now = now
		opts.IntegrityPolicy = FailStop
		st, err := Open(opts)
		if err == nil {
			mustClose(t, st)
			t.Fatalf("flip at offset %d: FailStop open succeeded on a tampered log", off)
		}
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flip at offset %d: error %v does not wrap ErrIntegrity", off, err)
		}
	}
}

// TestCrashMatrixTTLRecoveryClock reopens a TTL-bearing WAL under a
// clock advanced past some deadlines: sealed expiries are absolute, so
// recovery itself decides freshness — entries past their deadline read
// as absent, entries inside it serve normally.
func TestCrashMatrixTTLRecoveryClock(t *testing.T) {
	fixed := time.Unix(1_700_000_000, 0)
	dir := t.TempDir()
	data, _, segName := buildTxnCrashWAL(t, dir, func() time.Time { return fixed })
	copyDir := writeCrashCopy(t, segName, data)
	// Reopen 150 minutes later: bravo (1h, deleted by txn anyway) and
	// hotel (2h) are past deadline; alpha (3h) still serves.
	opts := crashOpts(copyDir)
	opts.Now = func() time.Time { return fixed.Add(150 * time.Minute) }
	st := mustOpen(t, opts)
	if v, err := st.Get([]byte("alpha")); err != nil || string(v) != "1-ttl" {
		t.Fatalf("alpha inside its 3h deadline: %q, %v", v, err)
	}
	if _, err := st.Get([]byte("hotel")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hotel past its 2h deadline: %v, want ErrNotFound", err)
	}
	expired := st.Stats().TTLExpired
	if expired == 0 {
		t.Fatalf("lazy expiry served a dead key without counting it")
	}
	mustClose(t, st)
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// coldCrashSetup builds a cold-tier lineage to attack: a compressible
// baseline corpus checkpointed into a segment set, then crashScript
// written through the post-rotation WAL with FsyncAlways, recording the
// legal crash points of the live WAL segment. It returns the intact
// directory's file contents, the tail WAL's name, its bytes, and the
// crash points (ends[0] = the tail's size right after the checkpoint).
func coldCrashSetup(t *testing.T, baseline int) (files map[string][]byte, tailWAL string, tail []byte, ends []int64) {
	t.Helper()
	dir := t.TempDir()
	opts := crashOpts(dir)
	opts.ColdCompress = true
	st := mustOpen(t, opts)
	for i := 0; i < baseline; i++ {
		if err := st.Put(coldKey(i), coldValueAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint rotated the WAL: the script lands in the newest
	// segment, whose name sorts last.
	newestWAL := func() string {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segments after checkpoint: %v", err)
		}
		newest := segs[0]
		for _, s := range segs[1:] {
			if filepath.Base(s) > filepath.Base(newest) {
				newest = s
			}
		}
		return newest
	}
	sizeOf := func(path string) int64 {
		fi, err := os.Stat(path)
		if os.IsNotExist(err) {
			return 0
		}
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	first := newestWAL()
	ends = append(ends, sizeOf(first))
	for _, op := range crashScript {
		var err error
		if op.del {
			err = st.Delete([]byte(op.key))
		} else {
			err = st.Put([]byte(op.key), []byte(op.value))
		}
		if err != nil {
			t.Fatal(err)
		}
		cur := newestWAL()
		if cur != first {
			t.Fatalf("WAL rotated mid-script: %s -> %s", first, cur)
		}
		ends = append(ends, sizeOf(first))
	}
	mustClose(t, st)
	files = make(map[string][]byte)
	for _, name := range mustReadDir(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	tailWAL = filepath.Base(first)
	tail = files[tailWAL]
	if int64(len(tail)) != ends[len(ends)-1] {
		t.Fatalf("tail WAL is %d bytes, expected %d after the last op", len(tail), ends[len(ends)-1])
	}
	return files, tailWAL, tail, ends
}

// writeColdCrashCopy materialises one cold matrix cell: every intact
// file (segments, set manifests, older WAL segments) plus one file
// replaced by its mutated bytes. A nil mutation deletes the file.
func writeColdCrashCopy(t *testing.T, files map[string][]byte, victim string, mut []byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range files {
		if name == victim {
			b = mut
		}
		if b == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// coldBaselineState is the expected recovered state of the checkpointed
// corpus plus a committed crashScript prefix of k ops.
func coldBaselineState(baseline, k int) map[string]string {
	want := make(map[string]string)
	for i := 0; i < baseline; i++ {
		want[string(coldKey(i))] = string(coldValueAt(i))
	}
	for key, v := range apply(crashScript, k) {
		want[key] = v
	}
	return want
}

// TestCrashMatrixColdTruncation cuts the WAL above a segment-set
// checkpoint to every length: each reopen must recover the full
// checkpointed corpus from the compressed segments plus exactly the
// committed prefix of tail records.
func TestCrashMatrixColdTruncation(t *testing.T) {
	const baseline = 40
	files, tailWAL, tail, ends := coldCrashSetup(t, baseline)
	for size := ends[0]; size <= int64(len(tail)); size++ {
		k := committedPrefix(ends, size)
		dir := writeColdCrashCopy(t, files, tailWAL, tail[:size])
		opts := crashOpts(dir)
		opts.ColdCompress = true
		st, err := Open(opts)
		if err != nil {
			t.Fatalf("tail cut to %d bytes: reopen failed: %v (a cut is a crash, never tampering)", size, err)
		}
		want := coldBaselineState(baseline, k)
		if got := dump(t, st); !mapsEqual(got, want) {
			t.Fatalf("tail cut to %d bytes: state %v, want checkpoint + prefix %d", size, got, k)
		}
		mustClose(t, st)
	}
}

// TestCrashMatrixColdSegmentTamper attacks the sealed segment files
// themselves: every byte of every seg-/segset- file flipped in place,
// and every truncation of each (segments carry a trailer proving
// completeness, so unlike a WAL a cut segment IS tampering). Under
// FailStop each reopen must refuse with ErrIntegrity.
func TestCrashMatrixColdSegmentTamper(t *testing.T) {
	files, _, _, _ := coldCrashSetup(t, 40)
	for name, data := range files {
		if !strings.HasPrefix(name, "seg-") && !strings.HasPrefix(name, "segset-") {
			continue
		}
		for off := int64(0); off < int64(len(data)); off++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x40
			dir := writeColdCrashCopy(t, files, name, mut)
			opts := crashOpts(dir)
			opts.ColdCompress = true
			opts.IntegrityPolicy = FailStop
			st, err := Open(opts)
			if err == nil {
				mustClose(t, st)
				t.Fatalf("%s flip at %d: FailStop open succeeded on a tampered segment", name, off)
			}
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("%s flip at %d: %v does not wrap ErrIntegrity", name, off, err)
			}
		}
		for _, size := range []int64{0, 1, int64(len(data)) / 2, int64(len(data)) - 1} {
			dir := writeColdCrashCopy(t, files, name, data[:size])
			opts := crashOpts(dir)
			opts.ColdCompress = true
			opts.IntegrityPolicy = FailStop
			st, err := Open(opts)
			if err == nil {
				mustClose(t, st)
				t.Fatalf("%s cut to %d bytes: FailStop open succeeded on an incomplete segment", name, size)
			}
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("%s cut to %d bytes: %v does not wrap ErrIntegrity", name, size, err)
			}
		}
	}
}

// TestCrashMatrixColdQuarantineFallback corrupts the newest generation
// of a two-set lineage: under Quarantine recovery must fall back to the
// previous set and reach the SAME final state, because the WAL above the
// older set's covered boundary is retained until the generation after
// next — the segment-set analogue of the snapshot fallback guarantee.
func TestCrashMatrixColdQuarantineFallback(t *testing.T) {
	const baseline = 40
	dir := t.TempDir()
	opts := crashOpts(dir)
	opts.ColdCompress = true
	st := mustOpen(t, opts)
	for i := 0; i < baseline; i++ {
		if err := st.Put(coldKey(i), coldValueAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(t, st) // generation A
	for i := 0; i < 10; i++ {
		if err := st.Put(coldKey(i), []byte(fmt.Sprintf("gen-b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(coldKey(39)); err != nil {
		t.Fatal(err)
	}
	checkpoint(t, st) // generation B
	if err := st.Put([]byte("tail"), []byte("tail-v")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, st)

	want := make(map[string]string)
	for i := 0; i < baseline-1; i++ {
		want[string(coldKey(i))] = string(coldValueAt(i))
	}
	for i := 0; i < 10; i++ {
		want[string(coldKey(i))] = fmt.Sprintf("gen-b-%d", i)
	}
	want["tail"] = "tail-v"

	files := make(map[string][]byte)
	var segs, sets []string
	for _, name := range mustReadDir(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
		switch {
		case strings.HasPrefix(name, "segset-"):
			sets = append(sets, name)
		case strings.HasPrefix(name, "seg-"):
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	sort.Strings(sets)
	if len(sets) < 2 {
		t.Fatalf("setup left %d set manifests, need 2 generations", len(sets))
	}
	// Attack generation B three ways: flip its manifest, flip its newest
	// member segment, and delete the member outright.
	newestSet, newestSeg := sets[len(sets)-1], segs[len(segs)-1]
	flip := func(b []byte) []byte {
		mut := append([]byte(nil), b...)
		mut[len(mut)/2] ^= 0x40
		return mut
	}
	for _, attack := range []struct {
		name   string
		victim string
		mut    []byte
	}{
		{"flip-manifest", newestSet, flip(files[newestSet])},
		{"flip-member", newestSeg, flip(files[newestSeg])},
		{"drop-member", newestSeg, nil},
	} {
		t.Run(attack.name, func(t *testing.T) {
			cdir := writeColdCrashCopy(t, files, attack.victim, attack.mut)
			o := crashOpts(cdir)
			o.ColdCompress = true
			o.IntegrityPolicy = Quarantine
			st, err := Open(o)
			if err != nil {
				t.Fatalf("Quarantine open failed instead of falling back: %v", err)
			}
			defer mustClose(t, st)
			if st.Stats().Health() != HealthDegraded {
				t.Errorf("health %v after salvaging from the previous set, want degraded", st.Stats().Health())
			}
			if got := dump(t, st); !mapsEqual(got, want) {
				t.Errorf("salvaged state %v,\nwant the full final state %v", got, want)
			}
		})
	}
}

// TestCrashMatrixSharded asserts the per-shard property: cutting or
// corrupting one shard's WAL affects exactly that shard's committed
// suffix while every other shard recovers in full.
func TestCrashMatrixSharded(t *testing.T) {
	const shards = 2
	srcDir := t.TempDir()
	opts := crashOpts(srcDir)
	opts.Shards = shards
	opts.EPCBytes = 32 << 20
	st := mustOpen(t, opts)

	segs := make([]string, shards)
	for i := range segs {
		segs[i] = singleSegment(t, filepath.Join(srcDir, fmt.Sprintf("shard-%d", i)))
	}
	segSize := func(i int) int64 {
		fi, err := os.Stat(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	// Per-shard op history, attributed by watching which shard's
	// segment grew: shardEnds[i][k] = shard i's file length after its
	// k-th op, shardOps[i] the ops routed to it.
	shardEnds := make([][]int64, shards)
	shardOps := make([][]crashOp, shards)
	for i := range shardEnds {
		shardEnds[i] = []int64{0}
	}
	for _, op := range crashScript {
		var err error
		if op.del {
			err = st.Delete([]byte(op.key))
		} else {
			err = st.Put([]byte(op.key), []byte(op.value))
		}
		if err != nil {
			t.Fatal(err)
		}
		grew := -1
		for i := 0; i < shards; i++ {
			if sz := segSize(i); sz > shardEnds[i][len(shardEnds[i])-1] {
				if grew != -1 {
					t.Fatalf("op %q grew two shards", op.key)
				}
				grew = i
				shardEnds[i] = append(shardEnds[i], sz)
				shardOps[i] = append(shardOps[i], op)
			}
		}
		if grew == -1 {
			t.Fatalf("op %q grew no shard's WAL", op.key)
		}
	}
	mustClose(t, st)
	for i := 0; i < shards; i++ {
		if len(shardOps[i]) == 0 {
			t.Fatalf("shard %d received no ops; pick keys that spread across shards", i)
		}
	}

	data := make([][]byte, shards)
	for i := range data {
		b, err := os.ReadFile(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		data[i] = b
	}
	manifest, err := os.ReadFile(filepath.Join(srcDir, manifestName))
	if err != nil {
		t.Fatalf("sharded store published no manifest: %v", err)
	}

	// checkState verifies every key in the script through Get, since a
	// hash-partitioned store has no ordered Scan.
	checkState := func(t *testing.T, st Store, want map[string]string, context string) {
		t.Helper()
		seen := make(map[string]bool)
		for _, op := range crashScript {
			if seen[op.key] {
				continue
			}
			seen[op.key] = true
			v, err := st.Get([]byte(op.key))
			wantV, present := want[op.key]
			switch {
			case present && err != nil:
				t.Fatalf("%s: Get(%s): %v, want %q", context, op.key, err, wantV)
			case present && string(v) != wantV:
				t.Fatalf("%s: Get(%s) = %q, want %q", context, op.key, v, wantV)
			case !present && !errors.Is(err, ErrNotFound):
				t.Fatalf("%s: Get(%s) = %q, %v, want ErrNotFound", context, op.key, v, err)
			}
		}
	}

	// cloneDirs writes all shards intact except victim, which gets mut.
	// The manifest rides along: a crash image always includes it, since
	// it is published before any shard lineage exists.
	cloneDirs := func(t *testing.T, victim int, mut []byte) string {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			b := data[i]
			if i == victim {
				b = mut
			}
			sub := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sub, filepath.Base(segs[i])), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	// expectedState merges shard v's committed prefix of k ops with the
	// full history of every other shard.
	expectedState := func(victim, k int) map[string]string {
		want := make(map[string]string)
		for _, op := range crashScript {
			mine := false
			for _, vop := range shardOps[victim] {
				if vop == op {
					mine = true
				}
			}
			if mine {
				continue
			}
			if op.del {
				delete(want, op.key)
			} else {
				want[op.key] = op.value
			}
		}
		for _, op := range shardOps[victim][:k] {
			if op.del {
				delete(want, op.key)
			} else {
				want[op.key] = op.value
			}
		}
		return want
	}

	for victim := 0; victim < shards; victim++ {
		t.Run(fmt.Sprintf("truncate-shard-%d", victim), func(t *testing.T) {
			for size := int64(0); size <= int64(len(data[victim])); size++ {
				k := committedPrefix(shardEnds[victim], size)
				dir := cloneDirs(t, victim, data[victim][:size])
				o := crashOpts(dir)
				o.Shards = shards
				o.EPCBytes = 32 << 20
				st, err := Open(o)
				if err != nil {
					t.Fatalf("shard %d cut to %d bytes: reopen failed: %v", victim, size, err)
				}
				checkState(t, st, expectedState(victim, k),
					fmt.Sprintf("shard %d cut to %d bytes (prefix %d)", victim, size, k))
				mustClose(t, st)
			}
		})
		t.Run(fmt.Sprintf("flip-shard-%d", victim), func(t *testing.T) {
			for off := int64(0); off < int64(len(data[victim])); off++ {
				mut := append([]byte(nil), data[victim]...)
				mut[off] ^= 0x40
				dir := cloneDirs(t, victim, mut)
				o := crashOpts(dir)
				o.Shards = shards
				o.EPCBytes = 32 << 20
				o.IntegrityPolicy = FailStop
				st, err := Open(o)
				if err == nil {
					mustClose(t, st)
					t.Fatalf("shard %d flip at %d: FailStop open succeeded on a tampered shard", victim, off)
				}
				if !errors.Is(err, ErrIntegrity) {
					t.Fatalf("shard %d flip at %d: %v does not wrap ErrIntegrity", victim, off, err)
				}
			}
		})
	}
}
