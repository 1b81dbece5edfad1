package aria

// Tests for the non-blocking snapshot run (DESIGN.md §10): the snapshot
// is a consistent cut of a store that keeps being written, recovery from
// it plus any WAL prefix above it is exact, no hold of the shard lock
// covers more than one chunk of reads, and a run racing Close either
// completes or never starts.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/ariakv/aria/internal/seal"
	"github.com/ariakv/aria/obs"
	"github.com/ariakv/aria/wal"
)

// cutEnt is the oracle's view of one live key: what a snapshot pair
// carries for it.
type cutEnt struct {
	val []byte
	ver uint64
	exp int64
}

// cutWrite is one key's change inside a WAL record.
type cutWrite struct {
	key string
	del bool
	cutEnt
}

// cutLineage is the oracle for one shard's lineage: every WAL record the
// single writer committed, in order, with the version clock after each.
// Record i carries WAL sequence number base+1+i.
type cutLineage struct {
	dir    string
	seed   uint64
	base   uint64
	vclock uint64
	live   map[string]cutEnt // the state after the last record
	recs   [][]cutWrite
	clocks []uint64
	// cuts holds the record counts at which an operation ended: a group
	// commit (MPut) is several records but one lock hold, so no snapshot
	// may cover part of it.
	cuts map[int]bool
}

func (l *cutLineage) put(key string, val []byte, exp int64) cutWrite {
	l.vclock++
	e := cutEnt{val: val, ver: l.vclock, exp: exp}
	l.live[key] = e
	return cutWrite{key: key, cutEnt: e}
}

func (l *cutLineage) del(key string) cutWrite {
	delete(l.live, key)
	return cutWrite{key: key, del: true}
}

// commit appends one WAL record's worth of writes.
func (l *cutLineage) commit(ws ...cutWrite) {
	l.recs = append(l.recs, ws)
	l.clocks = append(l.clocks, l.vclock)
}

// at replays the first n records: the state and version clock a
// snapshot covering base+n must hold.
func (l *cutLineage) at(n int) (map[string]cutEnt, uint64) {
	state := make(map[string]cutEnt)
	for _, rec := range l.recs[:n] {
		for _, w := range rec {
			if w.del {
				delete(state, w.key)
			} else {
				state[w.key] = w.cutEnt
			}
		}
	}
	if n == 0 {
		return state, 0
	}
	return state, l.clocks[n-1]
}

// cutWriter is the single writer: it issues random operations, every
// value stamped with a global sequence number, and keeps the lineage
// oracles in step. mu is held across each operation and its oracle
// update, so whoever holds it sees an oracle that is complete for every
// operation issued.
type cutWriter struct {
	t       *testing.T
	opts    Options // as opened: the injected clock included
	st      Store
	mu      sync.Mutex
	lin     []*cutLineage
	shardOf func(key []byte) int
	keys    [][]string // the key universe, by shard
	rng     *rand.Rand
	seq     int
	now     int64
	pace    time.Duration // sleep between operations; 0 = flat out
}

// cutOpen opens a fresh durable store of the given shard count under a
// fixed injected clock and returns its writer with one empty lineage
// oracle per shard.
func cutOpen(t *testing.T, opts Options, nkeys int) *cutWriter {
	t.Helper()
	w := &cutWriter{t: t, rng: rand.New(rand.NewSource(14)), now: time.Date(2021, 4, 19, 0, 0, 0, 0, time.UTC).UnixNano()}
	opts.Now = func() time.Time { return time.Unix(0, w.now) }
	w.opts = opts
	w.st = mustOpen(t, opts)
	w.shardOf = w.st.ShardFor
	n := w.st.NumShards()
	w.keys = make([][]string, n)
	for i := 0; i < n; i++ {
		w.lin = append(w.lin, &cutLineage{
			dir: w.st.WALShardDir(i), seed: opts.Seed, base: w.st.WALShardNextSeq(i) - 1,
			live: map[string]cutEnt{}, cuts: map[int]bool{0: true},
		})
		if n > 1 {
			w.lin[i].seed = opts.Seed + uint64(i)
		}
	}
	for i := 0; i < nkeys; i++ {
		k := fmt.Sprintf("key-%06d", i)
		sh := w.shardOf([]byte(k))
		w.keys[sh] = append(w.keys[sh], k)
	}
	return w
}

func (w *cutWriter) value(key string) []byte {
	w.seq++
	v := []byte(fmt.Sprintf("%s@%08d|", key, w.seq))
	return append(v, bytes.Repeat([]byte{byte('a' + w.seq%26)}, 40+w.rng.Intn(60))...)
}

func (w *cutWriter) pick(sh int) string { return w.keys[sh][w.rng.Intn(len(w.keys[sh]))] }

func (w *cutWriter) anyKey() (string, *cutLineage) {
	sh := w.rng.Intn(len(w.keys))
	return w.pick(sh), w.lin[sh]
}

// expect reports an operation whose outcome the oracle did not predict.
func (w *cutWriter) expect(what string, err, want error) {
	if want == nil && err != nil || want != nil && !errors.Is(err, want) {
		w.t.Errorf("op %d: %s: got %v, want %v", w.seq, what, err, want)
	}
}

// load bulk-loads every key, one group commit per batch per shard.
func (w *cutWriter) load() {
	var all []string
	for _, ks := range w.keys {
		all = append(all, ks...)
	}
	sort.Strings(all)
	for len(all) > 0 {
		n := min(256, len(all))
		w.mput(all[:n])
		all = all[n:]
	}
}

func (w *cutWriter) mput(keys []string) {
	pairs := make([]KV, len(keys))
	touched := map[*cutLineage]bool{}
	for i, k := range keys {
		l := w.lin[w.shardOf([]byte(k))]
		v := w.value(k)
		pairs[i] = KV{Key: []byte(k), Value: v}
		l.commit(l.put(k, v, 0))
		touched[l] = true
	}
	for _, err := range w.st.MPut(pairs) {
		w.expect("MPut", err, nil)
	}
	for l := range touched {
		l.cuts[len(l.recs)] = true
	}
}

// step issues one random operation and records what it committed.
func (w *cutWriter) step() {
	k, l := w.anyKey()
	done := func() { l.cuts[len(l.recs)] = true }
	switch p := w.rng.Intn(100); {
	case p < 30:
		v := w.value(k)
		w.expect("Put", w.st.Put([]byte(k), v), nil)
		l.commit(l.put(k, v, 0))
		done()
	case p < 42:
		err := w.st.Delete([]byte(k))
		if _, ok := l.live[k]; !ok {
			w.expect("Delete absent", err, ErrNotFound)
			return
		}
		w.expect("Delete", err, nil)
		l.commit(l.del(k))
		done()
	case p < 56:
		v, ver := w.value(k), l.live[k].ver
		if w.rng.Intn(3) == 0 {
			w.expect("stale CAS", w.st.CompareAndSwap([]byte(k), v, ver+1), ErrCASMismatch)
			return
		}
		w.expect("CAS", w.st.CompareAndSwap([]byte(k), v, ver), nil)
		l.commit(l.put(k, v, 0))
		done()
	case p < 68:
		v, ttl := w.value(k), time.Duration(1+w.rng.Intn(48))*time.Hour
		w.expect("PutTTL", w.st.PutTTL([]byte(k), v, ttl), nil)
		l.commit(l.put(k, v, w.now+int64(ttl)))
		done()
	case p < 80:
		seen := map[string]bool{}
		var keys []string
		for len(keys) < 2+w.rng.Intn(5) {
			if k, _ := w.anyKey(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		w.mput(keys)
	default:
		// A same-shard transaction: a version check on k, then a few
		// writes, committed as one record or — on a stale check — not at all.
		sh := w.shardOf([]byte(k))
		ops := []TxnOp{{Key: []byte(k), ReadOnly: true, Check: true, Version: l.live[k].ver}}
		stale := w.rng.Intn(4) == 0
		if stale {
			ops[0].Version++
		}
		var rec []cutWrite
		seen := map[string]bool{k: true}
		for len(ops) < 2+w.rng.Intn(4) {
			k2 := w.pick(sh)
			if seen[k2] {
				continue
			}
			seen[k2] = true
			switch w.rng.Intn(3) {
			case 0:
				ops = append(ops, TxnOp{Key: []byte(k2), Delete: true})
				if !stale {
					rec = append(rec, l.del(k2))
				}
			case 1:
				v, ttl := w.value(k2), time.Duration(1+w.rng.Intn(48))*time.Hour
				ops = append(ops, TxnOp{Key: []byte(k2), Value: v, TTL: ttl})
				if !stale {
					rec = append(rec, l.put(k2, v, w.now+int64(ttl)))
				}
			default:
				v := w.value(k2)
				ops = append(ops, TxnOp{Key: []byte(k2), Value: v})
				if !stale {
					rec = append(rec, l.put(k2, v, 0))
				}
			}
		}
		err := w.st.TxnCommit(ops)
		if stale {
			w.expect("stale TxnCommit", err, ErrTxnConflict)
			return
		}
		w.expect("TxnCommit", err, nil)
		l.commit(rec...)
		done()
	}
}

// run issues operations until stop closes.
func (w *cutWriter) run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		w.mu.Lock()
		w.step()
		w.mu.Unlock()
		if w.pace > 0 {
			time.Sleep(w.pace)
		}
	}
}

// checkSnapshot opens lineage l's newest snapshot and requires it to be
// the oracle's state after exactly the records it covers — values,
// versions, deadlines and the version clock — with the cut on an
// operation boundary. It returns the number of records covered.
func (w *cutWriter) checkSnapshot(l *cutLineage) int {
	t := w.t
	t.Helper()
	snaps, err := wal.ListSnapshots(l.dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("%s: no snapshot to check (err %v)", l.dir, err)
	}
	path := snaps[0].Path
	covered, pairs, err := wal.ReadSnapshot(path, seal.New(l.seed))
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	n := int(covered - l.base)
	if covered < l.base || n > len(l.recs) || !l.cuts[n] {
		t.Fatalf("%s covers seq %d = %d records of %d: not on an operation boundary", path, covered, n, len(l.recs))
	}
	want, clock := l.at(n)
	if len(pairs) == 0 || len(pairs[0].Key) != 0 || len(pairs[0].Value) != 8 ||
		binary.LittleEndian.Uint64(pairs[0].Value) != clock {
		t.Fatalf("%s: version-clock pair wrong, want clock %d", path, clock)
	}
	pairs = pairs[1:]
	if len(pairs) != len(want) {
		t.Errorf("%s: %d keys, oracle has %d after %d records", path, len(pairs), len(want), n)
	}
	for i, p := range pairs {
		if i > 0 && bytes.Compare(pairs[i-1].Key, p.Key) >= 0 {
			t.Fatalf("%s: keys out of order at %q", path, p.Key)
		}
		val, ver, exp, err := decodeSnapValue(p.Value)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := want[string(p.Key)]
		if !ok || !bytes.Equal(val, e.val) || ver != e.ver || exp != e.exp {
			t.Fatalf("%s: key %q = %q v%d exp %d, but after %d records the oracle has %q v%d exp %d (present %v): not a cut",
				path, p.Key, val, ver, exp, n, e.val, e.ver, e.exp, ok)
		}
	}
	return n
}

// checkStore reads every key of lineage l back and requires the state
// after the first n records, versions included.
func checkStore(t *testing.T, st Store, w *cutWriter, l *cutLineage, sh, n int, context string) {
	t.Helper()
	want, _ := l.at(n)
	for _, k := range w.keys[sh] {
		v, ver, err := st.GetV([]byte(k))
		e, ok := want[k]
		switch {
		case !ok && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: key %s = %q v%d (err %v), want absent", context, k, v, ver, err)
		case ok && (err != nil || !bytes.Equal(v, e.val) || ver != e.ver):
			t.Fatalf("%s: key %s = %q v%d (err %v), want %q v%d", context, k, v, ver, err, e.val, e.ver)
		}
	}
}

func storeShards(st Store) []*shard {
	if s, ok := st.(*shardedStore); ok {
		return s.shards
	}
	return []*shard{st.(*shard)}
}

func preimages(st Store) (n uint64) {
	for _, s := range storeShards(st) {
		n += s.ins.ckptPreimages.Load()
	}
	return n
}

// TestCheckpointIsConsistentCut checkpoints a store repeatedly while one
// writer keeps changing it, and after every run requires each shard's
// newest snapshot to be the exact state at one operation boundary; the
// reopened store must then hold every operation, so replay resumed right
// above the cut.
func TestCheckpointIsConsistentCut(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			opts := durableOpts(t.TempDir())
			opts.Scheme = AriaHash
			opts.ExpectedKeys = 8192
			opts.Shards = shards
			opts.Fsync = FsyncNever
			opts.Metrics = obs.NewRegistry()
			w := cutOpen(t, opts, 3000)
			w.load()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(stop)
			}()
			midRun := 0
			for round := 0; round < 25 && !t.Failed(); round++ {
				if err := w.st.Checkpoint(); err != nil {
					t.Fatalf("checkpoint %d: %v", round, err)
				}
				w.mu.Lock()
				for _, l := range w.lin {
					if w.checkSnapshot(l) < len(l.recs) {
						midRun++ // the writer committed more before the run returned
					}
				}
				w.mu.Unlock()
			}
			close(stop)
			wg.Wait()
			if midRun == 0 || preimages(w.st) == 0 {
				t.Fatalf("the writer never overlapped a run (%d snapshots behind the log, %d pre-images): nothing was tested", midRun, preimages(w.st))
			}
			t.Logf("%d ops, %d snapshots taken behind the log, %d pre-images", w.seq, midRun, preimages(w.st))
			mustClose(t, w.st)
			w.opts.Metrics = nil
			st := mustOpen(t, w.opts)
			defer mustClose(t, st)
			for sh, l := range w.lin {
				checkStore(t, st, w, l, sh, len(l.recs), "after reopen")
			}
		})
	}
}

// TestCrashMatrixConcurrentSnapshot takes the snapshot while the writer
// runs, then cuts the WAL at every record boundary above the snapshot's
// covered seq: recovery must land on exactly the oracle's state after
// that many records, under either policy (a cut is a crash, never
// tampering).
func TestCrashMatrixConcurrentSnapshot(t *testing.T) {
	for _, policy := range []IntegrityPolicy{FailStop, Quarantine} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := crashOpts(t.TempDir())
			opts.Scheme = AriaHash
			opts.ExpectedKeys = 2048
			opts.Fsync = FsyncNever
			opts.IntegrityPolicy = policy
			opts.Metrics = obs.NewRegistry()
			w := cutOpen(t, opts, 1000)
			w.load()
			w.pace = 50 * time.Microsecond // bounds the matrix: every record above the cut is one reopen
			l := w.lin[0]

			// The writer is 60 records in when the run begins and stops 60
			// records after it returns, so the snapshot has history below
			// it and the matrix a tail above it whatever the timing.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(stop)
			}()
			records := func() int {
				w.mu.Lock()
				defer w.mu.Unlock()
				return len(l.recs)
			}
			for n := records() + 60; records() < n; {
				time.Sleep(time.Millisecond)
			}
			// The run under test is one a write overlapped.
			for tries, before := 0, uint64(0); preimages(w.st) == before; tries++ {
				if tries == 50 {
					t.Fatal("no write overlapped a run in 50 runs: nothing to test")
				}
				before = preimages(w.st)
				if err := w.st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			for n := records() + 60; records() < n; {
				time.Sleep(time.Millisecond)
			}
			close(stop)
			wg.Wait()
			covered := w.checkSnapshot(l)
			mustClose(t, w.st)

			// The run rotated the log at its cut, so the segment that
			// starts right above it holds every later record.
			tail := filepath.Join(l.dir, fmt.Sprintf("wal-%020d.log", l.base+uint64(covered)+1))
			data, err := os.ReadFile(tail)
			if err != nil {
				t.Fatal(err)
			}
			ends := []int64{0}
			for off := int64(0); off < int64(len(data)); {
				off += 8 + int64(binary.LittleEndian.Uint32(data[off:]))
				ends = append(ends, off)
			}
			if got := len(ends) - 1; got != len(l.recs)-covered {
				t.Fatalf("tail segment holds %d records, oracle has %d above the snapshot", got, len(l.recs)-covered)
			}
			files, err := os.ReadDir(l.dir)
			if err != nil {
				t.Fatal(err)
			}
			opts = w.opts
			opts.Metrics = nil
			for k, end := range ends {
				dir := t.TempDir()
				for _, f := range files {
					if f.Name() != filepath.Base(tail) {
						if err := os.Link(filepath.Join(l.dir, f.Name()), filepath.Join(dir, f.Name())); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(tail)), data[:end], 0o644); err != nil {
					t.Fatal(err)
				}
				opts.DataDir = dir
				st, err := Open(opts)
				if err != nil {
					t.Fatalf("cut after %d records above the snapshot: reopen failed: %v", k, err)
				}
				checkStore(t, st, w, l, 0, covered+k, fmt.Sprintf("cut after %d records above the snapshot", k))
				if h := st.Stats().Health(); h != HealthOK {
					t.Fatalf("cut after %d records: health %v, a cut is not tampering", k, h)
				}
				mustClose(t, st)
			}
			t.Logf("snapshot at %d records, %d pre-images, %d cuts above it", covered, preimages(w.st), len(ends))
		})
	}
}

// holdCounter is an engine that counts its Gets by the snapshot run's
// lock hold they happened in.
type holdCounter struct {
	engine
	s      *shard
	byHold map[int]int
}

func (h *holdCounter) Get(key []byte) ([]byte, error) {
	if h.s.run != nil {
		h.byHold[h.s.run.holds]++
	}
	return h.engine.Get(key)
}

// TestCheckpointLockHoldIsOneChunk pins what the run is for: with 50 k
// live keys, no single hold of the shard lock covers more than one
// chunk of engine reads. Reads are counted per hold through the engine
// seam, not timed, so the pin cannot flake.
func TestCheckpointLockHoldIsOneChunk(t *testing.T) {
	const keys = 50000
	opts := durableOpts(t.TempDir())
	opts.Scheme = AriaHash
	opts.ExpectedKeys = keys
	opts.Fsync = FsyncNever
	st := mustOpen(t, opts)
	defer mustClose(t, st)
	batch := make([]KV, 0, 500)
	for i := 0; i < keys; i++ {
		if batch = append(batch, KV{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: []byte("v")}); len(batch) == cap(batch) {
			for _, err := range st.MPut(batch) {
				if err != nil {
					t.Fatal(err)
				}
			}
			batch = batch[:0]
		}
	}
	s := st.(*shard)
	h := &holdCounter{engine: s.eng, s: s, byHold: map[int]int{}}
	s.mu.Lock()
	s.eng = h
	s.mu.Unlock()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for hold, n := range h.byHold {
		if total += n; n > ckptChunk {
			t.Errorf("hold %d of the shard lock covered %d engine reads, more than one chunk (%d)", hold, n, ckptChunk)
		}
	}
	if want := (keys + ckptChunk - 1) / ckptChunk; total != keys || len(h.byHold) != want {
		t.Errorf("%d reads over %d holds, want every one of %d keys read once over %d holds", total, len(h.byHold), keys, want)
	}
}

// TestCheckpointRacesClose closes the store while checkpoint runs are
// in flight, manual and background: each run either completes before
// the log closes or never starts, no temp file is left behind, and what
// the directory then holds recovers every write.
func TestCheckpointRacesClose(t *testing.T) {
	for round := 0; round < 8; round++ {
		opts := durableOpts(t.TempDir())
		opts.Scheme = AriaHash
		opts.Shards = 1 + round%2
		opts.Fsync = FsyncNever
		opts.CheckpointEvery = 50
		st := mustOpen(t, opts)
		const keys = 1500
		for i := 0; i < keys; i++ {
			if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := st.Checkpoint(); err != nil {
						if !errors.Is(err, errCkptClosed) {
							t.Errorf("checkpoint racing close: %v", err)
						}
						return
					}
				}
			}()
		}
		// Keep the log moving so the runs are real ones, and close right
		// behind the last write, while one is likely mid-run.
		for i := 0; i < 40*(1+round); i++ {
			if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		mustClose(t, st)
		close(stop)
		wg.Wait()
		for _, s := range storeShards(st) {
			if tmps, _ := filepath.Glob(filepath.Join(s.dur.dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
			if s.run != nil {
				t.Fatal("a run record outlived Close")
			}
		}
		opts.CheckpointEvery = 0
		re := mustOpen(t, opts)
		for i := 0; i < keys; i++ {
			if v, err := re.Get([]byte(fmt.Sprintf("key-%05d", i))); err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("after close racing checkpoints: key %d = %q, %v", i, v, err)
			}
		}
		mustClose(t, re)
	}
}
