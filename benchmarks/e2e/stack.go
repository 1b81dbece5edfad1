package main

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/kvnet"
	"github.com/ariakv/aria/obs"
)

// env is what every stack of one process shares.
type env struct {
	dataRoot string
	// corruptEvery, when positive, makes every stack serve through a
	// decorator that flips a byte in one Get result out of that many
	// (-selftest: the oracle must notice).
	corruptEvery uint64
}

// depth says how much of the production stack openAt puts around the
// engine; the peel opens the same workload at increasing depth.
type depth int

const (
	depthPlain   depth = iota + 1 // L1: aria.Open, one shard
	depthMetrics                  // L2: + Options.Metrics
	depthShards                   // L3: + Shards: 2
	depthDurable                  // L4: + DataDir
	depthCold                     // L5: + ColdCompress
)

// full is the depth the workload itself runs at.
func (s spec) full() depth {
	switch {
	case s.cold:
		return depthCold
	case s.durable:
		return depthDurable
	}
	return depthShards
}

// target is the part of a store or a client the load generator drives.
type target interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
}

type checkpointer interface{ Checkpoint() error }

// stack is one opened store with, for wire workloads, its server and its
// one client connection.
type stack struct {
	spec  spec
	store aria.Store // what aria.Open returned
	tap   *tapStore  // the decorator the server or the in-process client sees; nil when neither tracing nor corrupting
	reg   *obs.Registry
	srv   *kvnet.Server
	cli   *kvnet.Client
	// admin carries only Checkpoint calls. It has no Metrics: a
	// kvnet.Client with Metrics panics on Checkpoint (clientMetrics.request
	// indexes arrays sized for opMDelete with opCheckpoint), which this
	// benchmark found and may not fix.
	admin *kvnet.Client
	dir   string
	opts  aria.Options
}

func (e *env) options(s spec, d depth, seed uint64, dir string, reg *obs.Registry) aria.Options {
	o := aria.Options{
		Scheme:       s.scheme,
		EPCBytes:     s.epc,
		ExpectedKeys: s.keys,
		Seed:         seed,
		MeasureOff:   true,
	}
	if d >= depthMetrics {
		o.Metrics = reg
	}
	if d >= depthShards {
		o.Shards = 2
	}
	if d >= depthDurable {
		// The DataDir sits on whatever filesystem holds the checkout, so
		// the WAL leaves flushing to the OS: with FsyncBatch a Put is one
		// device flush (~225 us on the reference box's disk against ~40 us
		// of program) and the device's run-to-run swing drowns the
		// program's. Snapshots and segments still fsync.
		o.DataDir = dir
		o.Fsync = aria.FsyncNever
	}
	if d >= depthCold {
		o.ColdCompress = true
	}
	return o
}

// open builds the stack at depth d and bulk-loads every key at write
// sequence 0: aria.Open, MPut in batches of 256, and the first checkpoint
// where the store is durable. That is what setup_s times.
func (e *env) open(s spec, d depth, seed uint64, keys keySlab) (*stack, error) {
	st := &stack{spec: s, reg: obs.NewRegistry()}
	if d >= depthDurable {
		if err := os.MkdirAll(e.dataRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(e.dataRoot, s.name+"-")
		if err != nil {
			return nil, err
		}
		st.dir = dir
	}
	st.opts = e.options(s, d, seed, st.dir, st.reg)
	store, err := aria.Open(st.opts)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("open %s: %w", s.name, err)
	}
	st.store = store
	if err := bulkLoad(store, keys, s.keys); err != nil {
		st.close()
		return nil, err
	}
	if d >= depthDurable {
		if err := store.(aria.Durable).Checkpoint(); err != nil {
			st.close()
			return nil, fmt.Errorf("first checkpoint: %w", err)
		}
	}
	store.SetMeasuring(true)
	return st, nil
}

func bulkLoad(store aria.Store, keys keySlab, n int) error {
	const batch = 256
	vals := make([]byte, batch*valueSize)
	pairs := make([]aria.KV, 0, batch)
	for i := 0; i < n; i++ {
		v := vals[len(pairs)*valueSize : (len(pairs)+1)*valueSize]
		fillValue(v, i, 0)
		pairs = append(pairs, aria.KV{Key: keys.key(i), Value: v})
		if len(pairs) == batch || i == n-1 {
			for _, err := range store.MPut(pairs) {
				if err != nil {
					return fmt.Errorf("bulk load: %w", err)
				}
			}
			pairs = pairs[:0]
		}
	}
	return nil
}

// serve puts the decorator (if any) around the store and, for a wire
// workload, starts a kvnet server on a loopback port with one client
// connection to it. It returns what the load generator should drive.
func (st *stack) serve(e *env, rec *recorder) (target, error) {
	served := st.store
	if rec != nil || e.corruptEvery > 0 {
		st.tap = &tapStore{Store: st.store, rec: rec, corruptEvery: e.corruptEvery}
		served = st.tap
	}
	if !st.spec.wire {
		return served, nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = kvnet.NewServerConfig(served, kvnet.ServerConfig{Metrics: st.reg})
	st.srv.SetLogf(func(string, ...any) {})
	go func() { _ = st.srv.Serve(lis) }() // returns when close() closes the server
	cli, err := kvnet.DialConfig(lis.Addr().String(), kvnet.ClientConfig{Retry: kvnet.NoRetry(), Metrics: st.reg})
	if err != nil {
		return nil, err
	}
	st.cli = cli
	if st.dir != "" {
		if st.admin, err = kvnet.DialConfig(lis.Addr().String(), kvnet.ClientConfig{Retry: kvnet.NoRetry()}); err != nil {
			return nil, err
		}
	}
	return cli, nil
}

// checkpointer returns what takes a checkpoint the way a user of this
// stack would: the client on the wire, the store in process.
func (st *stack) checkpointer() checkpointer {
	if st.admin != nil {
		return st.admin
	}
	if st.tap != nil {
		return st.tap
	}
	return st.store.(aria.Durable)
}

// stopServing closes the client and the server, leaving the store open.
func (st *stack) stopServing() {
	for _, c := range []**kvnet.Client{&st.cli, &st.admin} {
		if *c != nil {
			_ = (*c).Close()
			*c = nil
		}
	}
	if st.srv != nil {
		_ = st.srv.Close()
		st.srv = nil
	}
}

// closeStore closes a durable store and reports its error: a checkpoint
// that failed in the background surfaces only here.
func (st *stack) closeStore() error {
	if st.store == nil {
		return nil
	}
	d, ok := st.store.(aria.Durable)
	st.store = nil
	if !ok || st.dir == "" {
		return nil
	}
	return d.Close()
}

// reopen opens the closed DataDir again with the options it was created
// with and returns how long aria.Open took.
func (st *stack) reopen() (time.Duration, error) {
	o := st.opts
	o.MeasureOff = false
	st.reg = obs.NewRegistry()
	if o.Metrics != nil {
		o.Metrics = st.reg
	}
	t0 := time.Now()
	store, err := aria.Open(o)
	took := time.Since(t0)
	if err != nil {
		return took, fmt.Errorf("reopen %s: %w", st.spec.name, err)
	}
	st.store = store
	return took, nil
}

func (st *stack) close() {
	st.stopServing()
	_ = st.closeStore()
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// ---- spans -------------------------------------------------------------------

// span is one timed interval of the traced run. Spans of one op share
// OpSeq; Parent is the span that was open when this one began.
type span struct {
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	OpSeq   uint32 `json:"op_seq"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

const (
	spanOp         = "loadgen.op"
	spanRoundtrip  = "kvnet.roundtrip"
	spanStoreCall  = "store.call"
	spanCheckpoint = "durable.checkpoint"
)

// recorder keeps the traced run's spans in memory. The traced run has one
// closed-loop client, so spans nest strictly in time and the innermost
// open span is the parent of the next one, whichever goroutine begins it.
// A nil recorder records nothing.
type recorder struct {
	on    bool // set between ops only: the traced pass runs its first half with it off
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []uint32
	opSeq uint32
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name string) uint32 {
	if r == nil || !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == spanOp {
		r.opSeq++
	}
	id := uint32(len(r.spans) + 1)
	var parent uint32
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, OpSeq: r.opSeq, Name: name, StartNs: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id uint32) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNs = now
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// spanTotals is one span name's count, total duration and self time
// (duration minus the part its child spans cover).
type spanTotals struct {
	n        int
	total    int64
	children int64
}

func (t spanTotals) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n)
}

func (t spanTotals) selfMean() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total-t.children) / float64(t.n)
}

func (r *recorder) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	for _, s := range r.spans {
		t := out[s.Name]
		t.n++
		t.total += s.EndNs - s.StartNs
		out[s.Name] = t
		if s.Parent != 0 {
			p := r.spans[s.Parent-1]
			pt := out[p.Name]
			pt.children += s.EndNs - s.StartNs
			out[p.Name] = pt
		}
	}
	return out
}

// tapStore is the benchmark's own decorator around the store under test:
// it records a span around every call (traced run) and corrupts results on
// request (-selftest). It forwards the capabilities kvnet looks for
// (ConcurrentStore, EdgeCaller, Durable; the benchmark sends no scan), so
// the server treats it exactly like the store it wraps.
type tapStore struct {
	aria.Store
	rec          *recorder
	corruptEvery uint64
	gets         atomic.Uint64
	// timed, set between ops only, makes the decorator sum the time spent
	// inside the store by kind: the full stack's ns per Get and per Put.
	timed                bool
	getNs, putNs         atomic.Int64
	timedGets, timedPuts atomic.Int64
}

func (t *tapStore) Get(key []byte) ([]byte, error) {
	if !t.timed && t.corruptEvery == 0 {
		return t.Store.Get(key)
	}
	id := t.rec.begin(spanStoreCall)
	t0 := time.Now()
	v, err := t.Store.Get(key)
	t.getNs.Add(int64(time.Since(t0)))
	t.timedGets.Add(1)
	t.rec.end(id)
	if t.corruptEvery > 0 && err == nil && len(v) > 0 && t.gets.Add(1)%t.corruptEvery == 0 {
		v[len(v)/2] ^= 0x40
	}
	return v, err
}

func (t *tapStore) Put(key, value []byte) error {
	if !t.timed {
		return t.Store.Put(key, value)
	}
	id := t.rec.begin(spanStoreCall)
	t0 := time.Now()
	err := t.Store.Put(key, value)
	t.putNs.Add(int64(time.Since(t0)))
	t.timedPuts.Add(1)
	t.rec.end(id)
	return err
}

func (t *tapStore) ConcurrentSafe() bool {
	cs, ok := t.Store.(aria.ConcurrentStore)
	return ok && cs.ConcurrentSafe()
}

// ChargeEcall forwards the per-request ECALL the server charges, so the
// simulated clock of a traced or corrupted run is the production one.
func (t *tapStore) ChargeEcall() {
	if ec, ok := t.Store.(aria.EdgeCaller); ok {
		ec.ChargeEcall()
	}
}

func (t *tapStore) Checkpoint() error {
	d, ok := t.Store.(aria.Durable)
	if !ok {
		return aria.ErrNotDurable
	}
	id := t.rec.begin(spanCheckpoint)
	err := d.Checkpoint()
	t.rec.end(id)
	return err
}

func (t *tapStore) Close() error {
	d, ok := t.Store.(aria.Durable)
	if !ok {
		return aria.ErrNotDurable
	}
	return d.Close()
}
