package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/obs"
)

const (
	simHz = 3.6e9 // the paper's clock: simulated cycles are divided by 3.6 GHz
	// sliceNs is the length of one window slice. Throughput and the
	// latency percentiles are medians over the window's whole slices, so
	// one disturbed second does not set a run's value; the open loop's
	// checkpoint falls in the middle of every slice.
	sliceNs = 1_000_000_000
	// A run sets the stack up at least minSetups times, and goes on (to
	// maxSetups) while the set-ups together took less than setupBudget: a
	// set-up of a few hundred milliseconds swings with the host, and more
	// of them steady the median that setup_s is. The last stack built is
	// the one the window runs on.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2500 * time.Millisecond
)

// loadgen is what the clients of one run share.
type loadgen struct {
	sp    spec
	keys  keySlab
	or    *oracle
	exact bool // one client: a Get must return exactly the last acknowledged write
	rec   *recorder
	epoch time.Time
}

func (g *loadgen) now() int64 { return int64(time.Since(g.epoch)) }

// window is one second of the measured window: the latencies of the ops
// that returned in it and how many of them were correct.
type window struct {
	get, put lhist
	ok       uint32
}

// tally is what clients measured. A closed-loop client has its own; the
// open loop's users share one, which is what the mutex is for.
type tally struct {
	mu        sync.Mutex
	windows   []*window
	lag       lhist // open loop: how late the dispatcher handed a due time over
	promote   lhist // restart: Gets of keys not read since the reopen
	attempted uint64
	failed    uint64
	sloMiss   uint64
	gets      uint64
	puts      uint64 // acknowledged
	userBytes uint64 // key + value bytes of acknowledged puts
}

func (t *tally) window(i int) *window {
	for len(t.windows) <= i {
		t.windows = append(t.windows, &window{})
	}
	return t.windows[i]
}

func (t *tally) merge(o *tally) {
	for i, w := range o.windows {
		m := t.window(i)
		m.get.merge(&w.get)
		m.put.merge(&w.put)
		m.ok += w.ok
	}
	t.lag.merge(&o.lag)
	t.promote.merge(&o.promote)
	t.attempted += o.attempted
	t.failed += o.failed
	t.sloMiss += o.sloMiss
	t.gets += o.gets
	t.puts += o.puts
	t.userBytes += o.userBytes
}

// client is one caller: its target, its op stream and what it measured.
type client struct {
	g         *loadgen
	tgt       target
	stream    []uint32
	pos       int
	val       []byte
	readsOnly bool
	touched   []bool // restart: keys read since the reopen
	*tally
}

func newClient(g *loadgen, tgt target, stream []uint32) *client {
	return &client{g: g, tgt: tgt, stream: stream, val: make([]byte, valueSize), tally: &tally{}}
}

func (c *client) next() uint32 {
	op := c.stream[c.pos]
	if c.pos++; c.pos == len(c.stream) {
		c.pos = 0
	}
	if c.readsOnly {
		op &^= writeFlag
	}
	return op
}

// do issues one op, checks what came back and records its latency from
// base (the due time in an open loop) or, with base < 0, from the call. It
// returns when the op returned. origin is the start of the measured window
// (slices count from it); origin < 0 records nothing (warm-up).
func (c *client) do(op uint32, base, origin int64) int64 {
	g := c.g
	idx := int(op &^ writeFlag)
	key := g.keys.key(idx)
	opSpan := g.rec.begin(spanOp)
	var t0, t1 int64
	ok := true
	isPut := op&writeFlag != 0
	if isPut {
		seq := g.or.seq.Add(1)
		fillValue(c.val, idx, seq)
		t0 = g.now()
		rt := c.roundtrip()
		err := c.tgt.Put(key, c.val)
		g.rec.end(rt)
		t1 = g.now()
		if err == nil {
			g.or.acked[idx].Store(seq)
		}
		ok = err == nil
	} else {
		want := g.or.acked[idx].Load()
		t0 = g.now()
		rt := c.roundtrip()
		v, err := c.tgt.Get(key)
		g.rec.end(rt)
		t1 = g.now()
		seq, good := checkValue(v, idx)
		ok = err == nil && good && seq >= want && (!g.exact || seq == want)
	}
	g.rec.end(opSpan)
	if origin < 0 {
		return t1
	}
	if base < 0 {
		base = t0
	}
	lat := t1 - base
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.window(int((t1 - origin) / sliceNs))
	c.attempted++
	switch {
	case !ok:
		c.failed++
		c.sloMiss++
	case lat > sloNs:
		c.sloMiss++
	}
	if ok {
		w.ok++
	}
	if isPut {
		w.put.record(lat)
		if ok {
			c.puts++
			c.userBytes += keySize + valueSize
		}
	} else {
		c.gets++
		w.get.record(lat)
		if c.touched != nil && !c.touched[idx] {
			c.touched[idx] = true
			c.promote.record(lat)
		}
	}
	return t1
}

// roundtrip opens the kvnet.roundtrip span on wire workloads of the traced
// run; everywhere else it is a no-op.
func (c *client) roundtrip() uint32 {
	if c.g.rec == nil || !c.g.sp.wire {
		return 0
	}
	return c.g.rec.begin(spanRoundtrip)
}

// closedLoop sends the next op when the previous one returned, until the
// deadline has passed and at least minOps are done; maxOps > 0 stops
// there instead. after, if set, runs between ops with the count done.
func (c *client) closedLoop(origin, deadline int64, minOps, maxOps int, after func(done int)) {
	for done := 0; ; {
		end := c.do(c.next(), -1, origin)
		done++
		if after != nil {
			after(done)
		}
		if maxOps > 0 && done >= maxOps {
			return
		}
		if maxOps == 0 && done >= minOps && end >= deadline {
			return
		}
	}
}

// openLoop is one of the open loop's virtual users: it sends an op for
// every due time the dispatcher hands it, timed from that due time. A user
// still waiting for its previous reply finds its next due times queued, so
// at most len(users) ops are in flight and a stall shows in every op it
// delayed.
func (c *client) openLoop(origin int64, dues <-chan int64) {
	for due := range dues {
		c.do(c.next(), due, origin)
	}
}

// dispatch paces the open loop: op i is due at origin + i/rate and goes to
// user i mod n, whatever the store does. It sleeps in the kernel
// (nanosleep) because a parked Go timer wakes with millisecond granularity,
// which would be most of a loopback round trip; lag records how late each
// due time was handed over.
func (g *loadgen) dispatch(users []chan int64, origin, deadline int64, rate int, lag *lhist) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	step := int64(time.Second) / int64(rate)
	for i := 0; ; i++ {
		due := origin + int64(i)*step
		if due >= deadline {
			break
		}
		if wait := due - g.now(); wait > 0 {
			ts := syscall.NsecToTimespec(wait)
			_ = syscall.Nanosleep(&ts, nil) // an early return only makes this op early: lag records it
		}
		lag.record(g.now() - due)
		users[i%len(users)] <- due
	}
	for _, u := range users {
		close(u)
	}
}

// counters is the part of aria.Stats the benchmark takes deltas of.
type counters struct {
	at      int64 // loadgen clock
	ops     uint64
	stats   aria.Stats
	mallocs uint64
	cpuNs   int64
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func snapshot(g *loadgen, st *stack, ops uint64) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{at: g.now(), ops: ops, stats: st.store.Stats(), mallocs: ms.Mallocs, cpuNs: cpuNs()}
}

// properOut is what one run of a workload in its own posture measured.
type properOut struct {
	e2e       map[string]float64
	diag      map[string]float64
	tailQ     float64 // which percentile the *_p99_us metrics could support
	attempted uint64
	failed    uint64
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// whole returns the slices that lie wholly inside the measured time; a run
// shorter than one slice gets everything pooled into one.
func (t *tally) whole(measured int64) []*window {
	if n := int(measured / sliceNs); n > 0 && n <= len(t.windows) {
		return t.windows[:n]
	}
	pooled := &window{}
	for _, w := range t.windows {
		pooled.get.merge(&w.get)
		pooled.put.merge(&w.put)
		pooled.ok += w.ok
	}
	return []*window{pooled}
}

// latency is one op kind's percentiles over a run: the median over slices
// of each slice's median and of each slice's tail percentile.
type latency struct {
	p50, tail float64
	q         float64 // the tail percentile the samples supported
	n         uint64  // samples in the slices that counted
}

// percentiles summarises one histogram of every slice. A slice counts when
// it has at least 1000 samples, enough for a p99 with ten beyond it; if
// none has, every slice with samples counts and the tail percentile drops
// to the highest the smallest of them supports.
func percentiles(ws []*window, of func(*window) *lhist) latency {
	const enough = 1000
	var hs []*lhist
	for _, w := range ws {
		if h := of(w); h.n >= enough {
			hs = append(hs, h)
		}
	}
	out := latency{q: 0.99}
	if len(hs) == 0 {
		least := uint64(math.MaxUint64)
		for _, w := range ws {
			if h := of(w); h.n > 0 {
				hs = append(hs, h)
				least = min(least, h.n)
			}
		}
		out.q = 0.5
		for _, q := range []float64{0.95, 0.90} {
			if float64(least)*(1-q) >= 10 {
				out.q = q
				break
			}
		}
	}
	var p50s, tails []float64
	for _, h := range hs {
		out.n += h.n
		p50s = append(p50s, h.quantile(0.5))
		tails = append(tails, h.quantile(out.q))
	}
	out.p50, out.tail = median(p50s), median(tails)
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setUp builds the workload's stack — several times with repeat, see
// minSetups — and returns the last one built with every set-up's seconds.
func (e *env) setUp(sp spec, seed int64, keys keySlab, repeat bool) (*stack, []float64, error) {
	var took []float64
	var spent time.Duration
	var st *stack
	for i := 0; i == 0 || repeat && (i < minSetups || i < maxSetups && spent < setupBudget); i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = e.open(sp, sp.full(), uint64(seed), keys); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		spent += d
		took = append(took, d.Seconds())
	}
	return st, took, nil
}

// runProper runs the workload the way its spec says — its clients, its
// loop discipline, its antagonist — for the given time. With repeatSetup
// the stack is set up several times first (see minSetups); without, once.
func (e *env) runProper(sp spec, seed int64, seconds float64, repeatSetup, sampleGauges bool) (*properOut, error) {
	if sp.restart {
		sp.prefixOps = sp.phaseOps // the simulated clock restarts at the reopen
	}
	keys := newKeySlab(sp.keys)
	st, setupS, err := e.setUp(sp, seed, keys, repeatSetup)
	if err != nil {
		return nil, err
	}
	defer st.close()

	g := &loadgen{sp: sp, keys: keys, or: newOracle(sp.keys), exact: sp.rate == 0 && sp.clients == 1, epoch: time.Now()}
	tgt, err := st.serve(e, nil)
	if err != nil {
		return nil, err
	}
	nClients := sp.clients
	streams := make([][]uint32, nClients)
	length := sp.streamOps()
	if sp.rate > 0 {
		// A virtual user sends rate/clients ops a second; its stream
		// never needs to cycle.
		length = int(seconds*float64(sp.rate))/nClients + sp.warmOps + 16
	}
	for c := range streams {
		if streams[c], err = genStream(sp.keys, sp.reads, seed*1000+int64(c), c, nClients, length); err != nil {
			return nil, err
		}
	}
	clients := make([]*client, nClients)
	for c := range clients {
		clients[c] = newClient(g, tgt, streams[c])
		if sp.rate > 0 {
			clients[c].tally = clients[0].tally // 64 users, one tally
		}
	}
	// Warm-up: the first client alone, untimed, so caches fill and lazy
	// set-up finishes before the window.
	for i := 0; i < sp.warmOps; i++ {
		clients[0].do(clients[0].next(), -1, -1)
	}
	runtime.GC()

	out := &properOut{e2e: map[string]float64{}, diag: map[string]float64{}}
	stopGauges := func() {}
	if sampleGauges && sp.wire {
		stopGauges = watchGauges(st, out.diag)
	}
	var ckpts []float64 // seconds per checkpoint inside the window
	ck := st.checkpointer()
	checkpoint := func() error {
		t0 := time.Now()
		err := ck.Checkpoint()
		ckpts = append(ckpts, time.Since(t0).Seconds())
		return err
	}
	var ckptErr error

	windowNs := int64(seconds * float64(time.Second))
	before := snapshot(g, st, 0)
	prefix := before
	havePrefix := false
	origin := before.at
	deadline := origin + windowNs
	total := &tally{}
	var measured int64 // window wall time, restart gap excluded

	switch {
	case sp.rate > 0:
		// Open loop, with the checkpoint antagonist on its own goroutine.
		stop := make(chan struct{})
		var bg sync.WaitGroup
		if sp.ckptEvery > 0 {
			bg.Add(1)
			go func() {
				defer bg.Done()
				// Checkpoint k starts at origin + (k + 1/2) periods, in the
				// middle of slice k, however long the previous one took.
				for k := int64(0); ; k++ {
					at := origin + int64(sp.ckptEvery)/2 + k*int64(sp.ckptEvery)
					if at >= deadline {
						return
					}
					select {
					case <-stop:
						return
					case <-time.After(time.Duration(at - g.now())):
					}
					if err := checkpoint(); err != nil && ckptErr == nil {
						ckptErr = err
					}
				}
			}()
		}
		// A user's channel holds every due time it will ever get, so the
		// dispatcher never waits for a user.
		users := make([]chan int64, nClients)
		for u := range users {
			users[u] = make(chan int64, int(seconds*float64(sp.rate))/nClients+1)
		}
		var wg sync.WaitGroup
		for u, c := range clients {
			wg.Add(1)
			go func(c *client, dues <-chan int64) {
				defer wg.Done()
				c.openLoop(origin, dues)
			}(c, users[u])
		}
		g.dispatch(users, origin, deadline, sp.rate, &total.lag)
		wg.Wait()
		close(stop)
		bg.Wait()
		measured = g.now() - origin
	case nClients > 1:
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.closedLoop(origin, deadline, 0, 0, nil)
			}(c)
		}
		wg.Wait()
		measured = g.now() - origin
	default:
		c := clients[0]
		after := func(done int) {
			if sp.ckptOps > 0 && done%sp.ckptOps == 0 {
				if err := checkpoint(); err != nil && ckptErr == nil {
					ckptErr = err
				}
			}
			if done == sp.prefixOps {
				prefix = snapshot(g, st, uint64(done))
				havePrefix = true
			}
		}
		if !sp.restart {
			c.closedLoop(origin, deadline, sp.prefixOps, 0, after)
			measured = g.now() - origin
			break
		}
		// Phase A: a fixed op count, so what the checkpoints demote and
		// write repeats exactly.
		c.closedLoop(origin, 0, 0, sp.phaseOps, after)
		phaseA := g.now() - origin
		rs, err := e.restart(g, st, c)
		if err != nil {
			return nil, err
		}
		for k, v := range rs {
			out.diag[k] = v
		}
		// Phase B: reads of the recovered store for the rest of the
		// window, then every key once against the oracle.
		c.readsOnly = true
		c.touched = make([]bool, sp.keys)
		resume := g.now()
		shift := resume - phaseA // slices continue where phase A stopped
		left := max(windowNs-phaseA, windowNs/4)
		c.closedLoop(shift, resume+left, 0, 0, nil)
		measured = g.now() - shift
		for i := 0; i < sp.keys; i++ {
			c.do(uint32(i), -1, shift)
		}
		out.diag["cold.promote_get_us_p50"] = c.promote.quantile(0.5) / 1e3
	}
	stopGauges()
	if ckptErr != nil {
		return nil, fmt.Errorf("checkpoint: %w", ckptErr)
	}
	for i, c := range clients {
		if i == 0 || c.tally != clients[0].tally {
			total.merge(c.tally)
		}
	}
	cpuEnd := cpuNs()
	if !havePrefix {
		// Several clients: no op count is reached at a fixed point of the
		// run, so the simulated clock is read over the whole window.
		prefix = snapshot(g, st, total.attempted)
	}

	okOps := float64(total.attempted - total.failed)
	out.attempted, out.failed = total.attempted, total.failed
	out.e2e["setup_s"] = median(setupS)
	ws := total.whole(measured)
	out.e2e["throughput_ops_s"] = safeDiv(okOps, float64(measured)/1e9)
	if sp.rate == 0 && measured >= sliceNs {
		// Closed loop: the median slice. (The open loop completes what
		// the schedule sends: its slices all read rate x 1 s exactly.)
		var rates []float64
		for _, w := range ws {
			rates = append(rates, float64(w.ok)/(float64(sliceNs)/1e9))
		}
		out.e2e["throughput_ops_s"] = median(rates)
	}
	get := percentiles(ws, func(w *window) *lhist { return &w.get })
	put := percentiles(ws, func(w *window) *lhist { return &w.put })
	out.e2e["get_p50_us"], out.e2e["get_p99_us"] = get.p50/1e3, get.tail/1e3
	out.e2e["put_p50_us"], out.e2e["put_p99_us"] = put.p50/1e3, put.tail/1e3
	out.tailQ = min(get.q, put.q)
	simOps := float64(prefix.ops - before.ops)
	simCycles := float64(prefix.stats.SimCycles - before.stats.SimCycles)
	out.e2e["sim_kops_s"] = safeDiv(simOps, simCycles/simHz) / 1e3
	out.e2e["cpu_us_per_op"] = safeDiv(float64(cpuEnd-before.cpuNs)/1e3, okOps)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.e2e["heap_mb"] = float64(ms.HeapInuse) / (1 << 20)

	// Diagnostics: printed with every run, and the traced pass takes its
	// loadgen, kvnet-gauge and checkpoint rows from them.
	d := out.diag
	d["loadgen.get_samples"] = float64(get.n)
	d["loadgen.put_samples"] = float64(put.n)
	d["loadgen.error_rate"] = safeDiv(float64(total.failed), float64(total.attempted))
	d["loadgen.gen_lag_p99_us"] = total.lag.quantile(0.99) / 1e3
	d["loadgen.gen_lag_p90_us"] = total.lag.quantile(0.9) / 1e3
	d["loadgen.slo_miss_rate"] = safeDiv(float64(total.sloMiss), float64(total.attempted))
	d["loadgen.window_s"] = float64(measured) / 1e9
	if len(ckpts) > 0 {
		sum := 0.0
		for _, s := range ckpts {
			sum += s
		}
		d["durable.ckpt_ms_p50"] = median(ckpts) * 1e3
		d["durable.ckpt_ms_max"] = slices.Max(ckpts) * 1e3
		d["durable.ckpt_stall_share"] = safeDiv(sum, float64(measured)/1e9)
	}
	snap := st.reg.Snapshot()
	d["kvnet.retries"], _ = snap.Value("kvnet_client_retries_total", nil)
	d["kvnet.redials"], _ = snap.Value("kvnet_client_redials_total", nil)
	d["shard.imbalance"] = imbalance(snap)
	return out, nil
}

// watchGauges samples the server's queue gauges every millisecond until the
// returned stop function is called, which writes their maxima into diag.
// Only the traced pass asks for it: the sampler is a third busy goroutine.
func watchGauges(st *stack, diag map[string]float64) (stop func()) {
	inflight := st.reg.Gauge("kvnet_inflight", "", nil)
	queued := st.reg.Gauge("kvnet_pool_queued", "", nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	var maxInflight, maxQueued float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				maxInflight = max(maxInflight, inflight.Load())
				maxQueued = max(maxQueued, queued.Load())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		diag["kvnet.inflight_max"], diag["kvnet.pool_queued_max"] = maxInflight, maxQueued
	}
}

// imbalance is the busiest shard's aria_ops_total over the mean.
func imbalance(snap obs.Snapshot) float64 {
	per := map[string]float64{}
	for _, sp := range snap.Series {
		if sp.Name == "aria_ops_total" {
			per[sp.Labels["shard"]] += sp.Value
		}
	}
	sum, max := 0.0, 0.0
	for _, v := range per {
		sum += v
		if v > max {
			max = v
		}
	}
	return safeDiv(max*float64(len(per)), sum)
}

// restart takes the final checkpoint, closes the store, measures what it
// left on disk, and reopens it. The caller then reads through c, which
// restart points at the recovered store.
func (e *env) restart(g *loadgen, st *stack, c *client) (map[string]float64, error) {
	if err := st.checkpointer().Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	live := float64(st.store.Stats().Keys) * (keySize + valueSize)
	st.stopServing()
	if err := st.closeStore(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	disk, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	took, err := st.reopen()
	if err != nil {
		return nil, err
	}
	tgt, err := st.serve(e, g.rec)
	if err != nil {
		return nil, err
	}
	c.tgt = tgt
	rs := st.store.Stats()
	return map[string]float64{
		"durable.recover_s":                took.Seconds(),
		"durable.recover_records_per_s":    safeDiv(float64(rs.RecoveredRecords), took.Seconds()),
		"durable.disk_bytes_per_user_byte": safeDiv(float64(disk), live),
	}, nil
}
