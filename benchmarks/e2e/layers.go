package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/compress"
	"github.com/ariakv/aria/internal/core"
	"github.com/ariakv/aria/internal/merkle"
	"github.com/ariakv/aria/internal/seal"
	"github.com/ariakv/aria/internal/seccrypto"
	"github.com/ariakv/aria/internal/securecache"
	"github.com/ariakv/aria/internal/segment"
	"github.com/ariakv/aria/internal/sgx"
	"github.com/ariakv/aria/internal/shard"
	"github.com/ariakv/aria/wal"
)

// tracedOut is the per-layer side of one workload.
type tracedOut struct {
	layer     map[string]float64
	attempted uint64
	failed    uint64
	traceFile string
}

// runTraced produces every per-layer metric of one workload from three
// sources: spans and counter deltas of the workload run with one
// closed-loop client, the peel (the same op stream replayed against the
// stack opened at increasing depth) and direct loops over the leaf
// layers' exported functions. A workload whose own posture is not one
// closed-loop client first runs a short pass in that posture, for the rows
// only it can give.
func (e *env) runTraced(sp spec, seed int64, seconds float64, outDir string) (*tracedOut, error) {
	out := &tracedOut{layer: map[string]float64{}}
	for _, m := range perLayer {
		out.layer[m.name] = 0
	}
	if sp.clients > 1 {
		p, err := e.runProper(sp, seed, seconds*0.3, false, true)
		if err != nil {
			return nil, err
		}
		for k, v := range p.diag {
			if _, ok := out.layer[k]; ok {
				out.layer[k] = v
			}
		}
		out.attempted, out.failed = p.attempted, p.failed
	}

	keys := newKeySlab(sp.keys)
	stream, err := genStream(sp.keys, sp.reads, seed*1000, 0, 1, sp.streamOps())
	if err != nil {
		return nil, err
	}
	single, err := e.tracedPass(sp, seed, keys, stream, out)
	if err != nil {
		return nil, err
	}
	peel, err := e.peel(sp, seed, keys, stream, out.layer)
	if err != nil {
		return nil, err
	}
	l := out.layer
	l["stack.allocs_per_op"] = peel.allocs
	l["stack.alloc_bytes_per_op"] = peel.bytes
	l["stack.unexplained_ns_per_op"] = single.storeNsPerOp - peel.ns
	if sp.wire {
		l["kvnet.allocs_per_op"] = single.allocsPerOp - peel.allocs
	}
	if err := e.direct(l, uint64(seed), max(sp.div, 1)); err != nil {
		return nil, err
	}
	if outDir != "" {
		out.traceFile = filepath.Join(outDir, "trace_"+sp.name+".jsonl")
		if err := writeSpans(out.traceFile, single.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type singleOut struct {
	storeNsPerOp float64 // mean time inside the store per op, timed at the decorator
	allocsPerOp  float64 // whole process, untraced half
	spans        []span
}

// tracedPass runs the workload with one closed-loop client for 2 x
// traceOps ops — the first half with the span recorder off, the second
// with it on — checkpointing from the client every ckptOps ops so nothing
// overlaps and every count repeats exactly.
func (e *env) tracedPass(sp spec, seed int64, keys keySlab, stream []uint32, out *tracedOut) (*singleOut, error) {
	l := out.layer
	st, err := e.open(sp, sp.full(), uint64(seed), keys)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rec := newRecorder(4 * sp.traceOps)
	g := &loadgen{sp: sp, keys: keys, or: newOracle(sp.keys), exact: true, rec: rec, epoch: time.Now()}
	tgt, err := st.serve(e, rec)
	if err != nil {
		return nil, err
	}
	c := newClient(g, tgt, stream)
	for i := 0; i < sp.warmOps; i++ {
		c.do(c.next(), -1, -1)
	}
	// Checkpoints run between ops, from the client. Their time and their
	// allocations are taken out of both halves, which compare op cost.
	var ckptErr error
	var ckNs int64
	var ckMallocs uint64
	ck := st.checkpointer()
	after := func(done int) {
		if !sp.durable || done%(sp.traceOps/3) != 0 {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := g.now()
		if err := ck.Checkpoint(); err != nil && ckptErr == nil {
			ckptErr = err
		}
		ckNs += g.now() - t0
		runtime.ReadMemStats(&m1)
		ckMallocs += m1.Mallocs - m0.Mallocs
	}
	runtime.GC()
	regBefore := st.reg.Snapshot()
	before := snapshot(g, st, 0)
	c.closedLoop(before.at, 0, 0, sp.traceOps, after)
	mid := snapshot(g, st, uint64(sp.traceOps))
	midCkNs, midCkMallocs := ckNs, ckMallocs
	rec.on, st.tap.timed = true, true
	c.closedLoop(before.at, 0, 0, sp.traceOps, after)
	rec.on, st.tap.timed = false, false
	end := snapshot(g, st, uint64(2*sp.traceOps))
	regAfter := st.reg.Snapshot()
	if ckptErr != nil {
		return nil, fmt.Errorf("checkpoint: %w", ckptErr)
	}

	n := float64(sp.traceOps)
	untraced := float64(mid.at - before.at - midCkNs)
	traced := float64(end.at - mid.at - (ckNs - midCkNs))
	l["loadgen.trace_overhead_pct"] = 100 * safeDiv(traced-untraced, untraced)
	res := &singleOut{
		storeNsPerOp: safeDiv(float64(st.tap.getNs.Load()+st.tap.putNs.Load()), float64(st.tap.timedGets.Load()+st.tap.timedPuts.Load())),
		allocsPerOp:  float64(mid.mallocs-before.mallocs-midCkMallocs) / n,
		spans:        rec.spans,
	}
	l["stack.ns_per_get"] = safeDiv(float64(st.tap.getNs.Load()), float64(st.tap.timedGets.Load()))
	l["stack.ns_per_put"] = safeDiv(float64(st.tap.putNs.Load()), float64(st.tap.timedPuts.Load()))

	// Counter deltas over both halves: a fixed op count on one client.
	ops := 2 * n
	a, b := before.stats, end.stats
	puts := float64(c.puts)
	gets := float64(c.gets)
	d := func(x, y uint64) float64 { return float64(y - x) }
	l["securecache.hit_ratio"] = safeDiv(d(a.CacheHits, b.CacheHits), d(a.CacheHits, b.CacheHits)+d(a.CacheMisses, b.CacheMisses))
	l["seccrypto.macs_per_op"] = d(a.MACs, b.MACs) / ops
	l["seccrypto.ctr_ops_per_op"] = d(a.CTROps, b.CTROps) / ops
	l["sgx.sim_cycles_per_op"] = d(a.SimCycles, b.SimCycles) / ops
	l["sgx.page_swaps_per_kop"] = 1e3 * d(a.PageSwaps, b.PageSwaps) / ops
	l["sgx.ecalls_per_op"] = d(a.Ecalls, b.Ecalls) / ops
	l["sgx.ocalls_per_op"] = d(a.Ocalls, b.Ocalls) / ops
	l["wal.fsyncs_per_put"] = safeDiv(d(a.WALFsyncs, b.WALFsyncs), puts)
	l["wal.records_per_put"] = safeDiv(d(a.WALRecords, b.WALRecords), puts)
	l["wal.bytes_per_user_byte"] = safeDiv(d(a.WALBytes, b.WALBytes), float64(c.userBytes))
	l["cold.hit_ratio"] = safeDiv(d(a.ColdHits, b.ColdHits), gets)
	l["cold.keys_share"] = safeDiv(float64(b.ColdKeys), float64(b.Keys))
	l["compress.ratio"] = safeDiv(float64(b.CompBytes), float64(b.CompRawBytes))
	l["segment.count"] = float64(b.Segments)
	l["segment.bytes"] = float64(b.SegmentBytes)
	l["segment.compactions"] = float64(b.Compactions)

	// Spans of the traced half.
	tot := rec.totals()
	if sp.wire {
		rt, call := tot[spanRoundtrip], tot[spanStoreCall]
		l["kvnet.self_us_per_op"] = (rt.mean() - safeDiv(float64(call.total), float64(rt.n))) / 1e3
		var srvNs, srvN float64
		for _, op := range []string{"get", "put"} {
			ha, _ := regBefore.Histogram("kvnet_request_duration_ns", map[string]string{"op": op})
			hb, _ := regAfter.Histogram("kvnet_request_duration_ns", map[string]string{"op": op})
			srvNs += float64(hb.Sum - ha.Sum)
			srvN += float64(hb.Count - ha.Count)
		}
		l["kvnet.server_us_per_op"] = safeDiv(srvNs, srvN) / 1e3
		l["kvnet.client_socket_us_per_op"] = rt.mean()/1e3 - l["kvnet.server_us_per_op"]
		var wire float64
		for _, name := range []string{"kvnet_bytes_read_total", "kvnet_bytes_written_total"} {
			va, _ := regBefore.Value(name, nil)
			vb, _ := regAfter.Value(name, nil)
			wire += vb - va
		}
		l["kvnet.bytes_per_op"] = wire / ops
		vb, _ := regAfter.Value("kvnet_client_retries_total", nil)
		l["kvnet.retries"] += vb
		vb, _ = regAfter.Value("kvnet_client_redials_total", nil)
		l["kvnet.redials"] += vb
	}
	if ck := tot[spanCheckpoint]; ck.n > 0 && sp.clients == 1 {
		// The traced half's own checkpoints; a multi-client workload's
		// checkpoint rows come from the pass in its own posture.
		var each []float64
		for _, s := range rec.spans {
			if s.Name == spanCheckpoint {
				each = append(each, float64(s.EndNs-s.StartNs)/1e6)
			}
		}
		l["durable.ckpt_ms_p50"] = median(each)
		l["durable.ckpt_ms_max"] = slices.Max(each)
		l["durable.ckpt_stall_share"] = safeDiv(float64(ck.total), float64(end.at-mid.at))
	}
	if sp.clients == 1 {
		l["shard.imbalance"] = imbalance(regAfter)
	}

	// A durable stack ends with the clean restart: final checkpoint,
	// close, reopen, every key read back against the oracle.
	if sp.durable {
		rs, err := e.restart(g, st, c)
		if err != nil {
			return nil, err
		}
		for k, v := range rs {
			l[k] = v
		}
		c.touched = make([]bool, sp.keys)
		origin := g.now()
		for i := 0; i < sp.keys; i++ {
			c.do(uint32(i), -1, origin)
		}
		if sp.cold {
			l["cold.promote_get_us_p50"] = c.promote.quantile(0.5) / 1e3
		}
	}
	out.attempted += c.attempted
	out.failed += c.failed
	l["loadgen.error_rate"] = safeDiv(float64(out.failed), float64(out.attempted))
	return res, nil
}

// cost is what one loop over one level of the peel cost per op.
type cost struct {
	ns, allocs, bytes, cycles float64
}

func (a cost) minus(b cost) cost {
	return cost{a.ns - b.ns, a.allocs - b.allocs, a.bytes - b.bytes, a.cycles - b.cycles}
}

// level is one depth of the peel: the mixed stream, then reads only, then
// writes only.
type level struct {
	mix, get, put cost
}

// measure runs n ops of the stream (kind 0: as generated, 1: reads only,
// 2: writes only) against tgt and returns the per-op cost; cycles reads
// the simulated clock.
func measure(tgt target, cycles func() uint64, keys keySlab, stream []uint32, pos *int, n, kind int, seq *uint64) (cost, error) {
	val := make([]byte, valueSize)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := cycles()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op := stream[*pos]
		if *pos++; *pos == len(stream) {
			*pos = 0
		}
		idx := int(op &^ writeFlag)
		if kind == 2 || (kind == 0 && op&writeFlag != 0) {
			*seq++
			fillValue(val, idx, *seq)
			if err := tgt.Put(keys.key(idx), val); err != nil {
				return cost{}, err
			}
		} else if v, err := tgt.Get(keys.key(idx)); err != nil {
			return cost{}, err
		} else if _, ok := checkValue(v, idx); !ok {
			return cost{}, fmt.Errorf("peel: corrupt value for key %d", idx)
		}
	}
	took := time.Since(t0)
	c1 := cycles()
	runtime.ReadMemStats(&ms1)
	f := float64(n)
	return cost{float64(took.Nanoseconds()) / f, float64(ms1.Mallocs-ms0.Mallocs) / f, float64(ms1.TotalAlloc-ms0.TotalAlloc) / f, float64(c1-c0) / f}, nil
}

// peel replays the single-client stream against L0 (the bare engine on a
// bare enclave, with the budgets aria.Open would pick) and L1..full
// (aria.Open at increasing depth). A layer's row is the difference of
// adjacent levels. It returns the deepest level's mixed-stream cost: the
// sum the rows reach.
func (e *env) peel(sp spec, seed int64, keys keySlab, stream []uint32, l map[string]float64) (cost, error) {
	n := sp.traceOps
	run := func(tgt target, cycles func() uint64, ckpt func() error) (level, error) {
		var lv level
		var err error
		pos, seq := 0, uint64(0)
		if _, err = measure(tgt, cycles, keys, stream, &pos, n/4, 0, &seq); err != nil { // warm-up
			return lv, err
		}
		if ckpt != nil {
			// Durable levels checkpoint after the warm-up, so the cold
			// tier has demoted what the warm-up left idle.
			if err = ckpt(); err != nil {
				return lv, err
			}
		}
		runtime.GC()
		if lv.mix, err = measure(tgt, cycles, keys, stream, &pos, n, 0, &seq); err != nil {
			return lv, err
		}
		if lv.get, err = measure(tgt, cycles, keys, stream, &pos, n/2, 1, &seq); err != nil {
			return lv, err
		}
		lv.put, err = measure(tgt, cycles, keys, stream, &pos, n/4, 2, &seq)
		return lv, err
	}

	// L0: core.New on sgx.New.
	enc := sgx.New(sgx.Config{EPCBytes: sp.epc, MeasureOff: true})
	pin := 4 << 20
	if pin > sp.epc/8 {
		pin = sp.epc / 8
	}
	co := core.Options{ExpectedKeys: sp.keys, CacheBytes: sp.epc / 10 * 8, PinBudgetBytes: pin, StopSwap: true, Seed: uint64(seed)}
	if sp.scheme == aria.AriaTree {
		co.Index = core.BTreeIndex
	}
	eng, err := core.New(enc, co)
	if err != nil {
		return cost{}, err
	}
	val := make([]byte, valueSize)
	for i := 0; i < sp.keys; i++ {
		fillValue(val, i, 0)
		if err := eng.Put(keys.key(i), val); err != nil {
			return cost{}, fmt.Errorf("peel L0 load: %w", err)
		}
	}
	enc.SetMeasuring(true)
	e0 := eng.Stats()
	l0, err := run(eng, enc.Cycles, nil)
	if err != nil {
		return cost{}, fmt.Errorf("peel L0: %w", err)
	}
	e1 := eng.Stats()
	ops := float64(e1.Gets + e1.Puts - e0.Gets - e0.Puts)
	d := func(x, y uint64) float64 { return float64(y - x) }
	ev := d(e0.Cache.Evictions, e1.Cache.Evictions)
	l["securecache.evictions_per_kop"] = 1e3 * ev / ops
	l["securecache.clean_discard_share"] = safeDiv(d(e0.Cache.CleanDiscards, e1.Cache.CleanDiscards), ev)
	l["securecache.verifications_per_op"] = d(e0.Cache.Verifications, e1.Cache.Verifications) / ops
	l["seccrypto.mac_bytes_per_op"] = d(e0.SGX.MACBytes, e1.SGX.MACBytes) / ops
	l["sgx.enclave_lines_per_op"] = d(e0.SGX.EnclaveLines, e1.SGX.EnclaveLines) / ops
	l["sgx.untrusted_lines_per_op"] = d(e0.SGX.UntrustedLines, e1.SGX.UntrustedLines) / ops
	l["core.ns_per_get"] = l0.get.ns
	l["core.ns_per_put"] = l0.put.ns
	l["core.allocs_per_get"] = l0.get.allocs
	l["core.alloc_bytes_per_get"] = l0.get.bytes
	l["sgx.host_ns_per_sim_kcycle"] = safeDiv(l0.get.ns, l0.get.cycles/1e3)
	eng, enc = nil, nil
	runtime.GC()

	prev := l0
	for dp := depthPlain; dp <= sp.full(); dp++ {
		st, err := e.open(sp, dp, uint64(seed), keys)
		if err != nil {
			return cost{}, err
		}
		var ckpt func() error
		if dp >= depthDurable {
			ckpt = st.store.(aria.Durable).Checkpoint
		}
		store := st.store
		lv, err := run(store, func() uint64 { return store.Stats().SimCycles }, ckpt)
		st.close()
		runtime.GC()
		if err != nil {
			return cost{}, fmt.Errorf("peel L%d: %w", dp, err)
		}
		mix, get, put := lv.mix.minus(prev.mix), lv.get.minus(prev.get), lv.put.minus(prev.put)
		switch dp {
		case depthPlain:
			l["semantics.ns_per_get"], l["semantics.ns_per_put"] = get.ns, put.ns
			l["semantics.allocs_per_op"], l["semantics.sim_cycles_per_op"] = mix.allocs, mix.cycles
		case depthMetrics:
			l["metrics.ns_per_op"], l["metrics.allocs_per_op"] = mix.ns, mix.allocs
		case depthShards:
			l["shard.ns_per_op"], l["shard.allocs_per_op"] = mix.ns, mix.allocs
		case depthDurable:
			l["durable.ns_per_put"], l["durable.ns_per_get"] = put.ns, get.ns
			l["durable.allocs_per_put"], l["durable.sim_cycles_per_put"] = put.allocs, put.cycles
		case depthCold:
			l["cold.ns_per_get"] = get.ns
		}
		prev = lv
	}
	return prev.mix, nil
}

// timeLoop returns the median over five rounds of f's time per iteration.
func timeLoop(n int, f func(i int)) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(rounds)
}

// direct times fixed-input loops over the leaf layers' exported functions.
// They do not depend on the workload; every traced run repeats them so
// every run reports every row. div shortens them on a scaled-down run.
func (e *env) direct(l map[string]float64, seed uint64, div int) error {
	loop := func(n int, f func(i int)) float64 { return timeLoop(max(n/div, 50), f) }
	keys := newKeySlab(4096)
	r := shard.NewRouter(2)
	sink := 0
	l["shard.pick_ns"] = loop(200_000, func(i int) { sink += r.Pick(keys.key(i & 4095)) })

	cip, err := seccrypto.New([]byte("e2e-bench-enckey"), []byte("e2e-bench-mackey"))
	if err != nil {
		return err
	}
	buf := make([]byte, 160)
	fillValue(buf[:valueSize], 1, 1)
	var mac [16]byte
	l["seccrypto.mac_ns_64B"] = loop(100_000, func(int) { cip.MAC(&mac, buf[:64]) })
	dst := make([]byte, 128)
	ctr := seccrypto.CounterBlock(1, 2)
	l["seccrypto.ctr_ns_128B"] = loop(100_000, func(int) { cip.CTRCrypt(&ctr, dst, buf[:128]) })

	sealer := seal.New(seed)
	chain := sealer.ChainInit("e2e", 1)
	var sealed []byte
	l["seal.seal_ns_160B"] = loop(50_000, func(i int) { sealed, _ = sealer.Seal(uint64(i), 7, chain, buf) })
	sealed, _ = sealer.Seal(1, 7, chain, buf)
	var openErr error
	l["seal.open_ns_160B"] = loop(50_000, func(int) {
		if _, _, _, err := sealer.Open(7, chain, sealed); err != nil {
			openErr = err
		}
	})
	if openErr != nil {
		return fmt.Errorf("seal.Open: %w", openErr)
	}

	enc := sgx.New(sgx.Config{EPCBytes: 16 << 20})
	p := enc.EAlloc(1<<20, sgx.CacheLine)
	l["sgx.etouch_ns"] = loop(200_000, func(i int) { enc.ETouch(p+sgx.EPtr((i&4095)*sgx.CacheLine), sgx.CacheLine) })
	tree, err := merkle.New(enc, cip, merkle.Config{Counters: 1 << 15, Arity: 8, InitSeed: seed})
	if err != nil {
		return err
	}
	node := make([]byte, tree.NodeSize())
	l["merkle.node_mac_ns"] = loop(100_000, func(i int) { tree.NodeMAC(&mac, node, 0, i&1023) })
	cache, err := securecache.New(enc, tree.NodeSize(), securecache.Config{CapacityBytes: 4 << 20, CleanDiscard: true})
	if err != nil {
		return err
	}
	if err := cache.AttachTree(tree); err != nil {
		return err
	}
	var cacheErr error
	hit := func(i int) {
		if _, err := cache.CounterGet(tree.ID(), i&1023); err != nil {
			cacheErr = err
		}
	}
	for i := 0; i < 1024; i++ {
		hit(i)
	}
	l["securecache.counter_get_hit_ns"] = loop(200_000, hit)
	if cacheErr != nil {
		return fmt.Errorf("securecache.CounterGet: %w", cacheErr)
	}

	// compress and segment: the benchmark's own value corpus.
	vals := make([][]byte, 10_000)
	for i := range vals {
		vals[i] = make([]byte, valueSize)
		fillValue(vals[i], i, uint64(i))
	}
	t0 := time.Now()
	dict := compress.Train(vals[:1024])
	l["compress.train_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	var comp []byte
	l["compress.compress_ns_128B"] = loop(20_000, func(i int) { comp = dict.Compress(comp[:0], vals[i%len(vals)]) })
	comp = dict.Compress(nil, vals[0])
	var compErr error
	l["compress.decompress_ns_128B"] = loop(20_000, func(int) {
		if _, err := dict.Decompress(comp, valueSize); err != nil {
			compErr = err
		}
	})
	if compErr != nil {
		return fmt.Errorf("compress.Decompress: %w", compErr)
	}

	if err := os.MkdirAll(e.dataRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.dataRoot, "direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	big := newKeySlab(len(vals))
	pairs := make([]segment.Pair, len(vals))
	for i := range pairs {
		pairs[i] = segment.Pair{Key: big.key(i), Value: vals[i]}
	}
	t0 = time.Now()
	meta, err := segment.Write(dir, sealer, 1, pairs)
	if err != nil {
		return err
	}
	l["segment.write_ms_10k"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	t0 = time.Now()
	if _, err := segment.Read(filepath.Join(dir, meta.Name), sealer, func(segment.Pair) error { return nil }); err != nil {
		return err
	}
	l["segment.read_ms_10k"] = float64(time.Since(t0).Nanoseconds()) / 1e6

	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sealer: sealer, Fsync: wal.FsyncNever})
	if err != nil {
		return err
	}
	defer log.Close()
	if _, err := log.Recover(0, func(uint64, []byte) error { return nil }); err != nil {
		return err
	}
	group := make([][]byte, 64)
	for i := range group {
		group[i] = buf
	}
	var walErr error
	appendN := func(k int) func(int) {
		return func(int) {
			if _, err := log.Append(group[:k]...); err != nil {
				walErr = err
			}
		}
	}
	l["wal.append_ns_1"] = loop(400, appendN(1))
	l["wal.append_ns_64"] = loop(100, appendN(64))
	if walErr != nil {
		return fmt.Errorf("wal.Append: %w", walErr)
	}
	_ = sink
	return nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
