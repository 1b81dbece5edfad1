package main

import (
	"time"

	"github.com/ariakv/aria"
)

// spec is one named workload. Sizes are the full-scale ones; -scale divides
// keys and the fixed op counts, never the EPC.
type spec struct {
	name   string
	why    string
	scheme aria.Scheme
	keys   int
	epc    int
	reads  float64 // share of Gets
	wire   bool    // through kvnet on loopback; otherwise direct Store calls
	// clients is the number of closed-loop callers, or, with rate set, the
	// number of open-loop virtual users (the in-flight window).
	clients int
	rate    int // open loop: ops per second across all users; 0 = closed loop
	durable bool
	cold    bool
	// ckptEvery is the checkpoint antagonist's period (a side goroutine).
	ckptEvery time.Duration
	// ckptOps triggers a checkpoint from the client itself every that many
	// ops, so demotions, segments and compactions repeat exactly.
	ckptOps int
	// restart closes the store after phaseOps ops, reopens it, reads every
	// key back against the oracle and spends the rest of the window on
	// reads of the recovered store.
	restart  bool
	phaseOps int
	// prefixOps is the fixed op count whose simulated-clock delta gives
	// sim_kops_s on single-client workloads, so the paper's metric does not
	// depend on how many ops the host fits into the window.
	prefixOps int
	warmOps   int // untimed ops before the window (caches fill)
	traceOps  int // ops of the traced single-client pass and of each peel level
	div       int // what scaled divided by (0 or 1: full scale); the direct loops shrink by it too
}

// sloNs is the fixed latency limit of the open-loop workload: the share of
// ops slower than this from their due time is loadgen.slo_miss_rate.
const sloNs = 5_000_000

var specs = []spec{
	{
		name: "wire_b_hot", why: "kvnet loopback, 2 closed-loop clients on 1 connection, YCSB-B on a cache-resident keyspace: kvnet does ~90% of the work, the engine almost none",
		scheme: aria.AriaHash, keys: 200_000, epc: 8 << 20, reads: 0.95, wire: true, clients: 2,
		warmOps: 20_000, traceOps: 40_000,
	},
	{
		name: "store_b_big", why: "direct Store calls, 1 client, YCSB-B with the counter area far larger than the Secure Cache: the paper's regime, engine+securecache+merkle+sgx do the work, kvnet none",
		scheme: aria.AriaHash, keys: 500_000, epc: 4 << 20, reads: 0.95, clients: 1,
		prefixOps: 1_000_000, warmOps: 100_000, traceOps: 100_000,
	},
	{
		name: "store_a_tree", why: "direct Store calls, 1 client, YCSB-A on the B-tree index with encrypted nodes: a hash-path or read-path gain that costs the tree or the write path shows here",
		scheme: aria.AriaTree, keys: 100_000, epc: 4 << 20, reads: 0.5, clients: 1,
		prefixOps: 100_000, warmOps: 10_000, traceOps: 30_000,
	},
	{
		name: "wire_a_ckpt_open", why: "kvnet loopback, open loop at 4000 ops/s timed from due time, durable YCSB-A with a checkpoint every second inside the window: the stop-the-world checkpoint stall a closed loop would hide",
		scheme: aria.AriaHash, keys: 50_000, epc: 8 << 20, reads: 0.5, wire: true, clients: 64, rate: 4000,
		durable: true, ckptEvery: time.Second,
		warmOps: 5_000, traceOps: 40_000,
	},
	{
		name: "cold_restart", why: "direct Store calls on a durable cold-tier store: op-count-triggered checkpoints, then close, reopen, read every key back and read the all-cold store: cold.go+compress+segment+recovery do the work",
		scheme: aria.AriaHash, keys: 100_000, epc: 8 << 20, reads: 0.95, clients: 1,
		durable: true, cold: true, ckptOps: 50_000, restart: true, phaseOps: 500_000,
		warmOps: 10_000, traceOps: 60_000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a spec for smoke runs: keys and fixed op counts are
// divided, the EPC and the mix stay.
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if n /= div; n < floor {
			n = floor
		}
		return n
	}
	s.div = div
	s.keys = shrink(s.keys, 2048)
	s.phaseOps = shrink(s.phaseOps, 2000)
	s.prefixOps = shrink(s.prefixOps, 1000)
	s.warmOps = shrink(s.warmOps, 200)
	s.traceOps = shrink(s.traceOps, 1500)
	s.ckptOps = shrink(s.ckptOps, 500)
	return s
}

// streamOps is the length of a closed-loop client's pre-generated stream.
func (s spec) streamOps() int { return max(streamLen/max(s.div, 1), 8192) }

// metricDef names one metric of the benchmark; BENCHMARK.json lists the
// same names and the smoke test holds the two together.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the store would see. Every workload
// reports every one of them on every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"get_p50_us", "us"},
	{"put_p50_us", "us"},
	{"get_p99_us", "us"},
	{"put_p99_us", "us"},
	{"sim_kops_s", "kops/s"},
	{"cpu_us_per_op", "us"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics, <layer>.<metric>. A layer the
// workload does not pass through reports 0.
var perLayer = []metricDef{
	{"loadgen.gen_lag_p99_us", "us"},
	{"loadgen.slo_miss_rate", "ratio"},
	{"loadgen.trace_overhead_pct", "%"},
	{"loadgen.error_rate", "ratio"},

	{"kvnet.self_us_per_op", "us"},
	{"kvnet.server_us_per_op", "us"},
	{"kvnet.client_socket_us_per_op", "us"},
	{"kvnet.bytes_per_op", "bytes"},
	{"kvnet.allocs_per_op", "count"},
	{"kvnet.pool_queued_max", "count"},
	{"kvnet.inflight_max", "count"},
	{"kvnet.retries", "count"},
	{"kvnet.redials", "count"},

	{"shard.ns_per_op", "ns"},
	{"shard.allocs_per_op", "count"},
	{"shard.imbalance", "ratio"},
	{"shard.pick_ns", "ns"},

	{"metrics.ns_per_op", "ns"},
	{"metrics.allocs_per_op", "count"},

	{"semantics.ns_per_get", "ns"},
	{"semantics.ns_per_put", "ns"},
	{"semantics.allocs_per_op", "count"},
	{"semantics.sim_cycles_per_op", "cycles"},

	{"durable.ns_per_put", "ns"},
	{"durable.ns_per_get", "ns"},
	{"durable.allocs_per_put", "count"},
	{"durable.sim_cycles_per_put", "cycles"},
	{"durable.ckpt_ms_p50", "ms"},
	{"durable.ckpt_ms_max", "ms"},
	{"durable.ckpt_stall_share", "ratio"},
	{"durable.recover_s", "s"},
	{"durable.recover_records_per_s", "1/s"},
	{"durable.disk_bytes_per_user_byte", "ratio"},

	{"wal.append_ns_1", "ns"},
	{"wal.append_ns_64", "ns"},
	{"wal.fsyncs_per_put", "count"},
	{"wal.records_per_put", "count"},
	{"wal.bytes_per_user_byte", "ratio"},

	{"seal.seal_ns_160B", "ns"},
	{"seal.open_ns_160B", "ns"},

	{"cold.ns_per_get", "ns"},
	{"cold.hit_ratio", "ratio"},
	{"cold.keys_share", "ratio"},
	{"cold.promote_get_us_p50", "us"},

	{"compress.ratio", "ratio"},
	{"compress.compress_ns_128B", "ns"},
	{"compress.decompress_ns_128B", "ns"},
	{"compress.train_ms", "ms"},

	{"segment.write_ms_10k", "ms"},
	{"segment.read_ms_10k", "ms"},
	{"segment.count", "count"},
	{"segment.bytes", "bytes"},
	{"segment.compactions", "count"},

	{"core.ns_per_get", "ns"},
	{"core.ns_per_put", "ns"},
	{"core.allocs_per_get", "count"},
	{"core.alloc_bytes_per_get", "bytes"},

	{"securecache.hit_ratio", "ratio"},
	{"securecache.evictions_per_kop", "count"},
	{"securecache.clean_discard_share", "ratio"},
	{"securecache.verifications_per_op", "count"},
	{"securecache.counter_get_hit_ns", "ns"},

	{"merkle.node_mac_ns", "ns"},

	{"seccrypto.mac_ns_64B", "ns"},
	{"seccrypto.ctr_ns_128B", "ns"},
	{"seccrypto.macs_per_op", "count"},
	{"seccrypto.mac_bytes_per_op", "bytes"},
	{"seccrypto.ctr_ops_per_op", "count"},

	{"sgx.sim_cycles_per_op", "cycles"},
	{"sgx.page_swaps_per_kop", "count"},
	{"sgx.ecalls_per_op", "count"},
	{"sgx.ocalls_per_op", "count"},
	{"sgx.enclave_lines_per_op", "count"},
	{"sgx.untrusted_lines_per_op", "count"},
	{"sgx.etouch_ns", "ns"},
	{"sgx.host_ns_per_sim_kcycle", "ns"},

	{"stack.ns_per_get", "ns"},
	{"stack.ns_per_put", "ns"},
	{"stack.allocs_per_op", "count"},
	{"stack.alloc_bytes_per_op", "bytes"},
	{"stack.unexplained_ns_per_op", "ns"},
}
