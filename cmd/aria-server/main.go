// Command aria-server runs an aria store behind a TCP endpoint using the
// kvnet protocol — the paper's deployment model of an enclave-hosted KV
// store on an untrusted machine (transport protection via remote
// attestation is assumed established, §II-B).
//
// Usage:
//
//	aria-server [-addr :7970] [-scheme aria-h] [-keys 1000000] [-epc 91]
//	            [-shards 1] [-policy failstop|quarantine] [-max-conns 1024]
//	            [-idle-timeout 2m] [-write-timeout 30s] [-drain-timeout 5s]
//	            [-data-dir DIR] [-fsync batch|always|never] [-checkpoint-every N]
//	            [-cold-compress] [-compact-every N]
//	            [-primary] [-replica-of HOST:PORT] [-promote] [-sync-replicas N]
//
// -shards N hash-partitions the keyspace across N independent enclave
// instances, each with a 1/N slice of the EPC budget; the server then
// handles requests to different shards concurrently instead of behind one
// global lock.
//
// -data-dir DIR makes the store durable: every write is sealed
// (encrypted + MAC-chained) into a write-ahead log under DIR, and on
// restart the committed state is recovered from the newest snapshot
// plus WAL replay. -fsync picks the flush policy (batch group-commits
// one fsync per request; always syncs every record; never leaves
// flushing to the OS) and -checkpoint-every N takes an automatic
// sealed snapshot every N logged records (0 disables). On graceful
// shutdown the server checkpoints and closes the log, so the next
// start recovers from the snapshot instead of replaying the full WAL.
// With -shards each shard keeps its own WAL+snapshot lineage in
// DIR/shard-<i> and recovery runs in parallel across shards.
//
// -cold-compress (requires -data-dir) turns on the compressed cold
// tier: checkpoints write sorted, dictionary-compressed, sealed
// segments instead of whole-keyspace snapshots, and keys untouched
// between checkpoints are demoted out of the enclave index into
// compressed records (promoted back transparently on access). Segments
// accumulate incrementally and are rewritten into one per shard every
// -compact-every segments (default 8). See docs/OPERATIONS.md §2 for
// the aria_comp_*/aria_seg_* metric families and DESIGN.md §15 for the
// format.
//
// Replication (requires -data-dir): -primary publishes the sealed WAL
// to subscribing replicas; -replica-of HOST:PORT runs this store as a
// read replica of that primary, bootstrapping from its newest sealed
// snapshot and replaying the stream through the durable apply path.
// -sync-replicas N makes the primary acknowledge a write only after N
// replicas applied it. -promote opens an ex-replica's data directory as
// the new primary, bumping the sealed generation so the fenced
// ex-primary's late writes are rejected (see docs/OPERATIONS.md §9).
//
// Talk to it with the kvnet client package, e.g.:
//
//	cl, _ := kvnet.Dial("localhost:7970")
//	cl.Put([]byte("k"), []byte("v"))
//
// -metrics-addr :9100 additionally serves an observability endpoint on
// the given address (off by default): /metrics in Prometheus text
// format, /debug/vars as expvar JSON, and /healthz reporting the store's
// integrity condition. See docs/OPERATIONS.md for the metric catalogue.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, in-flight
// requests finish (bounded by -drain-timeout), then the process exits.
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/kvnet"
	"github.com/ariakv/aria/obs"
	"github.com/ariakv/aria/repl"
	"github.com/ariakv/aria/wal"
)

var schemes = map[string]aria.Scheme{
	"aria-h":      aria.AriaHash,
	"aria-t":      aria.AriaTree,
	"aria-bp":     aria.AriaBPTree,
	"nocache-h":   aria.NoCacheHash,
	"nocache-t":   aria.NoCacheTree,
	"shieldstore": aria.ShieldStoreScheme,
	"baseline-h":  aria.BaselineHash,
	"baseline-t":  aria.BaselineTree,
}

var policies = map[string]aria.IntegrityPolicy{
	"failstop":   aria.FailStop,
	"quarantine": aria.Quarantine,
}

func main() {
	var (
		addr         = flag.String("addr", ":7970", "listen address")
		schemeName   = flag.String("scheme", "aria-h", "store scheme")
		keys         = flag.Int("keys", 1_000_000, "expected key count")
		epcMB        = flag.Int("epc", 91, "simulated EPC size in MB (total, split across shards)")
		shards       = flag.Int("shards", 1, "hash-partition across this many independent enclaves")
		policyName   = flag.String("policy", "failstop", "integrity-failure policy: failstop or quarantine")
		maxConns     = flag.Int("max-conns", 1024, "simultaneous connection limit (excess is shed)")
		connWorkers  = flag.Int("conn-workers", 0, "pipelined requests served concurrently per connection (0: default 8)")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "per-connection idle/read timeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-response write timeout")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "shutdown drain bound for in-flight requests")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /healthz on this address (empty: disabled)")
		dataDir      = flag.String("data-dir", "", "persist writes to a sealed WAL under this directory (empty: in-memory only)")
		fsyncName    = flag.String("fsync", "batch", "WAL flush policy: batch (one fsync per request), always, or never")
		ckptEvery    = flag.Int("checkpoint-every", 0, "automatic sealed snapshot every N logged records (0: only on shutdown)")
		coldComp     = flag.Bool("cold-compress", false, "compressed cold tier: checkpoint into sorted sealed segments and demote untouched keys (requires -data-dir)")
		compactEvery = flag.Int("compact-every", 0, "major-compact once the segment set reaches N segments (0: default 8; needs -cold-compress)")
		primary      = flag.Bool("primary", false, "publish the sealed WAL to subscribing replicas (requires -data-dir)")
		replicaOf    = flag.String("replica-of", "", "run as a read replica of the primary at this address (requires -data-dir)")
		promote      = flag.Bool("promote", false, "promote this data directory's replica lineage to primary (implies -primary)")
		syncReplicas = flag.Int("sync-replicas", 0, "acknowledge writes only after this many replicas applied them (implies -primary)")
		invalPush    = flag.Bool("inval-push", false, "push cache invalidations to subscribed ccache clients (primaries and standalone servers only)")
	)
	flag.Parse()

	scheme, ok := schemes[*schemeName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *schemeName)
		os.Exit(2)
	}
	policy, ok := policies[*policyName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown integrity policy %q (want failstop or quarantine)\n", *policyName)
		os.Exit(2)
	}
	fsync, err := wal.ParseFsyncPolicy(*fsyncName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	opts := aria.Options{
		Scheme:          scheme,
		EPCBytes:        *epcMB << 20,
		ExpectedKeys:    *keys,
		IntegrityPolicy: policy,
		Shards:          *shards,
		Metrics:         reg,
		DataDir:         *dataDir,
		Fsync:           fsync,
		CheckpointEvery: *ckptEvery,
		ColdCompress:    *coldComp,
		CompactEvery:    *compactEvery,
	}
	if *coldComp && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "the cold tier lives in checkpoint segments: pass -data-dir with -cold-compress")
		os.Exit(2)
	}

	replicated := *primary || *promote || *syncReplicas > 0 || *replicaOf != ""
	var (
		st   aria.Store
		node *repl.Node
	)
	switch {
	case replicated && *dataDir == "":
		fmt.Fprintln(os.Stderr, "replication needs a WAL to ship: pass -data-dir")
		os.Exit(2)
	case *replicaOf != "" && (*primary || *promote || *syncReplicas > 0):
		fmt.Fprintln(os.Stderr, "-replica-of conflicts with -primary/-promote/-sync-replicas")
		os.Exit(2)
	case replicated:
		rcfg := repl.Config{
			SyncReplicas: *syncReplicas,
			Promote:      *promote,
			Metrics:      reg,
			Logf:         log.Printf,
		}
		if *replicaOf != "" {
			node, err = repl.OpenReplica(opts, *replicaOf, rcfg)
		} else {
			node, err = repl.OpenPrimary(opts, rcfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		st = node.Store()
		log.Printf("aria-server: replication role %s, generation %d", node.Role(), node.Generation())
	default:
		st, err = aria.Open(opts)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *dataDir != "" {
		if rec := st.Stats().RecoveredRecords; rec > 0 {
			log.Printf("aria-server: recovered %d records from %s", rec, *dataDir)
		}
	}
	scfg := kvnet.ServerConfig{
		MaxConns:     *maxConns,
		ConnWorkers:  *connWorkers,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		DrainTimeout: *drainTimeout,
		InvalPush:    *invalPush,
		Metrics:      reg,
	}
	if node != nil {
		scfg.Repl = node
	}
	srv := kvnet.NewServerConfig(st, scfg)

	if reg != nil {
		go serveMetrics(*metricsAddr, reg, st)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("aria-server: %v received, draining (up to %v)", sig, *drainTimeout)
		srv.Close()
	}()

	log.Printf("aria-server: %s store, EPC %d MB, %d shard(s), policy %s, listening on %s",
		scheme, *epcMB, *shards, policy, *addr)
	if err := srv.ListenAndServe(*addr); err != nil && !errors.Is(err, kvnet.ErrServerClosed) {
		log.Fatal(err)
	}
	// Drain complete: checkpoint so the next start recovers from the
	// snapshot instead of replaying the whole WAL, then close the log.
	// A replication node is closed as a whole — its appliers or
	// publishers first, then the durable store underneath.
	if *dataDir != "" {
		if err := st.Checkpoint(); err != nil {
			log.Printf("aria-server: final checkpoint failed: %v (WAL still holds every record)", err)
		}
		closer := st.Close
		if node != nil {
			closer = node.Close
		}
		if err := closer(); err != nil {
			log.Printf("aria-server: close store: %v", err)
		}
	}
	log.Printf("aria-server: shut down cleanly (health: %s)", st.Stats().Health())
}

// serveMetrics exposes the observability endpoint: Prometheus text on
// /metrics, the full registry snapshot as expvar JSON on /debug/vars,
// and a liveness/integrity probe on /healthz (HTTP 200 while the store
// is healthy or degraded, 503 once it has fail-stopped).
func serveMetrics(addr string, reg *obs.Registry, st aria.Store) {
	expvar.Publish("aria", expvar.Func(func() any { return reg.Snapshot() }))
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := st.Stats().Health()
		w.Header().Set("Content-Type", "application/json")
		if h == aria.HealthFailed {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"health": string(h)})
	})
	log.Printf("aria-server: metrics on http://%s/metrics", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("aria-server: metrics endpoint failed: %v", err)
	}
}
