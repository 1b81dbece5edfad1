package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/seal"
	"github.com/ariakv/aria/internal/shard"
	"github.com/ariakv/aria/kvnet"
	"github.com/ariakv/aria/obs"
	"github.com/ariakv/aria/wal"
)

// Config tunes a replication node. The zero value is usable: an
// asynchronous primary (no sync replicas) or replica with the defaults
// noted per field.
type Config struct {
	// SyncReplicas, on a primary, is how many subscribers must
	// acknowledge a write's sequence number before the write is
	// acknowledged to the client. Zero (the default) acknowledges after
	// local durability only — replication is asynchronous and a
	// failover can lose the unshipped suffix.
	SyncReplicas int
	// WaitTimeout bounds the synchronous-replication wait (default 5s).
	// On expiry the write fails with a typed error; the data IS durable
	// locally, so the client must treat the write as in doubt.
	WaitTimeout time.Duration
	// AckEvery is the replica's ack cadence in applied records (default
	// 1: ack every record — chatty but the tightest watermark).
	AckEvery uint64
	// RedialBackoff is the replica's pause between subscribe stream
	// dials (default 50ms).
	RedialBackoff time.Duration
	// PollInterval is the publisher's idle wake interval, bounding
	// heartbeat spacing while a subscriber is caught up (default 25ms).
	PollInterval time.Duration
	// DialTimeout bounds dials and snapshot bootstrap frames (default 5s).
	DialTimeout time.Duration
	// StreamTimeout bounds each subscribe stream read on the replica
	// (default 30s). Publisher heartbeats arrive every PollInterval, so
	// an expiry means the primary is gone and triggers a redial.
	StreamTimeout time.Duration
	// Promote lets OpenPrimary open a data directory whose sealed role
	// is replica, bumping the generation — the offline promotion path.
	// Without it, opening a replica's directory as a primary is refused.
	Promote bool
	// Metrics, when set, registers the repl_* instrument families.
	Metrics *obs.Registry
	// Logf receives replication progress and fault lines (default: drop).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 5 * time.Second
	}
	if c.AckEvery == 0 {
		c.AckEvery = 1
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 30 * time.Second
	}
}

// Node is one replicated store instance — primary or replica — and the
// kvnet.ReplBackend its server is configured with. A primary publishes
// its sealed WAL to subscribers and optionally waits for their acks; a
// replica runs one applier per WAL shard, replaying the primary's
// stream through the normal write path.
type Node struct {
	store       aria.Store
	cfg         Config
	dataDir     string
	genSealer   *seal.Sealer
	seed        uint64
	shards      int
	router      shard.Router
	met         *metrics
	primaryAddr string // replica: where to subscribe

	mu          sync.Mutex
	role        string
	gen         uint64
	primaryGen  uint64   // replica: last generation learned from the primary
	primaryNext []uint64 // replica: per-shard publisher next seq from heartbeats

	// Commit wake: the store's commit hook closes and replaces wakeCh,
	// so every publisher loop blocked on the previous channel wakes.
	wakeMu sync.Mutex
	wakeCh chan struct{}

	// Per-shard sync-ack bookkeeping (primary).
	acks   []*shardAcks
	subSeq atomic.Uint64 // subscriber ids

	closeC    chan struct{}
	closeOnce sync.Once
	stopC     chan struct{} // applier stop (closed by Promote/fence/Close)
	stopOnce  sync.Once
	applierWG sync.WaitGroup
}

// shardAcks tracks which subscribers acked what on one shard. bump is a
// close-and-replace broadcast: every recorded ack (and every subscriber
// departure) closes the current channel so WaitCommitted recounts.
type shardAcks struct {
	mu    sync.Mutex
	acked map[uint64]uint64
	bump  chan struct{}
}

func newShardAcks() *shardAcks {
	return &shardAcks{acked: make(map[uint64]uint64), bump: make(chan struct{})}
}

func (a *shardAcks) record(id, seq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if seq <= a.acked[id] {
		return
	}
	a.acked[id] = seq
	close(a.bump)
	a.bump = make(chan struct{})
}

func (a *shardAcks) forget(id uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.acked, id)
	close(a.bump)
	a.bump = make(chan struct{})
}

// lineageDir returns the WAL lineage directory for shard i under a root
// data directory, matching the layout aria.Open uses.
func lineageDir(dataDir string, shards, i int) string {
	if shards <= 1 {
		return dataDir
	}
	return filepath.Join(dataDir, fmt.Sprintf("shard-%d", i))
}

func newNode(opts aria.Options, cfg Config) *Node {
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	n := &Node{
		cfg:       cfg,
		dataDir:   opts.DataDir,
		genSealer: seal.New(opts.Seed),
		seed:      opts.Seed,
		shards:    shards,
		router:    shard.NewRouter(shards),
		met:       newMetrics(cfg.Metrics),
		wakeCh:    make(chan struct{}),
		closeC:    make(chan struct{}),
		stopC:     make(chan struct{}),
	}
	n.primaryNext = make([]uint64, shards)
	n.acks = make([]*shardAcks, shards)
	for i := range n.acks {
		n.acks[i] = newShardAcks()
	}
	return n
}

// openReplicable opens the store and checks it has WAL lineages.
func (n *Node) openReplicable(opts aria.Options) error {
	st, err := aria.Open(opts)
	if err != nil {
		return err
	}
	if st.WALShards() == 0 {
		st.Close()
		return errors.New("repl: store is not replicable (open it with a DataDir)")
	}
	n.store = st
	return nil
}

// OpenPrimary opens (or creates) a durable store as the replication
// primary. A fresh directory starts at generation 1; an existing
// primary directory resumes its recorded generation; a directory whose
// sealed role is replica is refused unless cfg.Promote is set, which
// bumps the generation (offline promotion). A fenced directory is
// always refused — re-seed it.
func OpenPrimary(opts aria.Options, cfg Config) (*Node, error) {
	cfg.fillDefaults()
	if opts.DataDir == "" {
		return nil, errors.New("repl: replication requires Options.DataDir")
	}
	n := newNode(opts, cfg)
	gen, role, ok, err := readGeneration(n.dataDir, n.genSealer)
	if err != nil {
		return nil, err
	}
	switch {
	case !ok:
		gen = 1
	case role == storedFenced:
		return nil, fmt.Errorf("repl: data dir is fenced; wipe and re-seed it: %w", aria.ErrFenced)
	case role == storedReplica && !cfg.Promote:
		return nil, errors.New("repl: data dir belongs to a replica; pass Config.Promote to promote it")
	case role == storedReplica:
		gen++
	}
	if err := writeGeneration(n.dataDir, n.genSealer, gen, storedPrimary); err != nil {
		return nil, err
	}
	if err := n.openReplicable(opts); err != nil {
		return nil, err
	}
	n.role, n.gen = kvnet.RolePrimary, gen
	if role == storedReplica {
		n.met.promoted()
	}
	n.store.SetCommitHook(n.commitWake)
	return n, nil
}

// OpenReplica opens a durable store as a read replica of the primary at
// primaryAddr. A fresh directory bootstraps each shard lineage from the
// primary's newest sealed snapshot (when one exists) and then streams
// the WAL tail; an existing replica directory resumes from its local
// log end. An ex-primary's directory is accepted but keeps its old
// generation, so the new primary's fencing handshake decides its fate —
// the node fences itself on the first subscribe and must be re-seeded.
func OpenReplica(opts aria.Options, primaryAddr string, cfg Config) (*Node, error) {
	cfg.fillDefaults()
	if opts.DataDir == "" {
		return nil, errors.New("repl: replication requires Options.DataDir")
	}
	n := newNode(opts, cfg)
	n.primaryAddr = primaryAddr
	gen, role, ok, err := readGeneration(n.dataDir, n.genSealer)
	if err != nil {
		return nil, err
	}
	if ok && role == storedFenced {
		return nil, fmt.Errorf("repl: data dir is fenced; wipe and re-seed it: %w", aria.ErrFenced)
	}
	if err := aria.InitDataDir(n.dataDir, n.seed, n.shards); err != nil {
		return nil, err
	}
	if err := n.bootstrapSnapshots(); err != nil {
		return nil, err
	}
	// Learn the primary's generation. An ex-primary's directory keeps
	// its own recorded generation instead: presenting the stale number
	// is exactly what lets the new primary fence it.
	info, ierr := fetchReplStatus(primaryAddr, cfg.DialTimeout)
	if ierr != nil {
		return nil, fmt.Errorf("repl: cannot reach primary %s: %w", primaryAddr, ierr)
	}
	n.primaryGen = info.Generation
	if !ok || role != storedPrimary {
		// Clean replicas (and fresh directories) follow the primary's
		// generation; an ex-primary keeps its stale one and lets the
		// handshake fence it.
		gen = info.Generation
	}
	if err := writeGeneration(n.dataDir, n.genSealer, gen, roleByteFor(ok, role)); err != nil {
		return nil, err
	}
	if err := n.openReplicable(opts); err != nil {
		return nil, err
	}
	n.role, n.gen = kvnet.RoleReplica, gen
	for i := 0; i < n.shards; i++ {
		n.applierWG.Add(1)
		go n.applyLoop(i)
	}
	return n, nil
}

// roleByteFor keeps an ex-primary's directory marked primary until the
// fencing handshake resolves it; everything else is a replica.
func roleByteFor(ok bool, stored byte) byte {
	if ok && stored == storedPrimary {
		return storedPrimary
	}
	return storedReplica
}

// bootstrapSnapshots seeds every still-fresh shard lineage from the
// primary's newest sealed snapshot, written verbatim — the replica's
// own sealer verifies it during recovery. A primary without a snapshot
// whose WAL still starts at sequence one simply streams from there; one
// that can offer neither (a cold-tier lineage, see SnapshotPath) fails
// the open.
func (n *Node) bootstrapSnapshots() error {
	for i := 0; i < n.shards; i++ {
		dir := lineageDir(n.dataDir, n.shards, i)
		segs, err := wal.Segments(dir)
		if err != nil {
			return err
		}
		snaps, err := wal.ListSnapshots(dir)
		if err != nil {
			return err
		}
		if len(segs) > 0 || len(snaps) > 0 {
			continue // existing lineage resumes from its own log
		}
		covered, data, err := kvnet.FetchSnapshot(n.primaryAddr, uint32(i), n.cfg.DialTimeout)
		if errors.Is(err, aria.ErrNotFound) {
			continue // primary has no snapshot; stream the full WAL
		}
		if err != nil {
			return fmt.Errorf("repl: snapshot bootstrap for shard %d: %w", i, err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		final := filepath.Join(dir, wal.SnapshotName(covered))
		tmp := final + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, final); err != nil {
			os.Remove(tmp)
			return err
		}
		n.logf("repl: shard %d: bootstrapped from snapshot covering seq %d (%d bytes)", i, covered, len(data))
	}
	return nil
}

// fetchReplStatus asks addr for its replication state over a throwaway
// connection.
func fetchReplStatus(addr string, timeout time.Duration) (kvnet.ReplInfo, error) {
	c, err := kvnet.DialConfig(addr, kvnet.ClientConfig{
		Retry:       kvnet.NoRetry(),
		DialTimeout: timeout,
		OpTimeout:   timeout,
	})
	if err != nil {
		return kvnet.ReplInfo{}, err
	}
	defer c.Close()
	return c.ReplStatus()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Store returns the node's underlying store, for serving through kvnet
// (pass the node itself as ServerConfig.Repl).
func (n *Node) Store() aria.Store { return n.store }

// commitWake is the store's commit hook: wake every publisher loop.
func (n *Node) commitWake() {
	n.wakeMu.Lock()
	close(n.wakeCh)
	n.wakeCh = make(chan struct{})
	n.wakeMu.Unlock()
}

// wakeChan returns the channel the next commit will close.
func (n *Node) wakeChan() <-chan struct{} {
	n.wakeMu.Lock()
	defer n.wakeMu.Unlock()
	return n.wakeCh
}

// ---- kvnet.ReplBackend -----------------------------------------------------------

// Role implements kvnet.ReplBackend.
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Generation implements kvnet.ReplBackend.
func (n *Node) Generation() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gen
}

// Shards implements kvnet.ReplBackend.
func (n *Node) Shards() int { return n.shards }

// AppliedSeq implements kvnet.ReplBackend: the highest sequence number
// shard has committed locally (fresh lineages report zero).
func (n *Node) AppliedSeq(shard uint32) uint64 {
	if int(shard) >= n.shards {
		return 0
	}
	return n.store.WALShardNextSeq(int(shard)) - 1
}

// Watermark implements kvnet.ReplBackend: the sequence number covering
// a write that just committed on shard.
func (n *Node) Watermark(shard uint32) uint64 { return n.AppliedSeq(shard) }

// ShardForKey implements kvnet.ReplBackend with the same hash router
// the sharded store uses, so a key's watermark names the WAL lineage
// its write actually landed in.
func (n *Node) ShardForKey(key []byte) uint32 { return uint32(n.router.Pick(key)) }

// Lag implements kvnet.ReplBackend: a replica's largest per-shard gap
// between the publisher's last advertised sequence and the locally
// applied one. A primary reports zero.
func (n *Node) Lag() uint64 {
	n.mu.Lock()
	role := n.role
	next := make([]uint64, len(n.primaryNext))
	copy(next, n.primaryNext)
	n.mu.Unlock()
	if role != kvnet.RoleReplica {
		return 0
	}
	var lag uint64
	for i, pn := range next {
		if pn == 0 {
			continue // no heartbeat yet
		}
		if applied := n.AppliedSeq(uint32(i)); pn-1 > applied && pn-1-applied > lag {
			lag = pn - 1 - applied
		}
	}
	return lag
}

// WaitCommitted implements kvnet.ReplBackend: with SyncReplicas
// configured, block until that many subscribers acked seq on shard.
func (n *Node) WaitCommitted(shard uint32, seq uint64) error {
	if n.cfg.SyncReplicas <= 0 || int(shard) >= n.shards {
		return nil
	}
	a := n.acks[shard]
	timer := time.NewTimer(n.cfg.WaitTimeout)
	defer timer.Stop()
	for {
		a.mu.Lock()
		count := 0
		for _, s := range a.acked {
			if s >= seq {
				count++
			}
		}
		bump := a.bump
		a.mu.Unlock()
		if count >= n.cfg.SyncReplicas {
			return nil
		}
		select {
		case <-bump:
		case <-timer.C:
			return fmt.Errorf("repl: %d/%d sync replicas acked seq %d on shard %d within %v",
				count, n.cfg.SyncReplicas, seq, shard, n.cfg.WaitTimeout)
		case <-n.closeC:
			return errors.New("repl: node closing")
		}
	}
}

// SnapshotPath implements kvnet.ReplBackend: the newest sealed
// snapshot file for shard, or aria.ErrNotFound when the lineage has none
// and its WAL still starts at seq 1. A lineage whose WAL was truncated
// past its newest snapshot — a ColdCompress lineage checkpoints to
// segment sets, which are not shipped — can seed no replica, and says so
// instead of letting one stream a WAL that starts mid-history.
func (n *Node) SnapshotPath(shard uint32) (string, uint64, error) {
	if int(shard) >= n.shards {
		return "", 0, fmt.Errorf("repl: unknown shard %d", shard)
	}
	dir := n.store.WALShardDir(int(shard))
	// Segments before snapshots: a checkpoint publishes its snapshot
	// before it truncates the WAL, so a truncation seen here has its
	// snapshot in the listing below.
	segs, err := wal.Segments(dir)
	if err != nil {
		return "", 0, err
	}
	snaps, err := wal.ListSnapshots(dir)
	if err != nil {
		return "", 0, err
	}
	from := uint64(1)
	if len(snaps) > 0 {
		from = snaps[0].Covered + 1
	}
	if len(segs) > 0 && segs[0].FirstSeq > from {
		return "", 0, fmt.Errorf("repl: shard %d cannot seed a replica: its WAL starts at seq %d but its newest snapshot covers only seq %d; "+
			"cold-tier (ColdCompress) checkpoints write segment sets, which replication does not ship", shard, segs[0].FirstSeq, from-1)
	}
	if len(snaps) == 0 {
		return "", 0, fmt.Errorf("repl: no snapshot for shard %d: %w", shard, aria.ErrNotFound)
	}
	return snaps[0].Path, snaps[0].Covered, nil
}

// ---- role transitions ------------------------------------------------------------

// Promote turns a live replica into the primary: appliers stop, the
// generation advances past every generation this node has seen, and
// the new role is sealed into the data directory before writes are
// accepted. The ex-primary, if it ever comes back, presents the old
// generation and is fenced.
func (n *Node) Promote() error {
	n.mu.Lock()
	if n.role != kvnet.RoleReplica {
		role := n.role
		n.mu.Unlock()
		return fmt.Errorf("repl: cannot promote a %s node", role)
	}
	n.mu.Unlock()

	// Stop the appliers first so no stream apply races the role flip.
	n.stopOnce.Do(func() { close(n.stopC) })
	n.applierWG.Wait()

	n.mu.Lock()
	gen := n.gen
	if n.primaryGen > gen {
		gen = n.primaryGen
	}
	gen++
	if err := writeGeneration(n.dataDir, n.genSealer, gen, storedPrimary); err != nil {
		n.mu.Unlock()
		return err
	}
	n.gen = gen
	n.role = kvnet.RolePrimary
	n.mu.Unlock()
	n.store.SetCommitHook(n.commitWake)
	n.met.promoted()
	n.logf("repl: promoted to primary at generation %d", gen)
	return nil
}

// becomeFenced seals the fenced role into the data directory and stops
// serving. Called from publisher or applier goroutines, so it signals
// the appliers without waiting for them.
func (n *Node) becomeFenced(newerGen uint64) {
	n.mu.Lock()
	if n.role == kvnet.RoleFenced {
		n.mu.Unlock()
		return
	}
	n.role = kvnet.RoleFenced
	gen := n.gen
	n.mu.Unlock()
	if err := writeGeneration(n.dataDir, n.genSealer, gen, storedFenced); err != nil {
		n.logf("repl: persisting fenced role failed: %v", err)
	}
	n.stopOnce.Do(func() { close(n.stopC) })
	n.logf("repl: fenced by generation %d (ours: %d); re-seed this node", newerGen, gen)
}

// stopped reports whether the appliers were told to stop.
func (n *Node) stopped() bool {
	select {
	case <-n.stopC:
		return true
	case <-n.closeC:
		return true
	default:
		return false
	}
}

// Close stops replication and closes the store.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.closeC) })
	n.stopOnce.Do(func() { close(n.stopC) })
	n.applierWG.Wait()
	n.store.SetCommitHook(nil)
	return n.store.Close()
}
