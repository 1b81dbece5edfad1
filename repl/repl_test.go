// The replication chaos suite: real stores, real TCP, kill/promote/
// fence/heal cycles. The headline gate is zero acknowledged-write
// loss — every write the primary acked under synchronous replication
// must be readable from the promoted replica — plus the typed fencing
// sentinel surviving the wire from an ex-primary.
package repl_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/kvnet"
	"github.com/ariakv/aria/kvnet/chaos"
	"github.com/ariakv/aria/repl"
)

func testOpts(dir string, shards int) aria.Options {
	return aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     16 << 20,
		ExpectedKeys: 4096,
		Seed:         7,
		Shards:       shards,
		DataDir:      dir,
		// The suite measures replication latency, not disk latency.
		Fsync: aria.FsyncNever,
	}
}

// fastCfg keeps the suite quick: tight heartbeats and redials.
func fastCfg() repl.Config {
	return repl.Config{
		AckEvery:      1,
		RedialBackoff: 20 * time.Millisecond,
		PollInterval:  5 * time.Millisecond,
		DialTimeout:   2 * time.Second,
		StreamTimeout: 2 * time.Second,
		WaitTimeout:   5 * time.Second,
	}
}

// serveNode exposes a node over kvnet on a fresh loopback port (or on
// addr when non-empty, for restarts on a stable address).
func serveNode(t *testing.T, n *repl.Node, addr string) (*kvnet.Server, string) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv := kvnet.NewServerConfig(n.Store(), kvnet.ServerConfig{
		Repl: n,
		// Lingering test clients should not stall every server Close for
		// the default drain window.
		DrainTimeout: 250 * time.Millisecond,
	})
	srv.SetLogf(func(string, ...any) {})
	var lis net.Listener
	var err error
	// A just-closed listener's port can linger briefly; retry the bind.
	for i := 0; i < 50; i++ {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	return srv, lis.Addr().String()
}

func dial(t *testing.T, addr string) *kvnet.Client {
	t.Helper()
	c, err := kvnet.DialConfig(addr, kvnet.ClientConfig{Retry: kvnet.NoRetry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ackedWrite is one write the primary acknowledged, with the watermark
// the client must be able to read it back at.
type ackedWrite struct {
	key, val string
	wm       kvnet.Watermark
}

// TestReplicationBasics: a replica applies the primary's stream, serves
// watermarked reads, and reports its role over the wire.
func TestReplicationBasics(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()
	primary, err := repl.OpenPrimary(testOpts(pDir, 2), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pSrv, pAddr := serveNode(t, primary, "")
	defer pSrv.Close()

	replica, err := repl.OpenReplica(testOpts(rDir, 2), pAddr, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rSrv, rAddr := serveNode(t, replica, "")
	defer rSrv.Close()

	pc, rc := dial(t, pAddr), dial(t, rAddr)
	var writes []ackedWrite
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i)
		wm, err := pc.PutW([]byte(k), []byte(v))
		if err != nil {
			t.Fatalf("PutW %s: %v", k, err)
		}
		writes = append(writes, ackedWrite{k, v, wm})
	}
	// Read-your-writes on the replica: wait out the lag per watermark,
	// then the value must match.
	for _, w := range writes {
		var got []byte
		waitFor(t, 10*time.Second, "replica to apply "+w.key, func() bool {
			v, err := rc.GetAt([]byte(w.key), []kvnet.Watermark{w.wm})
			if errors.Is(err, kvnet.ErrLagging) {
				return false
			}
			if err != nil {
				t.Fatalf("GetAt %s: %v", w.key, err)
			}
			got = v
			return true
		})
		if string(got) != w.val {
			t.Fatalf("replica %s = %q, want %q", w.key, got, w.val)
		}
	}
	// Deletes replicate too.
	wm, err := pc.DeleteW([]byte("key-000"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica to apply the delete", func() bool {
		_, err := rc.GetAt([]byte("key-000"), []kvnet.Watermark{wm})
		return errors.Is(err, kvnet.ErrNotFound)
	})
	// The replica rejects writes with the typed sentinel.
	if err := rc.Put([]byte("x"), []byte("y")); !errors.Is(err, aria.ErrReadOnlyReplica) {
		t.Fatalf("replica write: got %v, want ErrReadOnlyReplica", err)
	}
	// Roles and generations over the wire.
	pi, err := pc.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	ri, err := rc.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if pi.Role != kvnet.RolePrimary || ri.Role != kvnet.RoleReplica {
		t.Fatalf("roles = %s/%s", pi.Role, ri.Role)
	}
	if pi.Generation != ri.Generation {
		t.Fatalf("generations diverge: %d vs %d", pi.Generation, ri.Generation)
	}
}

// TestFailoverZeroAckedWriteLoss is the headline chaos gate. Two
// kill-promote-fence-reseed cycles: under SyncReplicas=1, every
// acknowledged write must be readable from the promoted replica at its
// watermark, and the fenced ex-primary must reject late traffic with
// the typed sentinel across the wire.
func TestFailoverZeroAckedWriteLoss(t *testing.T) {
	cfg := fastCfg()
	cfg.SyncReplicas = 1

	dirA, dirB := t.TempDir(), t.TempDir()
	nodeA, err := repl.OpenPrimary(testOpts(dirA, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srvA, addrA := serveNode(t, nodeA, "")

	nodeB, err := repl.OpenReplica(testOpts(dirB, 1), addrA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srvB, addrB := serveNode(t, nodeB, "")

	// Roles rotate per cycle: p* is the current primary, r* the replica.
	pNode, pSrv, pAddr, pDir := nodeA, srvA, addrA, dirA
	rNode, rSrv, rAddr, rDir := nodeB, srvB, addrB, dirB

	var acked []ackedWrite
	for cycle := 0; cycle < 2; cycle++ {
		pc := dial(t, pAddr)
		for i := 0; i < 25; i++ {
			k := fmt.Sprintf("c%d-key-%03d", cycle, i)
			v := fmt.Sprintf("c%d-val-%03d", cycle, i)
			wm, err := pc.PutW([]byte(k), []byte(v))
			if err != nil {
				t.Fatalf("cycle %d PutW %s: %v", cycle, k, err)
			}
			// SyncReplicas=1: this ack means the replica applied it.
			acked = append(acked, ackedWrite{k, v, wm})
		}

		// Kill the primary, hard: server gone, store closed.
		pSrv.Close()
		if err := pNode.Close(); err != nil {
			t.Fatalf("cycle %d: close primary: %v", cycle, err)
		}

		// The replica must already hold every acked write — check before
		// promotion through the replica read path (watermarked reads).
		rc := dial(t, rAddr)
		for _, w := range acked {
			v, err := rc.GetAt([]byte(w.key), []kvnet.Watermark{w.wm})
			if err != nil {
				t.Fatalf("cycle %d: acked write %s lost before promote: %v", cycle, w.key, err)
			}
			if string(v) != w.val {
				t.Fatalf("cycle %d: acked write %s = %q, want %q", cycle, w.key, v, w.val)
			}
		}

		// Promote. The node keeps serving on the same address.
		if err := rNode.Promote(); err != nil {
			t.Fatalf("cycle %d: promote: %v", cycle, err)
		}
		for _, w := range acked {
			v, err := rc.GetAt([]byte(w.key), []kvnet.Watermark{w.wm})
			if err != nil {
				t.Fatalf("cycle %d: acked write %s lost after promote: %v", cycle, w.key, err)
			}
			if string(v) != w.val {
				t.Fatalf("cycle %d: acked write %s corrupted after promote", cycle, w.key)
			}
		}

		// The ex-primary comes back as a would-be replica of the new
		// primary. Its stale sealed generation gets it fenced on the
		// first subscribe, and the fenced role rejects reads and writes
		// with the typed sentinel — across the wire.
		exNode, err := repl.OpenReplica(testOpts(pDir, 1), rAddr, fastCfg())
		if err != nil {
			t.Fatalf("cycle %d: reopen ex-primary: %v", cycle, err)
		}
		waitFor(t, 10*time.Second, "ex-primary to fence itself", func() bool {
			return exNode.Role() == kvnet.RoleFenced
		})
		exSrv, exAddr := serveNode(t, exNode, "")
		exc := dial(t, exAddr)
		if err := exc.Put([]byte("late-write"), []byte("doomed")); !errors.Is(err, aria.ErrFenced) || !errors.Is(err, kvnet.ErrFenced) {
			t.Fatalf("cycle %d: late write to fenced ex-primary: got %v, want ErrFenced", cycle, err)
		}
		if _, err := exc.Get([]byte(acked[0].key)); !errors.Is(err, aria.ErrFenced) {
			t.Fatalf("cycle %d: read from fenced ex-primary: got %v, want ErrFenced", cycle, err)
		}
		exSrv.Close()
		exNode.Close()
		// A fenced directory refuses both roles until re-seeded.
		if _, err := repl.OpenPrimary(testOpts(pDir, 1), fastCfg()); !errors.Is(err, aria.ErrFenced) {
			t.Fatalf("cycle %d: fenced dir reopened as primary: %v", cycle, err)
		}

		// Re-seed: wipe the directory and rejoin as a clean replica.
		if err := os.RemoveAll(pDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(pDir, 0o755); err != nil {
			t.Fatal(err)
		}
		newReplica, err := repl.OpenReplica(testOpts(pDir, 1), rAddr, cfg)
		if err != nil {
			t.Fatalf("cycle %d: re-seed replica: %v", cycle, err)
		}
		newSrv, newAddr := serveNode(t, newReplica, "")

		// Swap roles for the next cycle (one tuple assignment: the RHS is
		// evaluated before anything moves). The promoted node's sync
		// writes only succeed once the re-seeded replica is streaming,
		// which the next cycle's first PutW implicitly waits for.
		pNode, pSrv, pAddr, pDir, rNode, rSrv, rAddr, rDir =
			rNode, rSrv, rAddr, rDir, newReplica, newSrv, newAddr, pDir
		t.Logf("cycle %d complete: %d acked writes verified", cycle, len(acked))
	}
	pSrv.Close()
	pNode.Close()
	rSrv.Close()
	rNode.Close()
}

// TestStalenessBoundAcrossPartition: a watermarked read on a
// partitioned replica answers the typed lagging sentinel (never stale
// data), and converges once the partition heals.
func TestStalenessBoundAcrossPartition(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()
	primary, err := repl.OpenPrimary(testOpts(pDir, 1), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pSrv, pAddr := serveNode(t, primary, "")
	defer pSrv.Close()

	// The replica reaches the primary only through the fault proxy.
	proxy, err := chaos.New(pAddr, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	replica, err := repl.OpenReplica(testOpts(rDir, 1), proxy.Addr(), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rSrv, rAddr := serveNode(t, replica, "")
	defer rSrv.Close()

	pc, rc := dial(t, pAddr), dial(t, rAddr)
	wm1, err := pc.PutW([]byte("before"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica to apply the first write", func() bool {
		_, err := rc.GetAt([]byte("before"), []kvnet.Watermark{wm1})
		return err == nil
	})

	proxy.Partition()
	wm2, err := pc.PutW([]byte("during"), []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	// The replica cannot have it; the watermark makes that a typed
	// refusal instead of silently stale data.
	if _, err := rc.GetAt([]byte("during"), []kvnet.Watermark{wm2}); !errors.Is(err, aria.ErrLagging) {
		t.Fatalf("partitioned watermark read: got %v, want ErrLagging", err)
	}
	// Unwatermarked reads still serve (stale by contract).
	if _, err := rc.Get([]byte("before")); err != nil {
		t.Fatalf("stale read during partition: %v", err)
	}

	proxy.Heal()
	var got []byte
	waitFor(t, 15*time.Second, "replica to converge after heal", func() bool {
		v, err := rc.GetAt([]byte("during"), []kvnet.Watermark{wm2})
		if err != nil {
			return false
		}
		got = v
		return true
	})
	if string(got) != "v2" {
		t.Fatalf("converged value = %q", got)
	}
}

// TestLinkFlapConvergence: writes racing repeated partition/heal cycles
// all make it to the replica once the link settles.
func TestLinkFlapConvergence(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()
	primary, err := repl.OpenPrimary(testOpts(pDir, 1), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pSrv, pAddr := serveNode(t, primary, "")
	defer pSrv.Close()

	proxy, err := chaos.New(pAddr, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	replica, err := repl.OpenReplica(testOpts(rDir, 1), proxy.Addr(), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rSrv, rAddr := serveNode(t, replica, "")
	defer rSrv.Close()

	pc, rc := dial(t, pAddr), dial(t, rAddr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		proxy.Flap(4, 40*time.Millisecond, 60*time.Millisecond)
	}()
	var writes []ackedWrite
	for i := 0; i < 60; i++ {
		k, v := fmt.Sprintf("flap-%03d", i), fmt.Sprintf("v-%03d", i)
		wm, err := pc.PutW([]byte(k), []byte(v))
		if err != nil {
			t.Fatalf("PutW %s: %v", k, err)
		}
		writes = append(writes, ackedWrite{k, v, wm})
		time.Sleep(5 * time.Millisecond)
	}
	<-done
	for _, w := range writes {
		var got []byte
		waitFor(t, 15*time.Second, "replica to apply "+w.key, func() bool {
			v, err := rc.GetAt([]byte(w.key), []kvnet.Watermark{w.wm})
			if err != nil {
				return false
			}
			got = v
			return true
		})
		if string(got) != w.val {
			t.Fatalf("%s = %q, want %q", w.key, got, w.val)
		}
	}
}

// TestGracefulDrainRedial: closing the serving frontend mid-stream (the
// node stays up) sends the subscriber a typed drain notice; when a new
// frontend binds the same address, replication resumes without loss.
func TestGracefulDrainRedial(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()
	primary, err := repl.OpenPrimary(testOpts(pDir, 1), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pSrv, pAddr := serveNode(t, primary, "")

	replica, err := repl.OpenReplica(testOpts(rDir, 1), pAddr, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rSrv, rAddr := serveNode(t, replica, "")
	defer rSrv.Close()

	pc, rc := dial(t, pAddr), dial(t, rAddr)
	wm, err := pc.PutW([]byte("pre-drain"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica to apply pre-drain write", func() bool {
		_, err := rc.GetAt([]byte("pre-drain"), []kvnet.Watermark{wm})
		return err == nil
	})

	// Drain the primary's frontend; the replica applier sees stDraining
	// and starts redialing the same address.
	pSrv.Close()
	pSrv, _ = serveNode(t, primary, pAddr)
	defer pSrv.Close()

	pc2 := dial(t, pAddr)
	wm2, err := pc2.PutW([]byte("post-drain"), []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "replica to resume after drain", func() bool {
		v, err := rc.GetAt([]byte("post-drain"), []kvnet.Watermark{wm2})
		return err == nil && string(v) == "v2"
	})
}

// TestSnapshotBootstrap: after a checkpoint prunes the primary's WAL, a
// fresh replica must bootstrap from the sealed snapshot and then tail
// the remaining log; a subscriber below the pruned horizon is told to
// re-seed via the snapshot notice.
func TestSnapshotBootstrap(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()
	primary, err := repl.OpenPrimary(testOpts(pDir, 1), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pSrv, pAddr := serveNode(t, primary, "")
	defer pSrv.Close()

	pc := dial(t, pAddr)
	for i := 0; i < 30; i++ {
		if err := pc.Put([]byte(fmt.Sprintf("snap-%03d", i)), []byte(fmt.Sprintf("v-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Two checkpoint generations: retention keeps the previous snapshot
	// as a fallback, so pruning only reaches past history after the
	// second checkpoint.
	if err := pc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 35; i++ {
		if err := pc.Put([]byte(fmt.Sprintf("snap-%03d", i)), []byte(fmt.Sprintf("v-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var postWMs []kvnet.Watermark
	for i := 35; i < 40; i++ {
		wm, err := pc.PutW([]byte(fmt.Sprintf("snap-%03d", i)), []byte(fmt.Sprintf("v-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		postWMs = append(postWMs, wm)
	}

	// A subscriber claiming a position below the pruned horizon gets the
	// snapshot notice, not a silent gap.
	info, err := pc.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := kvnet.DialSubscribe(pAddr, 0, 1, info.Generation, true, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next(2 * time.Second)
	sub.Close()
	if err != nil || ev.Kind != kvnet.EvSnapshotNeeded {
		t.Fatalf("pruned-horizon subscribe: ev=%+v err=%v, want EvSnapshotNeeded", ev, err)
	}
	if ev.Seq == 0 {
		t.Fatal("snapshot notice carries no covered seq")
	}

	// A fresh replica bootstraps: snapshot transfer, then WAL tail.
	replica, err := repl.OpenReplica(testOpts(rDir, 1), pAddr, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rSrv, rAddr := serveNode(t, replica, "")
	defer rSrv.Close()
	rc := dial(t, rAddr)
	waitFor(t, 15*time.Second, "bootstrapped replica to catch up", func() bool {
		_, err := rc.GetAt([]byte("snap-039"), postWMs[len(postWMs)-1:])
		return err == nil
	})
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("snap-%03d", i)
		v, err := rc.Get([]byte(k))
		if err != nil {
			t.Fatalf("replica missing %s after snapshot bootstrap: %v", k, err)
		}
		if want := fmt.Sprintf("v-%03d", i); string(v) != want {
			t.Fatalf("replica %s = %q, want %q", k, v, want)
		}
	}
}

// TestReplicaRestartResumes: a cleanly restarted replica resumes from
// its own durable log end instead of re-streaming from scratch.
func TestReplicaRestartResumes(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()
	primary, err := repl.OpenPrimary(testOpts(pDir, 1), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pSrv, pAddr := serveNode(t, primary, "")
	defer pSrv.Close()
	pc := dial(t, pAddr)

	replica, err := repl.OpenReplica(testOpts(rDir, 1), pAddr, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	wm, err := pc.PutW([]byte("phase-1"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica to apply phase 1", func() bool {
		return replica.AppliedSeq(0) >= wm.Seq
	})
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes land while the replica is down.
	wm2, err := pc.PutW([]byte("phase-2"), []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}

	replica2, err := repl.OpenReplica(testOpts(rDir, 1), pAddr, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer replica2.Close()
	rSrv, rAddr := serveNode(t, replica2, "")
	defer rSrv.Close()
	rc := dial(t, rAddr)
	waitFor(t, 10*time.Second, "restarted replica to catch up", func() bool {
		v, err := rc.GetAt([]byte("phase-2"), []kvnet.Watermark{wm2})
		return err == nil && string(v) == "v2"
	})
	if v, err := rc.Get([]byte("phase-1")); err != nil || string(v) != "v1" {
		t.Fatalf("phase-1 after restart = %q, %v", v, err)
	}
}

// TestColdPrimaryNeverSeedsAnEmptyReplica: a ColdCompress primary
// checkpoints to segment sets and truncates its WAL, so after a few
// checkpoints it has neither a raw snapshot to ship nor a WAL prefix to
// stream from seq 1. A fresh replica must then refuse to open, naming the
// cold tier, or report degraded health — never come up serving
// ErrNotFound for keys the primary acknowledged.
func TestColdPrimaryNeverSeedsAnEmptyReplica(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()
	popts := testOpts(pDir, 1)
	popts.ColdCompress = true
	primary, err := repl.OpenPrimary(popts, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pSrv, pAddr := serveNode(t, primary, "")
	defer pSrv.Close()
	pc := dial(t, pAddr)

	var acked []string
	for round := 0; round < 3; round++ {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("cold-%d-%02d", round, i)
			if err := pc.Put([]byte(k), []byte("v-"+k)); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, k)
		}
		if err := pc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	ropts := testOpts(rDir, 1)
	ropts.ColdCompress = true
	replica, err := repl.OpenReplica(ropts, pAddr, fastCfg())
	if err != nil {
		if !strings.Contains(err.Error(), "cold") {
			t.Fatalf("OpenReplica failed without naming the cold tier: %v", err)
		}
		return
	}
	defer replica.Close()
	rSrv, rAddr := serveNode(t, replica, "")
	defer rSrv.Close()
	rc := dial(t, rAddr)
	deadline := time.Now().Add(5 * time.Second)
	for _, k := range []string{acked[0], acked[len(acked)-1]} {
		for {
			st, err := rc.Stats()
			if err == nil && st.Health() != aria.HealthOK {
				return
			}
			v, err := rc.Get([]byte(k))
			if err == nil && string(v) == "v-"+k {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica opened healthy but serves acked key %s as %q, %v", k, v, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
