package kvnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/obs"
)

// TestMetricsRoundTrip drives every client operation through an
// instrumented server and checks that both sides' counters and latency
// histograms record exactly the traffic that happened, and that wire
// bytes and connection gauges move.
func TestMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServerConfig(t, openStore(t), ServerConfig{Metrics: reg})
	addr := waitAddr(t, srv)

	cli, err := DialConfig(addr, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const n = 25
	for i := 0; i < n; i++ {
		if err := cli.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := cli.Get([]byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Delete([]byte("k00")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stats(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, tc := range []struct {
		name string
		op   string
		want float64
	}{
		{metricSrvRequests, "put", n},
		{metricSrvRequests, "get", n},
		{metricSrvRequests, "delete", 1},
		{metricSrvRequests, "stats", 1},
		{metricCliRequests, "put", n},
		{metricCliRequests, "get", n},
		{metricCliRequests, "delete", 1},
		{metricCliRequests, "stats", 1},
	} {
		if got, _ := snap.Value(tc.name, obs.Labels{"op": tc.op}); got != tc.want {
			t.Errorf("%s{op=%s} = %v, want %v", tc.name, tc.op, got, tc.want)
		}
	}
	for _, name := range []string{metricSrvDuration, metricCliDuration} {
		h, ok := snap.Histogram(name, obs.Labels{"op": "get"})
		if !ok || h.Count != n {
			t.Errorf("%s{op=get}: ok=%v count=%d, want count %d", name, ok, h.Count, n)
		}
	}
	if got, _ := snap.Value(metricSrvBytesRead, nil); got == 0 {
		t.Error("no wire bytes counted as read")
	}
	if got, _ := snap.Value(metricSrvBytesWrite, nil); got == 0 {
		t.Error("no wire bytes counted as written")
	}
	if got, _ := snap.Value(metricSrvConns, nil); got != 1 {
		t.Errorf("%s = %v, want 1", metricSrvConns, got)
	}
	if got, _ := snap.Value(metricSrvActive, nil); got != 1 {
		t.Errorf("%s = %v, want 1 while the client is connected", metricSrvActive, got)
	}

	// Closing the client must return the active-connection gauge to zero
	// once the server notices the EOF.
	cli.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, _ := reg.Snapshot().Value(metricSrvActive, nil); got == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("active connection gauge never returned to zero after client close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsScanRoundTrip covers the streaming path: one scan request
// is one server-side observation regardless of how many pairs stream.
func TestMetricsScanRoundTrip(t *testing.T) {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaBPTree,
		EPCBytes:     16 << 20,
		ExpectedKeys: 4096,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := startServerConfig(t, st, ServerConfig{Metrics: reg})
	addr := waitAddr(t, srv)
	cli, err := DialConfig(addr, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 10; i++ {
		if err := cli.Put([]byte(fmt.Sprintf("s%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pairs := 0
	if err := cli.Scan(nil, nil, 0, func(k, v []byte) bool {
		pairs++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if pairs != 10 {
		t.Fatalf("scan delivered %d pairs, want 10", pairs)
	}
	snap := reg.Snapshot()
	if got, _ := snap.Value(metricSrvRequests, obs.Labels{"op": "scan"}); got != 1 {
		t.Errorf("%s{op=scan} = %v, want 1", metricSrvRequests, got)
	}
	if got, _ := snap.Value(metricCliRequests, obs.Labels{"op": "scan"}); got != 1 {
		t.Errorf("%s{op=scan} = %v, want 1", metricCliRequests, got)
	}
}

// TestMetricsShedAndRetry drives a client into a full server and checks
// the shed/busy/retry/redial counters on both sides.
func TestMetricsShedAndRetry(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServerConfig(t, openStore(t), ServerConfig{
		MaxConns:     1,
		DrainTimeout: 200 * time.Millisecond,
		Metrics:      reg,
	})
	addr := waitAddr(t, srv)

	hog, err := DialConfig(addr, ClientConfig{Retry: NoRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if err := hog.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	turned, err := DialConfig(addr, ClientConfig{Retry: fastRetry(3), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer turned.Close()
	if _, err := turned.Get([]byte("k")); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-limit op = %v, want ErrServerBusy", err)
	}

	snap := reg.Snapshot()
	if got, _ := snap.Value(metricSrvShed, nil); got < 1 {
		t.Errorf("%s = %v, want >= 1", metricSrvShed, got)
	}
	if got, _ := snap.Value(metricCliBusy, nil); got < 1 {
		t.Errorf("%s = %v, want >= 1", metricCliBusy, got)
	}
	// fastRetry(3) means two extra attempts, each after a redial.
	if got, _ := snap.Value(metricCliRetries, nil); got != 2 {
		t.Errorf("%s = %v, want 2", metricCliRetries, got)
	}
	if got, _ := snap.Value(metricCliRedials, nil); got < 1 {
		t.Errorf("%s = %v, want >= 1", metricCliRedials, got)
	}
	if got, _ := snap.Value(metricCliRequests, obs.Labels{"op": "get"}); got != 1 {
		t.Errorf("%s{op=get} = %v, want 1 (one operation, three attempts)", metricCliRequests, got)
	}
}

// TestMetricsEveryClientOp issues every client operation once with
// Metrics set on both sides and requires each one's request counter to
// move on both: every request/response opcode has an entry in opNames,
// and neither side may index its instrument arrays past it. (The client
// used to panic on Checkpoint, GetV, CompareAndSwap, PutTTL and
// TxnCommit, and the server silently dropped the same ops.)
func TestMetricsEveryClientOp(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServerConfig(t, openStore(t), ServerConfig{Metrics: reg})
	cli, err := DialConfig(waitAddr(t, srv), ClientConfig{Metrics: reg, Retry: NoRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	k, v := []byte("k"), []byte("v")
	// Outcomes are beside the point (this server has no DataDir and no
	// replication, so two of these are refused): a refused request is
	// still a request.
	issued := map[string]func(){
		"put":         func() { _ = cli.Put(k, v) },
		"get":         func() { _, _ = cli.Get(k) },
		"delete":      func() { _ = cli.Delete(k) },
		"stats":       func() { _, _ = cli.Stats() },
		"scan":        func() { _ = cli.Scan(nil, nil, 0, func(_, _ []byte) bool { return true }) },
		"mget":        func() { _, _ = cli.MGet([][]byte{k}) },
		"mput":        func() { _ = cli.MPut([]aria.KV{{Key: k, Value: v}}) },
		"mdelete":     func() { _ = cli.MDelete([][]byte{k}) },
		"checkpoint":  func() { _ = cli.Checkpoint() },
		"repl_status": func() { _, _ = cli.ReplStatus() },
		"getv":        func() { _, _, _ = cli.GetV(k) },
		"cas":         func() { _ = cli.CompareAndSwap(k, v, 0) },
		"putttl":      func() { _ = cli.PutTTL(k, v, time.Minute) },
		"txn":         func() { _ = cli.TxnCommit([]aria.TxnOp{{Key: k, Value: v}}) },
	}
	for _, name := range opNames {
		// The snapshot transfer runs on its own connection (DialSnapshot),
		// not through a Client.
		if _, ok := issued[name]; !ok && name != "" && name != "snapshot" {
			t.Errorf("opNames has %q but the test issues no such op", name)
		}
	}
	for name, do := range issued {
		do()
		if got, _ := reg.Snapshot().Value(metricCliRequests, obs.Labels{"op": name}); got != 1 {
			t.Errorf("%s{op=%s} = %v after one %s, want 1", metricCliRequests, name, got, name)
		}
		// The server counts a request after writing its response, so the
		// client can be a moment ahead of it.
		deadline := time.Now().Add(2 * time.Second)
		for {
			got, _ := reg.Snapshot().Value(metricSrvRequests, obs.Labels{"op": name})
			if got == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("%s{op=%s} = %v after one %s, want 1", metricSrvRequests, name, got, name)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}
