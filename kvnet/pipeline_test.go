package kvnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ariakv/aria"
)

// Tests for the version-2 multiplexed transport: tagged frames, the
// per-connection worker pool, out-of-order completion, and the push
// streams that share the data connection. The headline property under
// test is the absence of head-of-line blocking — a slow request parked
// inside the store must not delay fast requests pipelined behind it on
// the same connection.

// slowStore wraps a sharded ordered store, stalling Get on one chosen
// key. Unlike gatedStore it stalls by duration, not handshake, so the
// torture test can hit the slow key from many goroutines at once.
type slowStore struct {
	aria.Store
	slow  []byte
	delay time.Duration
}

func (s *slowStore) Get(key []byte) ([]byte, error) {
	if bytes.Equal(key, s.slow) {
		time.Sleep(s.delay)
	}
	return s.Store.Get(key)
}

// TestPipelinedFastOpsDuringSlowOp is the no-HOL acceptance check for
// the multiplexed client: with ONE client (one connection), gets issued
// while another get is parked inside the store still complete. Under
// the version-1 lock-step client this deadlocks — the connection cannot
// carry a second request until the first response arrives.
func TestPipelinedFastOpsDuringSlowOp(t *testing.T) {
	gs, cl, _ := startGatedServer(t, 4)

	gateDone := make(chan error, 1)
	go func() {
		_, err := cl.Get([]byte(gs.gate))
		gateDone <- err
	}()
	select {
	case <-gs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("gated request never reached the store")
	}

	// The slow get is parked inside the store. Fast gets pipelined on
	// the same connection must all complete while it is stuck.
	for i := 0; i < 32; i++ {
		if _, err := cl.Get(gs.other); err != nil {
			t.Fatalf("fast get %d during slow op: %v", i, err)
		}
	}
	select {
	case err := <-gateDone:
		t.Fatalf("gated get returned before release: %v", err)
	default:
	}

	close(gs.release)
	select {
	case err := <-gateDone:
		if err != nil {
			t.Fatalf("gated get after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gated get never completed after release")
	}
}

// TestPipelinedTortureMixedOps drives 256 concurrent mixed operations
// — gets, puts, scans, batches, checkpoints, and deliberately slow gets
// — through ONE client connection with a deliberately small worker pool,
// and asserts no response is ever delivered to the wrong request: every
// value read back must match the value derived from its own key.
func TestPipelinedTortureMixedOps(t *testing.T) {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaBPTree,
		EPCBytes:     16 << 20,
		ExpectedKeys: 2048,
		Seed:         7,
		Shards:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	val := func(k string) string { return "val-of-" + k }
	for i := 0; i < 128; i++ {
		k := fmt.Sprintf("tk-%04d", i)
		if err := st.Put([]byte(k), []byte(val(k))); err != nil {
			t.Fatal(err)
		}
	}
	slow := &slowStore{Store: st, slow: []byte("tk-0000"), delay: 40 * time.Millisecond}
	srv := startServerConfig(t, slow, ServerConfig{ConnWorkers: 4})
	cl, err := Dial(waitAddr(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers = 256
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("op %d: "+format, append([]any{i}, args...)...)
			}
			switch {
			case i == 0:
				// The store has no DataDir; the typed miss must come
				// back intact through the pipelined connection.
				if err := cl.Checkpoint(); !errors.Is(err, aria.ErrNotDurable) {
					fail("checkpoint: got %v, want ErrNotDurable", err)
				}
			case i%64 == 1:
				// Slow get: parks a pool worker for the full delay.
				v, err := cl.Get(slow.slow)
				if err != nil || string(v) != val(string(slow.slow)) {
					fail("slow get: %q, %v", v, err)
				}
			case i%5 == 2:
				k := fmt.Sprintf("pk-%04d", i)
				if err := cl.Put([]byte(k), []byte(val(k))); err != nil {
					fail("put: %v", err)
					return
				}
				v, err := cl.Get([]byte(k))
				if err != nil || string(v) != val(k) {
					fail("read-own-write: %q, %v", v, err)
				}
			case i%5 == 3:
				// Scan a fixed preloaded range; puts above use a
				// different prefix so the expected count is stable.
				start, end := fmt.Sprintf("tk-%04d", 10), fmt.Sprintf("tk-%04d", 20)
				n, last := 0, ""
				err := cl.Scan([]byte(start), []byte(end), 0, func(k, v []byte) bool {
					if string(v) != val(string(k)) {
						fail("scan pair %q=%q", k, v)
					}
					if string(k) <= last {
						fail("scan order: %q after %q", k, last)
					}
					last, n = string(k), n+1
					return true
				})
				if err != nil || n != 10 {
					fail("scan: %d pairs, %v", n, err)
				}
			case i%5 == 4:
				keys := [][]byte{
					[]byte(fmt.Sprintf("tk-%04d", i%128)),
					[]byte(fmt.Sprintf("tk-%04d", (i+31)%128)),
					[]byte(fmt.Sprintf("tk-%04d", (i+67)%128)),
				}
				vals, errsl := cl.MGet(keys) // errsl is nil when every key succeeded
				for p, k := range keys {
					if errsl != nil && errsl[p] != nil {
						fail("mget %q: %v", k, errsl[p])
					} else if string(vals[p]) != val(string(k)) {
						fail("mget %q: %q", k, vals[p])
					}
				}
			default:
				k := fmt.Sprintf("tk-%04d", i%128)
				v, err := cl.Get([]byte(k))
				if err != nil || string(v) != val(k) {
					fail("get %q: %q, %v", k, v, err)
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("torture ops did not complete (pipeline stalled?)")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMalformedRequestKeepsConnection pins the version-2 error scope: a
// request that frames correctly but fails to decode is answered with
// stBadReq on its own tag, and the connection keeps serving — only
// checksum failures (where the tag itself is untrustworthy) kill it.
func TestMalformedRequestKeepsConnection(t *testing.T) {
	srv := startServerConfig(t, openStore(t), ServerConfig{
		IdleTimeout:  2 * time.Second,
		WriteTimeout: time.Second,
		DrainTimeout: 100 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", waitAddr(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := clientHello(conn, time.Second); err != nil {
		t.Fatal(err)
	}

	// A framed-but-garbage body on tag 5: checksum passes, decode fails.
	if _, err := conn.Write(appendFrame(nil, 5, []byte{0xEE, 0xFF})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := readFrame(conn, maxTaggedWire)
	if err != nil {
		t.Fatal(err)
	}
	tag, body, err := splitTag(resp)
	if err != nil || tag != 5 || len(body) < 1 || body[0] != stBadReq {
		t.Fatalf("malformed request: tag %d status %d (%v), want tag 5 stBadReq", tag, body[0], err)
	}

	// The same connection must still serve a well-formed request.
	if _, err := conn.Write(appendFrame(nil, 6, encodeRequest(opGet, []byte("missing"), nil, 0))); err != nil {
		t.Fatal(err)
	}
	resp, err = readFrame(conn, maxTaggedWire)
	if err != nil {
		t.Fatalf("connection died after stBadReq: %v", err)
	}
	tag, body, err = splitTag(resp)
	if err != nil || tag != 6 || len(body) < 1 || body[0] != stNotFound {
		t.Fatalf("follow-up get: tag %d status %d (%v), want tag 6 stNotFound", tag, body[0], err)
	}
}

// TestReservedTagAndDuplicateHello pins the tag-0 rules after the
// handshake: tag 0 belongs to connection-scope notices, so requests on
// it (a second hello included) are rejected with stBadReq while the
// connection keeps serving real tags.
func TestReservedTagAndDuplicateHello(t *testing.T) {
	srv := startServerConfig(t, openStore(t), ServerConfig{
		IdleTimeout:  2 * time.Second,
		WriteTimeout: time.Second,
		DrainTimeout: 100 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", waitAddr(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := clientHello(conn, time.Second); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))

	for name, frame := range map[string][]byte{
		"request on tag 0": appendFrame(nil, 0, encodeRequest(opGet, []byte("k"), nil, 0)),
		"duplicate hello":  appendFrame(nil, 9, encodeHello()),
	} {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(conn, maxTaggedWire)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, body, err := splitTag(resp)
		if err != nil || len(body) < 1 || body[0] != stBadReq {
			t.Fatalf("%s: status %d (%v), want stBadReq", name, body[0], err)
		}
	}

	// Real tags still work afterwards.
	if _, err := conn.Write(appendFrame(nil, 2, encodeRequest(opGet, []byte("k"), nil, 0))); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn, maxTaggedWire)
	if err != nil {
		t.Fatalf("connection died after reserved-tag rejections: %v", err)
	}
	if tag, body, err := splitTag(resp); err != nil || tag != 2 || body[0] != stNotFound {
		t.Fatalf("follow-up get: tag %d status %d (%v)", tag, body[0], err)
	}
}

// TestHelloVersionMismatch pins version negotiation: a hello carrying
// an unknown protocol version is answered with an UNTAGGED stBadVersion
// — readable by any frame-speaking client regardless of its tag layer —
// and the connection closes.
func TestHelloVersionMismatch(t *testing.T) {
	srv := startServerConfig(t, openStore(t), ServerConfig{
		IdleTimeout:  time.Second,
		WriteTimeout: time.Second,
		DrainTimeout: 100 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", waitAddr(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	body := encodeHello()
	body[len(body)-1] = 99 // future protocol version
	if err := writeFrame(conn, taggedPayload(0, body)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := readFrame(conn, maxTaggedWire)
	if err != nil {
		t.Fatalf("no response to version-99 hello: %v", err)
	}
	if len(resp) < 1 || resp[0] != stBadVersion {
		t.Fatalf("hello rejection status = %d, want stBadVersion", resp[0])
	}
	// The server closes after rejecting; nothing further arrives.
	if _, err := readFrame(conn, maxTaggedWire); err == nil {
		t.Fatal("connection stayed open after version rejection")
	}

	// The high-level client surfaces the same rejection as ErrBadVersion
	// when pointed at a peer that rejects its hello. Simulate with a
	// one-shot listener speaking the rejection.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		readFrame(c, maxTaggedWire) //nolint:errcheck
		writeFrame(c, encodeResponse(stBadVersion, nil)) //nolint:errcheck
	}()
	cl, err := DialConfig(lis.Addr().String(), ClientConfig{Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get([]byte("k")); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("client against rejecting server: got %v, want ErrBadVersion", err)
	}
}

// TestSharedConnInvalStream runs an invalidation stream as one tag on a
// client's data connection, interleaved with that client's own unary
// traffic, and checks closing the stream leaves the connection serving.
func TestSharedConnInvalStream(t *testing.T) {
	srv := startServerConfig(t, openStore(t), ServerConfig{
		InvalPush:      true,
		InvalHeartbeat: 200 * time.Millisecond,
		DrainTimeout:   100 * time.Millisecond,
	})
	cl, err := Dial(waitAddr(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sub, err := cl.InvalStream()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next(2 * time.Second)
	if err != nil || !ev.Beat {
		t.Fatalf("first stream event = %+v, %v; want hello heartbeat", ev, err)
	}

	// A put on the SAME connection that carries the stream must both
	// complete and come back as a pushed invalidation.
	if err := cl.Put([]byte("shared"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	want := InvalHash([]byte("shared"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		ev, err := sub.Next(time.Until(deadline))
		if err != nil {
			t.Fatalf("waiting for invalidation: %v", err)
		}
		if ev.Beat {
			continue
		}
		if len(ev.Entries) != 1 || ev.Entries[0].Hash != want {
			t.Fatalf("pushed entries %+v, want one entry with hash %#x", ev.Entries, want)
		}
		break
	}

	// Unary traffic keeps flowing while the stream is attached...
	if v, err := cl.Get([]byte("shared")); err != nil || string(v) != "v" {
		t.Fatalf("get during stream: %q, %v", v, err)
	}
	// ...and closing the stream abandons only its tag.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("after-close"), []byte("w")); err != nil {
		t.Fatalf("put after stream close: %v", err)
	}
	if v, err := cl.Get([]byte("after-close")); err != nil || string(v) != "w" {
		t.Fatalf("get after stream close: %q, %v", v, err)
	}
}

// TestSharedConnSubscribeStream runs a replication catch-up stream as a
// tag on the data connection, with unary requests pipelined beside it.
func TestSharedConnSubscribeStream(t *testing.T) {
	b := &fakeBackend{
		role: RolePrimary,
		gen:  1,
		events: []ReplEvent{
			{Kind: EvSegStart, Seq: 1},
			{Kind: EvRecord, Rec: []byte("sealed-bytes")},
		},
	}
	srv, cl := startReplServer(t, b)
	_ = srv

	sub, err := cl.SubscribeStream(0, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Interleave: a unary get on the same connection mid-stream.
	if _, err := cl.Get([]byte("missing")); !errors.Is(err, aria.ErrNotFound) {
		t.Fatalf("get beside stream: %v, want ErrNotFound", err)
	}

	ev, err := sub.Next(2 * time.Second)
	if err != nil || ev.Kind != EvSegStart || ev.Seq != 1 {
		t.Fatalf("ev1 = %+v, %v", ev, err)
	}
	ev, err = sub.Next(2 * time.Second)
	if err != nil || ev.Kind != EvRecord || string(ev.Rec) != "sealed-bytes" {
		t.Fatalf("ev2 = %+v, %v", ev, err)
	}
	if _, err = sub.Next(2 * time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}

	// The catch-up stream ended; its connection still serves.
	if err := cl.Put([]byte("post-stream"), []byte("x")); err != nil {
		t.Fatalf("put after stream end: %v", err)
	}
}

// TestFrameCodecAllocs pins the pooled frame path: once the pool is
// warm, reading a tagged frame (readFramePooled) and building one
// (appendFrame into a pooled buffer) must each cost at most one
// allocation per operation.
func TestFrameCodecAllocs(t *testing.T) {
	body := encodeRequest(opPut, []byte("alloc-test-key"), bytes.Repeat([]byte("v"), 256), 0)
	frame := appendFrame(nil, 7, body)

	r := bytes.NewReader(frame)
	// Warm the pool outside the measured region.
	for i := 0; i < 16; i++ {
		r.Reset(frame)
		buf, err := readFramePooled(r, maxTaggedWire)
		if err != nil {
			t.Fatal(err)
		}
		putBuf(buf)
	}

	readAllocs := testing.AllocsPerRun(1000, func() {
		r.Reset(frame)
		buf, err := readFramePooled(r, maxTaggedWire)
		if err != nil {
			panic(err)
		}
		putBuf(buf)
	})
	if readAllocs > 1 {
		t.Errorf("readFramePooled: %.1f allocs/op, want <= 1", readAllocs)
	}

	writeAllocs := testing.AllocsPerRun(1000, func() {
		b := getBuf()
		*b = appendFrame((*b)[:0], 7, body)
		putBuf(b)
	})
	if writeAllocs > 1 {
		t.Errorf("pooled appendFrame: %.1f allocs/op, want <= 1", writeAllocs)
	}
}
