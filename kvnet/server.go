package kvnet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/obs"
)

// Server lifecycle states (Server.state).
const (
	stateNew = iota
	stateServing
	stateClosed
)

var (
	// ErrServerClosed is returned by Serve and ListenAndServe after Close.
	ErrServerClosed = errors.New("kvnet: server closed")
	// errAlreadyServing is returned by a second concurrent Serve call.
	errAlreadyServing = errors.New("kvnet: Serve called twice on the same Server")
)

// ServerConfig tunes the server's robustness limits. Zero values select
// the defaults below; use a negative duration to disable a timeout.
type ServerConfig struct {
	// MaxConns caps simultaneous connections; beyond it new connections
	// are shed with an stBusy response and closed (default 1024).
	MaxConns int
	// IdleTimeout bounds how long a connection may sit between requests,
	// including the time to read one full request frame (default 2m).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response frame write (default 30s).
	WriteTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight connections
	// before force-closing them (default 5s).
	DrainTimeout time.Duration
	// ConnWorkers is the per-connection worker-pool size: how many
	// requests one connection executes concurrently (default 8). Tags
	// beyond it queue in arrival order; the pool bounds goroutines per
	// connection no matter how deep the client pipelines. Workers on the
	// same shard still serialize on that shard's lock — against a
	// one-shard store the pool overlaps wire decode and response writes
	// with store work, not store work with itself.
	ConnWorkers int
	// Metrics, when non-nil, instruments the server into the given
	// registry: request counts and service-time histograms by operation,
	// wire bytes in/out, connection admission/shedding, corrupt and
	// malformed frame counts, and handler panics. nil (the default)
	// disables network instrumentation entirely. See docs/OPERATIONS.md
	// for the metric catalogue.
	Metrics *obs.Registry
	// Repl, when non-nil, enables the replication surface: subscribe
	// and snapshot-transfer streams, role-based request gating (a
	// replica rejects writes, a fenced node rejects everything),
	// watermark bodies on write responses, and watermarked reads. See
	// the repl package for implementations.
	Repl ReplBackend
	// InvalPush enables the invalidation stream (opInvalSub) for
	// coherent client-side caches: every committed write is pushed as a
	// (key-hash, shard, seq) entry to subscribed streams. Off by
	// default; see inval.go and the ccache package.
	InvalPush bool
	// InvalHeartbeat is the idle heartbeat interval on invalidation
	// streams (default 500ms). Caches treat heartbeat silence as stream
	// loss and drop cold.
	InvalHeartbeat time.Duration
	// InvalBuffer is the per-subscriber invalidation mailbox depth
	// (default 1024). A subscriber that falls this far behind has its
	// stream terminated — the write path never blocks on a slow cache.
	InvalBuffer int
}

func (c *ServerConfig) fillDefaults() {
	if c.MaxConns == 0 {
		c.MaxConns = 1024
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.ConnWorkers == 0 {
		c.ConnWorkers = 8
	}
	if c.InvalHeartbeat == 0 {
		c.InvalHeartbeat = 500 * time.Millisecond
	}
	if c.InvalBuffer == 0 {
		c.InvalBuffer = 1024
	}
}

// Server serves an aria.Store over TCP. The server takes no lock of its
// own around the store: every aria.Store is safe for concurrent use and
// serializes internally, one lock per shard (each shard models one
// enclave thread, matching the paper's single-threaded evaluation). So
// requests on one shard run one at a time inside the store, and requests
// touching different shards of a store opened with Options.Shards > 1
// execute concurrently on different cores.
//
// A handler panic is confined to its connection: the client receives an
// stError response and the connection closes, but the process and the
// other connections keep serving.
type Server struct {
	store aria.Store
	cfg   ServerConfig

	state     atomic.Int32
	lisMu     sync.Mutex
	lis       net.Listener
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once
	closeErr  error
	shed      atomic.Uint64 // connections refused at the limit
	logf      func(format string, args ...any)
	met       *serverMetrics // nil when ServerConfig.Metrics is nil (no-op hooks)
	inval     *invalHub      // nil unless ServerConfig.InvalPush
}

// NewServer wraps a store with default limits.
func NewServer(store aria.Store) *Server {
	return NewServerConfig(store, ServerConfig{})
}

// NewServerConfig wraps a store with explicit limits.
func NewServerConfig(store aria.Store, cfg ServerConfig) *Server {
	cfg.fillDefaults()
	s := &Server{
		store:   store,
		cfg:     cfg,
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
		logf:    log.Printf,
	}
	if cfg.Metrics != nil {
		s.met = newServerMetrics(cfg.Metrics)
	}
	if cfg.InvalPush {
		s.inval = newInvalHub()
	}
	return s
}

// SetLogf replaces the server's logger (tests use a silent one).
func (s *Server) SetLogf(f func(string, ...any)) { s.logf = f }

// ShedConns reports how many connections were refused at the limit.
func (s *Server) ShedConns() uint64 { return s.shed.Load() }

// Serve accepts connections on lis until Close. It returns after the
// listener fails or is closed. Calling Serve twice, or after Close,
// returns an error instead of corrupting server state.
func (s *Server) Serve(lis net.Listener) error {
	if !s.state.CompareAndSwap(stateNew, stateServing) {
		lis.Close()
		if s.state.Load() == stateClosed {
			return ErrServerClosed
		}
		return errAlreadyServing
	}
	s.lisMu.Lock()
	s.lis = lis
	s.lisMu.Unlock()
	// Close may have raced between the CAS and the listener store; make
	// sure a concurrent Close always finds a listener to shut down.
	select {
	case <-s.closing:
		lis.Close()
		return ErrServerClosed
	default:
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-s.closing:
				return ErrServerClosed
			default:
				return err
			}
		}
		s.connMu.Lock()
		if len(s.conns) >= s.cfg.MaxConns {
			s.connMu.Unlock()
			s.shed.Add(1)
			s.met.connShed()
			go s.shedConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.met.connOpened()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// shedConn tells an over-limit connection to go away and closes it.
// The half-close + drain lets the stBusy frame reach a client whose
// request is still in flight: closing with unread bytes pending would
// send an RST that can discard the response on the way.
func (s *Server) shedConn(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	_ = writeFrame(conn, encodeResponse(stBusy, []byte("server at connection limit")))
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		_, _ = io.Copy(io.Discard, io.LimitReader(conn, maxFrameWire))
	}
	_ = conn.Close()
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Addr returns the bound address (nil until Serve has started).
func (s *Server) Addr() net.Addr {
	s.lisMu.Lock()
	defer s.lisMu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Close stops accepting, lets in-flight connections finish for up to
// DrainTimeout, then force-closes the stragglers. It is idempotent;
// subsequent calls return the first call's result.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		prev := s.state.Swap(stateClosed)
		close(s.closing)
		s.lisMu.Lock()
		lis := s.lis
		s.lisMu.Unlock()
		if lis != nil {
			s.closeErr = lis.Close()
		}
		if prev != stateServing {
			return
		}
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		if s.cfg.DrainTimeout > 0 {
			select {
			case <-done:
				return
			case <-time.After(s.cfg.DrainTimeout):
				s.connMu.Lock()
				for c := range s.conns {
					_ = c.Close()
				}
				s.connMu.Unlock()
			}
		}
		<-done
	})
	return s.closeErr
}

func (s *Server) forget(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// srvJob is one decoded request waiting for a pool worker. buf is the
// pooled payload backing rq's slices; the worker releases it after the
// request is served.
type srvJob struct {
	tag uint32
	rq  request
	buf *[]byte
}

// srvConn is the per-connection state of the multiplexed protocol: one
// reader (the handle goroutine) decoding tagged frames, a bounded worker
// pool executing requests out of order, long-lived goroutines for push
// streams (replication subscriptions and cache invalidations — just tags
// on the same connection), and one writer goroutine coalescing response
// frames into writev-style flushes.
type srvConn struct {
	s    *Server
	conn net.Conn // metrics-wrapped

	jobs chan srvJob  // reader → workers; closed by the reader at teardown
	wq   chan *[]byte // assembled wire frames → writer; pooled, writer releases

	// stop tells stream goroutines to wind down; sends still succeed so
	// in-flight responses can drain. down means the connection is dead:
	// sends fail fast. abort closes both; normal teardown only stop.
	stop     chan struct{}
	stopOnce sync.Once
	down     chan struct{}
	downOnce sync.Once

	workers    sync.WaitGroup
	streams    sync.WaitGroup
	writerDone chan struct{}

	// inflight counts queued + executing requests and live streams; the
	// reader arms the idle deadline only when it is zero, so a slow op
	// never trips the idle reaper.
	inflight atomic.Int64

	tagMu      sync.Mutex
	streamTags map[uint32]chan uint64 // live stream tag → ack box (nil for inval)
}

// tagWriter delivers response frames for one tag to the connection's
// writer goroutine. payload is status byte + body, exactly what
// encodeResponse builds.
type tagWriter struct {
	sc  *srvConn
	tag uint32
}

func (t tagWriter) send(payload []byte) error {
	bp := getBuf()
	*bp = appendFrame((*bp)[:0], t.tag, payload)
	select {
	case t.sc.wq <- bp:
		return nil
	case <-t.sc.down:
		putBuf(bp)
		return net.ErrClosed
	}
}

// quiesce signals stream goroutines to wind down.
func (sc *srvConn) quiesce() { sc.stopOnce.Do(func() { close(sc.stop) }) }

// abort force-closes the connection: pending sends fail fast and the
// blocked reader wakes. Used on write failure and handler panic; a
// normal teardown drains instead.
func (sc *srvConn) abort() {
	sc.quiesce()
	sc.downOnce.Do(func() {
		close(sc.down)
		_ = sc.conn.Close()
	})
}

// done retires one unary request. When it was the last in-flight work it
// re-arms the idle deadline, so a reader already blocked on the next
// header becomes reapable again.
func (sc *srvConn) done() {
	if sc.inflight.Add(-1) == 0 && sc.s.cfg.IdleTimeout > 0 {
		_ = sc.conn.SetReadDeadline(time.Now().Add(sc.s.cfg.IdleTimeout))
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.forget(conn)
	defer s.met.connClosed()
	// The wrapper counts wire bytes; deadlines and Close pass through to
	// the underlying connection.
	sc := &srvConn{
		s:          s,
		conn:       s.met.wrap(conn),
		jobs:       make(chan srvJob, s.cfg.ConnWorkers),
		wq:         make(chan *[]byte, 64),
		stop:       make(chan struct{}),
		down:       make(chan struct{}),
		writerDone: make(chan struct{}),
		streamTags: make(map[uint32]chan uint64),
	}
	if !s.hello(sc) {
		_ = conn.Close()
		return
	}
	for i := 0; i < s.cfg.ConnWorkers; i++ {
		sc.workers.Add(1)
		go sc.worker()
	}
	s.met.poolWorkers(float64(s.cfg.ConnWorkers))
	go sc.writer()
	reason := sc.readLoop()
	// Teardown. Order matters for the corrupt-frame contract: stop
	// accepting work, let every in-flight request finish and its response
	// reach the write queue, and only then append the tag-0 stCorrupt
	// notice. TCP ordering then turns the drain into a guarantee the
	// client can rely on: any request still unanswered when the client
	// reads the notice was never processed, so blanket retry — writes
	// included — is safe.
	close(sc.jobs)
	sc.quiesce()
	sc.workers.Wait()
	sc.streams.Wait()
	s.met.poolWorkers(float64(-s.cfg.ConnWorkers))
	if reason != nil {
		var payload []byte
		switch {
		case errors.Is(reason, errCorruptFrame):
			s.met.corruptFrame()
			payload = encodeResponse(stCorrupt, []byte(reason.Error()))
		case errors.Is(reason, errMalformed):
			s.met.badRequest()
			payload = encodeResponse(stBadReq, []byte(reason.Error()))
		}
		if payload != nil {
			select {
			case <-sc.down:
			default:
				bp := getBuf()
				*bp = appendFrame((*bp)[:0], 0, payload)
				sc.wq <- bp // all other producers have exited
			}
		}
	}
	close(sc.wq)
	<-sc.writerDone
	_ = conn.Close()
}

// hello performs the version handshake as the connection's first
// exchange. It returns false when the connection must close instead.
func (s *Server) hello(sc *srvConn) bool {
	if s.cfg.IdleTimeout > 0 {
		_ = sc.conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	payload, err := readFrame(sc.conn, maxTaggedWire)
	if err != nil {
		switch {
		case errors.Is(err, errCorruptFrame):
			// Damaged in transit, not a version mismatch: answer with the
			// retryable notice, exactly like a corrupt mid-session frame.
			s.met.corruptFrame()
			s.touchWrite(sc.conn)
			_ = writeFrame(sc.conn, encodeResponse(stCorrupt, []byte(err.Error())))
		case errors.Is(err, errMalformed):
			s.rejectVersion(sc.conn, err.Error())
		}
		return false
	}
	tag, body, err := splitTag(payload)
	if err != nil || tag != 0 {
		s.rejectVersion(sc.conn, "first frame is not a hello")
		return false
	}
	ver, ok := parseHello(body)
	if !ok {
		s.rejectVersion(sc.conn, "first frame is not a hello")
		return false
	}
	if ver != protocolVersion {
		s.rejectVersion(sc.conn, fmt.Sprintf("server speaks protocol %d, client sent %d", protocolVersion, ver))
		return false
	}
	s.touchWrite(sc.conn)
	var vb [2]byte
	binary.BigEndian.PutUint16(vb[:], protocolVersion)
	bp := getBuf()
	*bp = appendFrame((*bp)[:0], 0, encodeResponse(stOK, vb[:]))
	_, werr := sc.conn.Write(*bp)
	putBuf(bp)
	return werr == nil
}

// rejectVersion answers a first frame that is not a valid hello. The
// rejection is written untagged — status byte first — so a version-1
// client parses a typed status instead of misreading a tagged frame.
func (s *Server) rejectVersion(conn net.Conn, msg string) {
	s.met.badRequest()
	s.touchWrite(conn)
	_ = writeFrame(conn, encodeResponse(stBadVersion, []byte("protocol version mismatch: "+msg)))
}

// readLoop is the connection's reader: it decodes tagged frames and
// dispatches them — unary requests to the worker pool, subscriptions to
// new stream goroutines, acks to their stream's mailbox — until the
// connection dies or the stream desynchronizes. The returned error is
// the teardown reason for frames that deserve a tag-0 notice (corrupt or
// oversized); a clean EOF or transport error returns nil.
func (sc *srvConn) readLoop() error {
	s := sc.s
	for {
		if s.cfg.IdleTimeout > 0 {
			if sc.inflight.Load() == 0 {
				_ = sc.conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			} else {
				// Mid-flight: a slow op must not trip the idle reaper
				// while the client waits for its response.
				_ = sc.conn.SetReadDeadline(time.Time{})
			}
		}
		bp, err := readFramePooled(sc.conn, maxTaggedWire)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && sc.inflight.Load() > 0 {
				// The idle deadline raced a request completion; the
				// connection is mid-flight, not idle.
				continue
			}
			if errors.Is(err, errCorruptFrame) || errors.Is(err, errMalformed) {
				return err
			}
			return nil // EOF, idle timeout, or broken connection
		}
		tag, body, terr := splitTag(*bp)
		if terr != nil || tag == 0 {
			// Frame boundaries are intact (the payload was consumed), so
			// an unattributable or reserved-tag request costs a tag-0
			// complaint, not the connection.
			s.met.badRequest()
			sc.respond(0, encodeResponse(stBadReq, []byte("request on reserved tag 0")))
			putBuf(bp)
			continue
		}
		rq, derr := decodeRequest(body)
		if derr != nil {
			s.met.badRequest()
			sc.respond(tag, encodeResponse(stBadReq, []byte(derr.Error())))
			putBuf(bp)
			continue
		}
		switch rq.op {
		case opHello:
			s.met.badRequest()
			sc.respond(tag, encodeResponse(stBadReq, []byte("duplicate hello")))
			putBuf(bp)
		case opSubscribe, opSegmentCatchup:
			sc.startSubscribe(tag, rq)
			putBuf(bp)
		case opInvalSub:
			sc.startInvalStream(tag)
			putBuf(bp)
		case opReplAck:
			sc.routeAck(tag, rq)
			putBuf(bp)
		default:
			sc.inflight.Add(1)
			s.met.inflightDelta(1)
			s.met.poolQueued(1)
			sc.jobs <- srvJob{tag: tag, rq: rq, buf: bp}
		}
	}
}

// respond enqueues a response frame from the reader, best-effort.
func (sc *srvConn) respond(tag uint32, payload []byte) {
	bp := getBuf()
	*bp = appendFrame((*bp)[:0], tag, payload)
	select {
	case sc.wq <- bp:
	case <-sc.down:
		putBuf(bp)
	}
}

// routeAck forwards a subscriber's applied-seq ack to its stream's
// keep-latest mailbox. Acks for a tag with no live stream are dropped —
// they are advisory progress reports, never required for correctness.
func (sc *srvConn) routeAck(tag uint32, rq request) {
	if len(rq.key) != watermarkBytes {
		sc.s.met.badRequest()
		sc.respond(tag, encodeResponse(stBadReq, []byte("bad replication ack")))
		return
	}
	seq := binary.BigEndian.Uint64(rq.key[4:])
	sc.tagMu.Lock()
	ch := sc.streamTags[tag]
	sc.tagMu.Unlock()
	if ch == nil {
		return
	}
	for {
		select {
		case ch <- seq:
			return
		default:
		}
		select {
		case <-ch: // displace the stale ack; only the latest matters
		default:
		}
	}
}

// worker executes queued requests until the reader closes the job
// channel. A panic is confined to its request: the client gets stError
// on the tag, the connection aborts, the worker and process survive.
func (sc *srvConn) worker() {
	defer sc.workers.Done()
	for job := range sc.jobs {
		sc.s.met.poolQueued(-1)
		t0 := time.Now()
		panicked := sc.s.serveRecover(tagWriter{sc: sc, tag: job.tag}, job.rq)
		sc.s.met.request(job.rq.op, uint64(time.Since(t0)))
		putBuf(job.buf)
		sc.s.met.inflightDelta(-1)
		sc.done()
		if panicked {
			sc.abort()
		}
	}
}

// writer is the connection's single write path: it collects pending
// response frames and hands them to the kernel in one writev-style flush
// (net.Buffers), recycling the frame buffers afterwards. On a write
// failure it aborts the connection but keeps draining the queue so no
// producer ever blocks on a dead connection.
func (sc *srvConn) writer() {
	defer close(sc.writerDone)
	var bufs net.Buffers
	var owned []*[]byte
	failed := false
	for bp := range sc.wq {
		bufs, owned = bufs[:0], owned[:0]
		bufs = append(bufs, *bp)
		owned = append(owned, bp)
	gather:
		for len(owned) < 32 {
			select {
			case more, ok := <-sc.wq:
				if !ok {
					break gather
				}
				bufs = append(bufs, *more)
				owned = append(owned, more)
			default:
				break gather
			}
		}
		if !failed {
			sc.s.touchWrite(sc.conn)
			if _, err := bufs.WriteTo(sc.conn); err != nil {
				failed = true
				sc.abort()
			}
		}
		for _, b := range owned {
			putBuf(b)
		}
	}
}

// touchWrite pushes the connection's write deadline forward.
func (s *Server) touchWrite(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// serveRecover runs one request, converting a handler panic into an
// stError response plus connection abort instead of process death.
func (s *Server) serveRecover(w tagWriter, rq request) (panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			s.met.panicked()
			s.logf("kvnet: panic serving op %d: %v", rq.op, p)
			_ = w.send(encodeResponse(stError, []byte(fmt.Sprintf("internal error: %v", p))))
			panicked = true
		}
	}()
	if err := s.serve(w, rq); err != nil && !errors.Is(err, net.ErrClosed) {
		s.logf("kvnet: connection error: %v", err)
	}
	return false
}

// serve executes one request against the store and emits the response
// frames on the request's tag.
func (s *Server) serve(w tagWriter, rq request) error {
	// Role gating comes first: a fenced ex-primary must answer with its
	// typed sentinel before any store access, and a replica rejects
	// writes the same way.
	if resp := s.replGate(rq); resp != nil {
		return w.send(resp)
	}
	if rq.op == opReplStatus {
		return s.serveReplStatus(w)
	}
	if rq.op == opSnapshotTransfer {
		return s.serveSnapshotTransfer(w, rq)
	}
	// Crossing into the enclave costs one ECALL per request. Batch ops
	// skip this: their native store path charges one amortized batched
	// entry for the whole request instead.
	if rq.op >= opMGet && rq.op <= opMDelete {
		return s.serveBatch(w, rq)
	}
	s.store.ChargeEcall()
	switch rq.op {
	case opGet:
		// A watermarked read (GetAt) carries its watermark list in the
		// value field; a replica that has not applied them yet answers
		// stLagging instead of stale data.
		if len(rq.value) > 0 {
			if resp := s.replLagCheck(rq.value); resp != nil {
				return w.send(resp)
			}
		}
		v, err := s.store.Get(rq.key)
		if err != nil {
			return w.send(errResponse(err))
		}
		return w.send(encodeResponse(stOK, v))
	case opPut:
		if err := s.store.Put(rq.key, rq.value); err != nil {
			return w.send(errResponse(err))
		}
		s.invalPublish(rq.key)
		body, err := s.replWriteAck(rq.key)
		if err != nil {
			return w.send(encodeResponse(stError, []byte(err.Error())))
		}
		return w.send(encodeResponse(stOK, body))
	case opDelete:
		if err := s.store.Delete(rq.key); err != nil {
			return w.send(errResponse(err))
		}
		s.invalPublish(rq.key)
		body, err := s.replWriteAck(rq.key)
		if err != nil {
			return w.send(encodeResponse(stError, []byte(err.Error())))
		}
		return w.send(encodeResponse(stOK, body))
	case opGetV:
		// Watermarked versioned reads carry their watermark list in the
		// value field, exactly like opGet.
		if len(rq.value) > 0 {
			if resp := s.replLagCheck(rq.value); resp != nil {
				return w.send(resp)
			}
		}
		v, ver, err := s.store.GetV(rq.key)
		if err != nil {
			return w.send(errResponse(err))
		}
		body := make([]byte, 8+len(v))
		binary.BigEndian.PutUint64(body[:8], ver)
		copy(body[8:], v)
		return w.send(encodeResponse(stOK, body))
	case opCAS:
		if len(rq.value) < 8 {
			s.met.badRequest()
			return w.send(encodeResponse(stBadReq, []byte("cas request shorter than its version")))
		}
		expect := binary.BigEndian.Uint64(rq.value[:8])
		if err := s.store.CompareAndSwap(rq.key, rq.value[8:], expect); err != nil {
			return w.send(errResponse(err))
		}
		s.invalPublish(rq.key)
		body, err := s.replWriteAck(rq.key)
		if err != nil {
			return w.send(encodeResponse(stError, []byte(err.Error())))
		}
		return w.send(encodeResponse(stOK, body))
	case opPutTTL:
		if len(rq.value) < 8 {
			s.met.badRequest()
			return w.send(encodeResponse(stBadReq, []byte("put-ttl request shorter than its ttl")))
		}
		ttl := time.Duration(binary.BigEndian.Uint64(rq.value[:8]))
		if err := s.store.PutTTL(rq.key, rq.value[8:], ttl); err != nil {
			return w.send(errResponse(err))
		}
		s.invalPublish(rq.key)
		body, err := s.replWriteAck(rq.key)
		if err != nil {
			return w.send(encodeResponse(stError, []byte(err.Error())))
		}
		return w.send(encodeResponse(stOK, body))
	case opTxnCommit:
		if err := s.store.TxnCommit(rq.tops); err != nil {
			return w.send(errResponse(err))
		}
		// Every written key invalidates client-side caches, exactly as if
		// it had been Put individually — the commit already happened, so
		// the invalidations describe the new state.
		for i := range rq.tops {
			if !rq.tops[i].ReadOnly {
				s.invalPublish(rq.tops[i].Key)
			}
		}
		body, err := s.replTxnAck(rq.tops)
		if err != nil {
			return w.send(encodeResponse(stError, []byte(err.Error())))
		}
		return w.send(encodeResponse(stOK, body))
	case opStats:
		body, err := json.Marshal(s.replOverlay(s.store.Stats()))
		if err != nil {
			return w.send(encodeResponse(stError, []byte(err.Error())))
		}
		return w.send(encodeResponse(stOK, body))
	case opCheckpoint:
		if err := s.store.Checkpoint(); err != nil {
			return w.send(errResponse(err))
		}
		return w.send(encodeResponse(stOK, nil))
	case opScan:
		var end []byte
		if len(rq.value) > 0 {
			end = rq.value
		}
		limit := rq.limit
		var streamErr error
		err := s.store.Scan(rq.key, end, func(k, v []byte) bool {
			if streamErr = w.send(encodeResponse(stMore, encodePair(k, v))); streamErr != nil {
				return false
			}
			if limit > 0 {
				limit--
				if limit == 0 {
					return false
				}
			}
			return true
		})
		if streamErr != nil {
			return streamErr
		}
		if err != nil {
			// An unordered index answers ErrNoScan, which errResponse
			// maps to its own status.
			return w.send(errResponse(err))
		}
		return w.send(encodeResponse(stDone, nil))
	default:
		s.met.badRequest()
		return w.send(encodeResponse(stBadReq, []byte(fmt.Sprintf("unknown op %d", rq.op))))
	}
}

func errResponse(err error) []byte {
	switch {
	case errors.Is(err, aria.ErrNotFound):
		return encodeResponse(stNotFound, nil)
	case errors.Is(err, aria.ErrIntegrity):
		return encodeResponse(stIntegrity, []byte(err.Error()))
	case errors.Is(err, aria.ErrTooLarge):
		return encodeResponse(stTooLarge, []byte(err.Error()))
	case errors.Is(err, aria.ErrEmptyKey):
		return encodeResponse(stEmptyKey, nil)
	case errors.Is(err, aria.ErrNoScan):
		return encodeResponse(stNoScan, nil)
	case errors.Is(err, aria.ErrNotDurable):
		return encodeResponse(stNotDurable, nil)
	case errors.Is(err, aria.ErrFenced):
		return encodeResponse(stFenced, []byte(err.Error()))
	case errors.Is(err, aria.ErrReadOnlyReplica):
		return encodeResponse(stReadOnly, nil)
	case errors.Is(err, aria.ErrLagging):
		return encodeResponse(stLagging, nil)
	case errors.Is(err, aria.ErrCASMismatch):
		return encodeResponse(stCASMismatch, []byte(err.Error()))
	case errors.Is(err, aria.ErrTxnConflict):
		return encodeResponse(stTxnConflict, []byte(err.Error()))
	default:
		return encodeResponse(stError, []byte(err.Error()))
	}
}
