package kvnet

import (
	"net"

	"github.com/ariakv/aria/obs"
)

// This file wires the obs registry through the network layer. Both the
// server and the client take an optional *obs.Registry in their configs;
// nil (the default) means every hook below is a nil-receiver no-op that
// the branch predictor eats, and no instrument is ever registered. The
// metric catalogue lives in docs/OPERATIONS.md; the parity test keeps
// the two in sync.

// opNames maps wire op codes to metric label values: one entry per
// request/response opcode, on either side. Both instrument sets are
// sized and registered from it. The stream opcodes (subscribe, ack,
// catch-up, invalidation, hello) are not requests and have no name.
var opNames = [opTxnCommit + 1]string{
	opGet:              "get",
	opPut:              "put",
	opDelete:           "delete",
	opStats:            "stats",
	opScan:             "scan",
	opMGet:             "mget",
	opMPut:             "mput",
	opMDelete:          "mdelete",
	opCheckpoint:       "checkpoint",
	opSnapshotTransfer: "snapshot",
	opReplStatus:       "repl_status",
	opGetV:             "getv",
	opCAS:              "cas",
	opPutTTL:           "putttl",
	opTxnCommit:        "txn",
}

// Server-side metric family names.
const (
	metricSrvRequests   = "kvnet_requests_total"
	metricSrvDuration   = "kvnet_request_duration_ns"
	metricSrvBytesRead  = "kvnet_bytes_read_total"
	metricSrvBytesWrite = "kvnet_bytes_written_total"
	metricSrvActive     = "kvnet_active_conns"
	metricSrvConns      = "kvnet_conns_total"
	metricSrvShed       = "kvnet_shed_conns_total"
	metricSrvCorrupt    = "kvnet_corrupt_frames_total"
	metricSrvBadReq     = "kvnet_bad_requests_total"
	metricSrvPanics     = "kvnet_panics_total"
	metricSrvBatchKeys  = "kvnet_batch_keys"
	metricSrvInvalSubs  = "kvnet_inval_subs"
	metricSrvInvalPush  = "kvnet_inval_pushed_total"
	metricSrvInvalOver  = "kvnet_inval_overflows_total"
	metricSrvInflight   = "kvnet_inflight"
	metricSrvPoolWork   = "kvnet_pool_workers"
	metricSrvPoolQueue  = "kvnet_pool_queued"
	metricSrvTaggedStr  = "kvnet_tagged_streams"
	metricSrvTaggedPush = "kvnet_tagged_pushes_total"
)

// Client-side metric family names.
const (
	metricCliRequests = "kvnet_client_requests_total"
	metricCliDuration = "kvnet_client_request_ns"
	metricCliRetries  = "kvnet_client_retries_total"
	metricCliRedials  = "kvnet_client_redials_total"
	metricCliBusy     = "kvnet_client_busy_total"
	metricCliCorrupt  = "kvnet_client_corrupt_total"
	metricCliBatchKey = "kvnet_client_batch_keys"
	metricCliSplits   = "kvnet_client_batch_splits_total"
)

// serverMetrics holds the server's instruments. A nil *serverMetrics is
// valid and turns every method into a no-op, so call sites never branch
// on whether metrics are enabled.
type serverMetrics struct {
	requests [len(opNames)]*obs.Counter
	duration [len(opNames)]*obs.Histogram
	batchSz  [len(opNames)]*obs.Histogram // batch ops only

	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	activeConns  *obs.Gauge
	connsTotal   *obs.Counter
	shedConns    *obs.Counter
	corrupt      *obs.Counter
	badReq       *obs.Counter
	panics       *obs.Counter
	invalSubs    *obs.Gauge
	invalPush    *obs.Counter
	invalOver    *obs.Counter
	inflight     *obs.Gauge
	poolWork     *obs.Gauge
	poolQueue    *obs.Gauge
	taggedStr    *obs.Gauge
	taggedPushes *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		bytesRead: reg.Counter(metricSrvBytesRead,
			"Bytes read from admitted client connections.", nil),
		bytesWritten: reg.Counter(metricSrvBytesWrite,
			"Bytes written to admitted client connections.", nil),
		activeConns: reg.Gauge(metricSrvActive,
			"Client connections currently admitted.", nil),
		connsTotal: reg.Counter(metricSrvConns,
			"Client connections admitted since start.", nil),
		shedConns: reg.Counter(metricSrvShed,
			"Connections refused with stBusy at the MaxConns limit.", nil),
		corrupt: reg.Counter(metricSrvCorrupt,
			"Request frames rejected by checksum (stCorrupt sent).", nil),
		badReq: reg.Counter(metricSrvBadReq,
			"Malformed or unknown requests rejected (stBadReq sent).", nil),
		panics: reg.Counter(metricSrvPanics,
			"Handler panics converted to stError responses.", nil),
		invalSubs: reg.Gauge(metricSrvInvalSubs,
			"Invalidation streams currently subscribed.", nil),
		invalPush: reg.Counter(metricSrvInvalPush,
			"Invalidation entries published to subscribed streams.", nil),
		invalOver: reg.Counter(metricSrvInvalOver,
			"Invalidation streams terminated because their mailbox overflowed.", nil),
		inflight: reg.Gauge(metricSrvInflight,
			"Tagged requests admitted to connection worker pools and not yet retired.", nil),
		poolWork: reg.Gauge(metricSrvPoolWork,
			"Per-connection pool workers currently running, summed over connections.", nil),
		poolQueue: reg.Gauge(metricSrvPoolQueue,
			"Tagged requests waiting for a free pool worker, summed over connections.", nil),
		taggedStr: reg.Gauge(metricSrvTaggedStr,
			"Push streams (subscribe, invalidation) currently carried on tagged data connections.", nil),
		taggedPushes: reg.Counter(metricSrvTaggedPush,
			"Frames pushed to clients on stream tags (replication records, heartbeats, invalidations).", nil),
	}
	for op, name := range opNames {
		if name == "" {
			continue
		}
		l := obs.Labels{"op": name}
		m.requests[op] = reg.Counter(metricSrvRequests,
			"Requests served, by operation.", l)
		m.duration[op] = reg.Histogram(metricSrvDuration,
			"Request service time in nanoseconds (store call plus response write).", l)
	}
	for op := byte(opMGet); op <= opMDelete; op++ {
		m.batchSz[op] = reg.Histogram(metricSrvBatchKeys,
			"Keys per batch request served, by operation.",
			obs.Labels{"op": opNames[op]})
	}
	return m
}

// batchKeys records the size of one served batch request.
func (m *serverMetrics) batchKeys(op byte, n int) {
	if m == nil || int(op) >= len(m.batchSz) || m.batchSz[op] == nil {
		return
	}
	m.batchSz[op].Record(uint64(n))
}

func (m *serverMetrics) connOpened() {
	if m == nil {
		return
	}
	m.connsTotal.Inc()
	m.activeConns.Add(1)
}

func (m *serverMetrics) connClosed() {
	if m == nil {
		return
	}
	m.activeConns.Add(-1)
}

func (m *serverMetrics) connShed() {
	if m != nil {
		m.shedConns.Inc()
	}
}

func (m *serverMetrics) corruptFrame() {
	if m != nil {
		m.corrupt.Inc()
	}
}

func (m *serverMetrics) badRequest() {
	if m != nil {
		m.badReq.Inc()
	}
}

func (m *serverMetrics) panicked() {
	if m != nil {
		m.panics.Inc()
	}
}

func (m *serverMetrics) invalSubOpened() {
	if m != nil {
		m.invalSubs.Add(1)
	}
}

func (m *serverMetrics) invalSubClosed() {
	if m != nil {
		m.invalSubs.Add(-1)
	}
}

func (m *serverMetrics) invalPushed() {
	if m != nil {
		m.invalPush.Inc()
	}
}

func (m *serverMetrics) invalOverflow() {
	if m != nil {
		m.invalOver.Inc()
	}
}

func (m *serverMetrics) inflightDelta(d float64) {
	if m != nil {
		m.inflight.Add(d)
	}
}

func (m *serverMetrics) poolWorkers(d float64) {
	if m != nil {
		m.poolWork.Add(d)
	}
}

func (m *serverMetrics) poolQueued(d float64) {
	if m != nil {
		m.poolQueue.Add(d)
	}
}

func (m *serverMetrics) taggedStream(d float64) {
	if m != nil {
		m.taggedStr.Add(d)
	}
}

func (m *serverMetrics) taggedPush() {
	if m != nil {
		m.taggedPushes.Inc()
	}
}

// request records one served request. Unknown op codes were already
// counted as bad requests and carry no instrument.
func (m *serverMetrics) request(op byte, ns uint64) {
	if m == nil || int(op) >= len(m.requests) || m.requests[op] == nil {
		return
	}
	m.requests[op].Inc()
	m.duration[op].Record(ns)
}

// wrap wires a connection's reads and writes into the byte counters.
func (m *serverMetrics) wrap(conn net.Conn) net.Conn {
	if m == nil {
		return conn
	}
	return &countingConn{Conn: conn, read: m.bytesRead, written: m.bytesWritten}
}

// countingConn counts bytes as they cross the wire. Counters are atomic,
// so concurrent connections share them without coordination.
type countingConn struct {
	net.Conn
	read    *obs.Counter
	written *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.read.Add(uint64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.written.Add(uint64(n))
	}
	return n, err
}

// clientMetrics holds the client's instruments; nil is a no-op set, same
// contract as serverMetrics.
type clientMetrics struct {
	requests [len(opNames)]*obs.Counter
	duration [len(opNames)]*obs.Histogram
	batchSz  [len(opNames)]*obs.Histogram // batch ops only

	retries *obs.Counter
	redials *obs.Counter
	busy    *obs.Counter
	corrupt *obs.Counter
	splits  *obs.Counter
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	m := &clientMetrics{
		retries: reg.Counter(metricCliRetries,
			"Operation attempts beyond the first (retry policy fired).", nil),
		redials: reg.Counter(metricCliRedials,
			"Lazy reconnects after a dropped connection.", nil),
		busy: reg.Counter(metricCliBusy,
			"stBusy shed responses received from the server.", nil),
		corrupt: reg.Counter(metricCliCorrupt,
			"stCorrupt responses received (request damaged in transit).", nil),
		splits: reg.Counter(metricCliSplits,
			"Extra requests produced by splitting oversized batches.", nil),
	}
	for op, name := range opNames {
		if name == "" {
			continue
		}
		l := obs.Labels{"op": name}
		m.requests[op] = reg.Counter(metricCliRequests,
			"Client operations completed (any outcome), by operation.", l)
		m.duration[op] = reg.Histogram(metricCliDuration,
			"Client operation latency in nanoseconds, retries included.", l)
	}
	for op := byte(opMGet); op <= opMDelete; op++ {
		m.batchSz[op] = reg.Histogram(metricCliBatchKey,
			"Keys per batch operation issued, by operation.",
			obs.Labels{"op": opNames[op]})
	}
	return m
}

// batchKeys records the size of one issued batch operation.
func (m *clientMetrics) batchKeys(op byte, n int) {
	if m == nil || int(op) >= len(m.batchSz) || m.batchSz[op] == nil {
		return
	}
	m.batchSz[op].Record(uint64(n))
}

// batchSplit records extra requests produced by splitting one batch.
func (m *clientMetrics) batchSplit(n int) {
	if m != nil && n > 0 {
		m.splits.Add(uint64(n))
	}
}

// request records one completed client operation, retries and backoff
// included — the latency the caller actually experienced.
func (m *clientMetrics) request(op byte, ns uint64) {
	if m == nil || int(op) >= len(m.requests) || m.requests[op] == nil {
		return
	}
	m.requests[op].Inc()
	m.duration[op].Record(ns)
}

func (m *clientMetrics) retried() {
	if m != nil {
		m.retries.Inc()
	}
}

func (m *clientMetrics) redialed() {
	if m != nil {
		m.redials.Inc()
	}
}

func (m *clientMetrics) sawBusy() {
	if m != nil {
		m.busy.Inc()
	}
}

func (m *clientMetrics) sawCorrupt() {
	if m != nil {
		m.corrupt.Inc()
	}
}
