package aria

// Batched operations. A batch enters the enclave once: the marshalled
// request is copied across the boundary in one shot, every key is served
// inside, and the marshalled response is copied back out. The per-key cost
// therefore approaches the pure in-enclave work as the batch grows, which
// is exactly the amortization the paper's cost model rewards — edge
// crossings and boundary copies dominate small-operation workloads
// (DESIGN.md §8 works through the accounting per scheme).
//
// The shard's batch paths (shard.go: mget, mwrite) run every key through
// the same guarded engine call a single op uses, so integrity policies
// (FailStop/Quarantine) apply per key inside a batch exactly as they do
// outside one.

// KV is one key/value pair of a batched MPut.
type KV struct {
	Key   []byte // key bytes; same limits as Put
	Value []byte // value bytes; same limits as Put
}

// Marshalled record sizes for batch edge accounting. They mirror the kvnet
// wire layout (kvnet/protocol.go) so a store embedded in a server charges
// the same boundary bytes the network path actually moves: a 5-byte batch
// header (op + count), 2-byte key length + key per request record, 4-byte
// value length + value where a value travels, and a status byte per
// response record.
const (
	batchHdrBytes     = 5
	batchKeyHdrBytes  = 2
	batchValHdrBytes  = 4
	batchStatusBytes  = 1
	batchRespPerValue = batchStatusBytes + batchValHdrBytes
)

// batchErr materializes the positional error slice on first failure, so a
// fully successful batch returns a nil slice without allocating.
func batchErr(errs []error, n, i int, err error) []error {
	if errs == nil {
		errs = make([]error, n)
	}
	errs[i] = err
	return errs
}
