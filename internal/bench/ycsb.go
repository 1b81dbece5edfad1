package bench

import (
	"fmt"
	"io"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/workload"
)

// ycsbexp runs the full YCSB core-workload gauntlet A–F at Zipf-0.99
// against the four hash schemes, at 1 and 4 shards, on the simulated
// clock:
//
//	A  update-heavy   50% read / 50% update
//	B  read-mostly    95% read /  5% update
//	C  read-only     100% read
//	D  read-latest    95% read of recent inserts / 5% insert
//	E  short-ranges   95% scans (1–16 keys) / 5% insert
//	F  read-modify    50% read / 50% GetV+CompareAndSwap cycles
//
// E uses ordered Scan and, where the index answers ErrNoScan, falls
// back to an MGet over consecutive key indices, so the hash
// schemes pay a batch of point lookups — the honest cost of a range
// query on a hash-partitioned store. F drives the version-checked CAS
// path end to end. Within one (scheme, shards) cell the six workloads
// share a store build; D and E's inserts carry forward, which is
// deterministic and identical across runs.

func init() {
	register("ycsb", "YCSB A-F gauntlet (zipf-0.99) across schemes and shard counts", ycsbexp)
}

const (
	ycsbLatestWindow = 1024 // D reads concentrate on this many newest keys
	ycsbMaxScanLen   = 16   // E's range length: 1..16 keys
)

var ycsbSchemes = []aria.Scheme{
	aria.BaselineHash, aria.NoCacheHash, aria.ShieldStoreScheme, aria.AriaHash,
}

func ycsbexp(p Params, w io.Writer) error {
	p = p.withDefaults()
	banner(w, p, "ycsb", "A-F, zipf-0.99, 16B values, 1 and 4 shards")
	keys := p.keys10M()
	t := newTable("workload", "scheme", "shards", "throughput")
	rows := make(map[string][]string)
	for _, scheme := range ycsbSchemes {
		for _, shards := range []int{1, 4} {
			opts := p.baseOptions(scheme, keys)
			opts.Shards = shards
			loadGen, err := workload.New(ycsb(keys, workload.Zipfian, 1, 16, 0.99, p.Seed))
			if err != nil {
				return err
			}
			st, err := buildStore(opts, loadGen)
			if err != nil {
				return fmt.Errorf("ycsb %v/%d: %w", scheme, shards, err)
			}
			inserted := keys
			for _, letter := range []byte{'A', 'B', 'C', 'D', 'E', 'F'} {
				r, err := measureYCSB(st, p, letter, keys, &inserted)
				if err != nil {
					return fmt.Errorf("ycsb %c %v/%d: %w", letter, scheme, shards, err)
				}
				key := string(letter)
				rows[key] = append(rows[key],
					fmt.Sprintf("%v", r.Scheme), fmt.Sprintf("%d", shards), kops(r.Throughput))
			}
		}
	}
	// Group the table by workload letter so each block reads as one
	// scheme comparison.
	for _, letter := range []string{"A", "B", "C", "D", "E", "F"} {
		cells := rows[letter]
		for i := 0; i < len(cells); i += 3 {
			t.add(letter, cells[i], cells[i+1], cells[i+2])
		}
	}
	t.write(w)
	return nil
}

// ycsbReadRatio is the read (or scan) fraction of each core workload.
func ycsbReadRatio(letter byte) float64 {
	switch letter {
	case 'A', 'F':
		return 0.5
	case 'C':
		return 1.0
	default: // B, D, E
		return 0.95
	}
}

// measureYCSB replays warmup+ops requests of one core workload against
// st and returns the simulated throughput of the measured window,
// mirroring measure().
func measureYCSB(st aria.Store, p Params, letter byte, keys int, inserted *int) (Result, error) {
	gen, err := workload.New(ycsb(keys, workload.Zipfian, ycsbReadRatio(letter), 16, 0.99, p.Seed+int64(letter)))
	if err != nil {
		return Result{}, err
	}
	st.SetMeasuring(false)
	for i := 0; i < p.Warmup; i++ {
		if err := applyYCSB(st, gen, letter, inserted); err != nil {
			return Result{}, err
		}
	}
	st.SetMeasuring(true)
	st.ResetStats()
	reg := currentRegistry()
	if reg != nil {
		reg.Reset()
	}
	for i := 0; i < p.Ops; i++ {
		if err := applyYCSB(st, gen, letter, inserted); err != nil {
			return Result{}, err
		}
	}
	stats := st.Stats()
	st.SetMeasuring(false)
	if reg != nil {
		captureLatency(reg, stats.Scheme, p.Ops)
	}
	r := Result{Scheme: stats.Scheme, Stats: stats}
	if stats.SimSeconds > 0 {
		r.Throughput = float64(p.Ops) / stats.SimSeconds
	}
	return r, nil
}

// applyYCSB issues one request of the given core workload. gen's
// read/write coin carries the workload's mix; the key index comes from
// the Zipfian (or, for D, the read-latest window over inserts).
func applyYCSB(st aria.Store, gen *workload.Generator, letter byte, inserted *int) error {
	var op workload.Op
	switch letter {
	case 'A', 'B', 'C':
		gen.Next(&op)
		return apply(st, &op)
	case 'D':
		gen.Next(&op)
		if !op.Read {
			return ycsbInsert(st, gen, inserted)
		}
		window := ycsbLatestWindow
		if window > *inserted {
			window = *inserted
		}
		idx := *inserted - 1 - gen.NextIndex()%window
		_, err := st.Get(gen.KeyAt(idx))
		if err == aria.ErrNotFound {
			return nil
		}
		return err
	case 'E':
		gen.Next(&op)
		if !op.Read {
			return ycsbInsert(st, gen, inserted)
		}
		return ycsbScan(st, gen, *inserted)
	case 'F':
		gen.Next(&op)
		idx := gen.NextIndex()
		if op.Read {
			_, err := st.Get(gen.KeyAt(idx))
			if err == aria.ErrNotFound {
				return nil
			}
			return err
		}
		// Read-modify-write through the version-checked path. The driver
		// is single-threaded, so the CAS always wins; the point is the
		// cost of the GetV+CAS cycle, not contention.
		_, ver, err := st.GetV(gen.KeyAt(idx))
		if err != nil && err != aria.ErrNotFound {
			return err
		}
		return st.CompareAndSwap(gen.KeyAt(idx), gen.ValueAt(idx), ver)
	}
	return fmt.Errorf("unknown YCSB workload %c", letter)
}

// ycsbInsert appends the next fresh key (D and E's 5% insert mix).
func ycsbInsert(st aria.Store, gen *workload.Generator, inserted *int) error {
	idx := *inserted
	if err := st.Put(gen.KeyAt(idx), gen.ValueAt(idx)); err != nil {
		return err
	}
	*inserted++
	return nil
}

// ycsbScan runs one YCSB E range: an ordered Scan when the index keeps
// order, else an MGet over consecutive key indices.
func ycsbScan(st aria.Store, gen *workload.Generator, inserted int) error {
	start := gen.NextIndex()
	n := 1 + start%ycsbMaxScanLen
	left := n
	lo := append([]byte(nil), gen.KeyAt(start)...)
	err := st.Scan(lo, nil, func(k, v []byte) bool {
		left--
		return left > 0
	})
	if err == nil {
		return nil
	}
	if err != aria.ErrNoScan {
		return err
	}
	// Hash-indexed: fall through to the point-lookup batch.
	batch := make([][]byte, 0, n)
	for j := 0; j < n; j++ {
		batch = append(batch, append([]byte(nil), gen.KeyAt((start+j)%inserted)...))
	}
	_, errs := st.MGet(batch)
	for i, err := range errs {
		if err != nil && err != aria.ErrNotFound {
			return fmt.Errorf("scan fallback key %d: %w", i, err)
		}
	}
	return nil
}
