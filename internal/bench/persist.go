package bench

import (
	"fmt"
	"io"
	"os"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/workload"
)

// persist measures what sealed durability costs on the write path: the
// same insert workload against a plain in-memory store (wal-off, the
// reference arm) and against durable stores under each fsync policy.
// Every durable put pays the seal crypto (CTR + CMAC over the record),
// one boundary crossing for the group, and one simulated OCALL per
// fsync the policy issues — so fsync-always prices a full OCALL per
// record, fsync-batch amortizes it per group commit, and fsync-never
// leaves only the sealing cost. The batch=64 table shows group commit
// riding the native MPut path: one append and (under fsync-batch) one
// fsync per 64 records.

func init() {
	register("persist", "Extension: sealed WAL durability cost across fsync policies", persistExp)
}

// persistArm is one sweep arm; durable=false is the wal-off reference.
type persistArm struct {
	name    string
	durable bool
	fsync   aria.FsyncPolicy
}

var persistArms = []persistArm{
	{"wal-off", false, aria.FsyncBatch},
	{"fsync-never", true, aria.FsyncNever},
	{"fsync-batch", true, aria.FsyncBatch},
	{"fsync-always", true, aria.FsyncAlways},
}

func persistExp(p Params, w io.Writer) error {
	p = p.withDefaults()
	banner(w, p, "persist", "durable insert cost: WAL off vs fsync policies, aria-h, 16B values")
	// Fresh inserts, not overwrites: the store starts empty and the
	// workload writes warmup+ops distinct keys, so every arm performs
	// identical in-memory work and the arms differ only in what the
	// durability layer charges.
	capacity := p.Warmup + p.Ops
	for _, batch := range []int{1, 64} {
		t := newTable("arm", "puts-per-sec", "cycles-per-op", "overhead", "fsyncs")
		var base float64
		for _, arm := range persistArms {
			pt, err := measurePersist(p, arm, capacity, batch)
			if err != nil {
				return fmt.Errorf("persist %s batch=%d: %w", arm.name, batch, err)
			}
			if arm.name == "wal-off" {
				base = pt.cyclesPerOp
			}
			t.add(arm.name, kops(pt.putsPerSec),
				fmt.Sprintf("%.0f", pt.cyclesPerOp),
				fmt.Sprintf("%.2fx", safeDiv(pt.cyclesPerOp, base)),
				fmt.Sprintf("%d", pt.fsyncs))
		}
		fmt.Fprintf(w, "   [Put batch=%d]\n", batch)
		t.write(w)
	}
	return nil
}

type persistPoint struct {
	putsPerSec  float64
	cyclesPerOp float64
	fsyncs      uint64
}

// measurePersist opens one store per arm (durable arms in a throwaway
// directory), inserts p.Warmup keys unmeasured, then measures p.Ops
// inserts issued individually (batch=1) or as MPut groups.
func measurePersist(p Params, arm persistArm, capacity, batch int) (persistPoint, error) {
	opts := p.baseOptions(aria.AriaHash, capacity)
	if arm.durable {
		dir, err := os.MkdirTemp("", "aria-bench-persist-")
		if err != nil {
			return persistPoint{}, err
		}
		defer os.RemoveAll(dir)
		opts.DataDir = dir
		opts.Fsync = arm.fsync
	}
	gen, err := workload.New(ycsb(capacity, workload.Uniform, 1.0, 16, 0.99, p.Seed))
	if err != nil {
		return persistPoint{}, err
	}
	st, err := aria.Open(opts)
	if err != nil {
		return persistPoint{}, err
	}
	defer st.Close()
	insert := func(from, to int) error {
		if batch <= 1 {
			for i := from; i < to; i++ {
				if err := st.Put(gen.KeyAt(i), gen.ValueAt(i)); err != nil {
					return fmt.Errorf("put key %d: %w", i, err)
				}
			}
			return nil
		}
		for i := from; i < to; i += batch {
			n := batch
			if i+n > to {
				n = to - i
			}
			pairs := make([]aria.KV, n)
			for j := range pairs {
				pairs[j] = aria.KV{Key: gen.KeyAt(i + j), Value: gen.ValueAt(i + j)}
			}
			for j, e := range st.MPut(pairs) {
				if e != nil {
					return fmt.Errorf("mput key %d: %w", i+j, e)
				}
			}
		}
		return nil
	}
	st.SetMeasuring(false)
	if err := insert(0, p.Warmup); err != nil {
		return persistPoint{}, err
	}
	st.SetMeasuring(true)
	st.ResetStats()
	fsyncs0 := st.Stats().WALFsyncs
	if err := insert(p.Warmup, p.Warmup+p.Ops); err != nil {
		return persistPoint{}, err
	}
	stats := st.Stats()
	st.SetMeasuring(false)
	pt := persistPoint{fsyncs: stats.WALFsyncs - fsyncs0}
	if p.Ops > 0 {
		pt.cyclesPerOp = float64(stats.SimCycles) / float64(p.Ops)
	}
	if stats.SimSeconds > 0 {
		pt.putsPerSec = float64(p.Ops) / stats.SimSeconds
	}
	return pt, nil
}
