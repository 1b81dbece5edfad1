package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/workload"
)

// ccold measures what the compressed cold tier buys on the fig13-style
// keyspace sweep: the same skewed R50 workload against a durable store
// checkpointing every ckpt-every logged records, with Options.ColdCompress
// off (whole-keyspace sealed snapshots) and on (incremental sorted
// compressed segments + demotion of untouched keys). With snapshots the
// per-checkpoint cost grows with the keyspace, so throughput falls off a
// cliff as the keyspace outgrows what a checkpoint can amortize; segments
// cost O(dirty keys), and demotion keeps the EPC-resident hot set small,
// so the cliff — the crossover — moves to a larger keyspace. The last
// table reports each arm's crossover (the largest swept keyspace still
// holding >= 50% of its smallest-keyspace throughput);
// TestCcoldCrossoverFloor pins the shift against the committed snapshot.

func init() {
	register("ccold", "Extension: cold-tier compression + segment compaction move the EPC crossover", ccoldExp)
}

// ccoldMBs is the swept nominal keyspace, matching fig13.
var ccoldMBs = []int{119, 128, 256, 512, 1024, 1536, 2048}

func ccoldExp(p Params, w io.Writer) error {
	p = p.withDefaults()
	banner(w, p, "ccold", "cold-tier compression: durable keyspace sweep, skew R50, 16B values")
	sweep := newTable("keyspaceMB", "keys", "cold-off", "cold-on", "speedup", "swaps-off", "swaps-on")
	disk := newTable("keyspaceMB", "disk-off-kb", "disk-on-kb", "disk-ratio", "comp-ratio", "segs", "cold-keys")
	offT := make([]float64, 0, len(ccoldMBs))
	onT := make([]float64, 0, len(ccoldMBs))
	for _, mb := range ccoldMBs {
		keys := mb << 20 / 16 / p.Scale
		off, offDisk, err := ccoldPoint(p, keys, false)
		if err != nil {
			return fmt.Errorf("ccold %dMB cold-off: %w", mb, err)
		}
		on, onDisk, err := ccoldPoint(p, keys, true)
		if err != nil {
			return fmt.Errorf("ccold %dMB cold-on: %w", mb, err)
		}
		offT = append(offT, off.Throughput)
		onT = append(onT, on.Throughput)
		sweep.add(fmt.Sprintf("%d", mb), fmt.Sprintf("%d", keys),
			kops(off.Throughput), kops(on.Throughput),
			fmt.Sprintf("%.2fx", safeDiv(on.Throughput, off.Throughput)),
			fmt.Sprintf("%d", off.Stats.PageSwaps), fmt.Sprintf("%d", on.Stats.PageSwaps))
		compRatio := 1.0
		if on.Stats.CompRawBytes > 0 {
			compRatio = float64(on.Stats.CompBytes) / float64(on.Stats.CompRawBytes)
		}
		disk.add(fmt.Sprintf("%d", mb),
			fmt.Sprintf("%d", offDisk>>10), fmt.Sprintf("%d", onDisk>>10),
			fmt.Sprintf("%.2f", safeDiv(float64(onDisk), float64(offDisk))),
			fmt.Sprintf("%.2f", compRatio),
			fmt.Sprintf("%d", on.Stats.Segments), fmt.Sprintf("%d", on.Stats.ColdKeys))
	}
	sweep.write(w)
	fmt.Fprintln(w, "   [on-disk checkpoint state after the measured window]")
	disk.write(w)

	offCo := ccoldCrossover(offT)
	onCo := ccoldCrossover(onT)
	co := newTable("arm", "crossoverMB", "shift")
	co.add("cold-off", fmt.Sprintf("%d", offCo), "1.00x")
	co.add("cold-on", fmt.Sprintf("%d", onCo),
		fmt.Sprintf("%.2fx", safeDiv(float64(onCo), float64(offCo))))
	fmt.Fprintln(w, "   [crossover: largest keyspace holding >= 50% of the smallest-keyspace throughput]")
	co.write(w)
	return nil
}

// ccoldCrossover returns the largest swept keyspace (nominal MB) whose
// throughput still holds at least half of the smallest-keyspace
// throughput; the sweep is monotonically harder, so the scan stops at
// the first point below the bar.
func ccoldCrossover(tputs []float64) int {
	base := tputs[0]
	co := ccoldMBs[0]
	for i, tp := range tputs {
		if tp < base/2 {
			break
		}
		co = ccoldMBs[i]
	}
	return co
}

// ccoldPoint measures one arm at one keyspace: load the full keyspace
// into a fresh durable lineage, seal one baseline checkpoint, then
// reopen with the arm's cold-tier setting and measure the skewed R50
// workload with checkpoints driven explicitly at a fixed op cadence.
// Explicit checkpoints keep the arms deterministic — the async
// auto-checkpoint path (Options.CheckpointEvery) runs in a background
// goroutine whose completion relative to the measured window is racy and
// whose errors only surface at Close. Returns the measured point and the
// on-disk size of the checkpoint state (snapshots or segments) left
// after the window.
func ccoldPoint(p Params, keys int, cold bool) (Result, int64, error) {
	dir, err := os.MkdirTemp("", "aria-bench-ccold-")
	if err != nil {
		return Result{}, 0, err
	}
	defer os.RemoveAll(dir)
	wcfg := ycsb(keys, workload.Zipfian, 0.5, 16, 0.99, p.Seed)

	// Load phase: one explicit checkpoint at the end seals the baseline.
	opts := p.baseOptions(aria.AriaHash, keys)
	opts.DataDir = dir
	opts.Fsync = aria.FsyncNever
	loadGen, err := workload.New(wcfg)
	if err != nil {
		return Result{}, 0, err
	}
	st, err := buildStore(opts, loadGen)
	if err != nil {
		return Result{}, 0, err
	}
	if err := st.Checkpoint(); err != nil {
		return Result{}, 0, err
	}
	if err := st.Close(); err != nil {
		return Result{}, 0, err
	}

	// Measured phase: recover the lineage under the arm's configuration.
	opts.ColdCompress = cold
	st, err = aria.Open(opts)
	if err != nil {
		return Result{}, 0, err
	}
	r, err := ccoldMeasure(st, wcfg, p.Warmup, p.Ops, ccoldEvery(p))
	if cerr := st.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close after measured window: %w", cerr)
	}
	if err != nil {
		return Result{}, 0, err
	}
	size, err := checkpointStateBytes(dir)
	if err != nil {
		return Result{}, 0, err
	}
	return r, size, nil
}

// ccoldMeasure replays warmup+ops requests with an explicit synchronous
// checkpoint every `every` ops in both phases: warmup checkpoints bring
// the cold-on arm to steady state (demotion has happened) before the
// clock starts, and measured checkpoints charge their full sealing,
// compression, and paging cost to the window like any other operation.
func ccoldMeasure(st aria.Store, wcfg workload.Config, warmup, ops, every int) (Result, error) {
	gen, err := workload.New(wcfg)
	if err != nil {
		return Result{}, err
	}
	var op workload.Op
	run := func(n int, phase string) error {
		for i := 0; i < n; i++ {
			gen.Next(&op)
			if err := apply(st, &op); err != nil {
				return fmt.Errorf("%s op %d: %w", phase, i, err)
			}
			if (i+1)%every == 0 {
				if err := st.Checkpoint(); err != nil {
					return fmt.Errorf("%s checkpoint at op %d: %w", phase, i, err)
				}
			}
		}
		return nil
	}
	st.SetMeasuring(false)
	if err := run(warmup, "warmup"); err != nil {
		return Result{}, err
	}
	st.SetMeasuring(true)
	st.ResetStats()
	if err := run(ops, "measured"); err != nil {
		return Result{}, err
	}
	stats := st.Stats()
	st.SetMeasuring(false)
	r := Result{Scheme: stats.Scheme, Stats: stats}
	if stats.SimSeconds > 0 {
		r.Throughput = float64(ops) / stats.SimSeconds
	}
	return r, nil
}

// ccoldEvery is the checkpoint cadence in ops, scaled to the measured
// window so the same number of checkpoints land in it at any -ops
// setting.
func ccoldEvery(p Params) int {
	every := p.Ops / 10
	if every < 500 {
		every = 500
	}
	return every
}

// checkpointStateBytes sums the on-disk checkpoint state in dir —
// snapshots for the cold-off arm, segments plus set manifests for the
// cold-on arm — excluding the WAL, whose size the checkpoint cadence
// fixes identically across arms.
func checkpointStateBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		name := e.Name()
		if len(name) > 4 && name[:4] == "wal-" {
			continue
		}
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
