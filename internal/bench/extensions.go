package bench

import (
	"fmt"
	"io"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/workload"
)

// Extension experiments beyond the paper's figures: ablations for the
// §IV-C semantic-aware swap optimizations the paper describes but does not
// isolate, and a range-scan characterization of the B+-tree index the
// paper leaves as future work (§VII).

func init() {
	register("xswap", "Extension: §IV-C swap-optimization ablation (clean-discard)", xswap)
	register("xscan", "Extension: B+-tree range scans vs repeated Gets", xscan)
}

// xswap isolates the avoid-write-back-for-clean-items optimization: under a
// read-heavy workload whose working set exceeds the Secure Cache, most
// evictions are clean, so EWB-style unconditional write-back pays pure
// overhead.
func xswap(p Params, w io.Writer) error {
	p = p.withDefaults()
	banner(w, p, "xswap", "clean-discard on/off, skew and uniform, R95/R50")
	keys := p.keys10M()
	t := newTable("workload", "clean-discard", "throughput", "cache-misses")
	for _, wl := range []struct {
		name string
		dist workload.Dist
		read float64
	}{
		{"skew-R95", workload.Zipfian, 0.95},
		{"skew-R50", workload.Zipfian, 0.50},
		{"uniform-R95", workload.Uniform, 0.95},
	} {
		for _, discard := range []bool{true, false} {
			opts := p.baseOptions(aria.AriaHash, keys)
			opts.DisableCleanDiscard = !discard
			// Stop-swap would hide eviction behaviour entirely
			// under uniform; disable it so the cache keeps
			// swapping in both arms.
			opts.DisableStopSwap = true
			r, err := runPoint(p, opts, ycsb(keys, wl.dist, wl.read, 16, 0.99, p.Seed))
			if err != nil {
				return fmt.Errorf("xswap %s discard=%v: %w", wl.name, discard, err)
			}
			t.add(wl.name, fmt.Sprintf("%v", discard), kops(r.Throughput),
				fmt.Sprintf("%d", r.Stats.CacheMisses))
		}
	}
	t.write(w)
	return nil
}

// xscan compares a B+-tree range scan against issuing the same keys as
// point lookups, for several range lengths.
func xscan(p Params, w io.Writer) error {
	p = p.withDefaults()
	banner(w, p, "xscan", "range scan vs point gets (Aria-BP)")
	keys := p.keys10M() / 4 // trees are ~10x slower; keep setup bounded
	if keys < 4096 {
		keys = 4096
	}
	opts := p.baseOptions(aria.AriaBPTree, keys)
	gen, err := workload.New(workload.Config{Keys: keys, ValueSize: 64, Seed: p.Seed})
	if err != nil {
		return err
	}
	st, err := buildStore(opts, gen)
	if err != nil {
		return err
	}
	t := newTable("range-len", "scan-ops/s", "pointget-ops/s", "speedup")
	for _, rangeLen := range []int{10, 100, 1000} {
		rounds := 2000 / rangeLen
		if rounds < 3 {
			rounds = 3
		}
		// Scans.
		st.SetMeasuring(true)
		st.ResetStats()
		visited := 0
		for r := 0; r < rounds; r++ {
			startIdx := (r * 7919) % (keys - rangeLen)
			start := append([]byte(nil), gen.KeyAt(startIdx)...)
			end := append([]byte(nil), gen.KeyAt(startIdx+rangeLen)...)
			if err := st.Scan(start, end, func(k, v []byte) bool {
				visited++
				return true
			}); err != nil {
				return err
			}
		}
		scanStats := st.Stats()
		scanThr := float64(visited) / scanStats.SimSeconds

		// The same pairs as point lookups.
		st.ResetStats()
		got := 0
		for r := 0; r < rounds; r++ {
			startIdx := (r * 7919) % (keys - rangeLen)
			for i := 0; i < rangeLen; i++ {
				if _, err := st.Get(gen.KeyAt(startIdx + i)); err != nil {
					return err
				}
				got++
			}
		}
		getStats := st.Stats()
		getThr := float64(got) / getStats.SimSeconds
		st.SetMeasuring(false)
		t.add(fmt.Sprintf("%d", rangeLen), kops(scanThr), kops(getThr),
			fmt.Sprintf("%.2fx", scanThr/getThr))
	}
	t.write(w)
	return nil
}
