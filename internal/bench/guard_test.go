package bench_test

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/bench"
)

// TestBenchRegressionGuard re-runs the committed benchmark snapshots
// in-process and fails if any table value differs at all from
// BENCH_<exp>.json. The simulated clock is deterministic for a given seed
// and scale, so the committed tables are an exact oracle: a refactor
// leaves every value bit-identical, and a change that moves one — a
// charge added, dropped or reordered across a page swap — is a
// cost-model or algorithm change and regenerates the snapshot on purpose
// (make bench-json). ARIA_COST_PERTURB=1.06 demonstrates the guard has
// teeth (see Makefile bench-smoke-demo). ccold stays out: its swaps-on
// column drifts 0.3–1.5% run to run on an unchanged tree (segment
// checkpoints read keys in map order) and is pinned by the floor tests
// below instead; wire is wall-clock.
//
// Skipped unless BENCH_GUARD=1: the fig9 grid takes ~1 minute.
func TestBenchRegressionGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 to run the bench-regression guard")
	}
	for _, exp := range []string{"fig9", "batch", "persist", "repl", "ccache", "ycsb", "xshard"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			want := loadReport(t, exp)
			e, ok := bench.Lookup(exp)
			if !ok {
				t.Fatalf("experiment %q not registered", exp)
			}
			p := bench.Params{Scale: want.Scale, Ops: want.Ops, Seed: want.Seed}
			got, err := bench.RunCollect(e, p, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Tables) != len(want.Tables) {
				t.Fatalf("table count changed: got %d, committed %d", len(got.Tables), len(want.Tables))
			}
			for ti, wt := range want.Tables {
				gt := got.Tables[ti]
				if len(gt.Rows) != len(wt.Rows) {
					t.Fatalf("table %d: row count changed: got %d, committed %d", ti, len(gt.Rows), len(wt.Rows))
				}
				for ri, wr := range wt.Rows {
					gr := gt.Rows[ri]
					for col, wv := range wr.Values {
						gv, ok := gr.Values[col]
						if !ok {
							t.Errorf("table %d row %v: column %q no longer numeric", ti, wr.Cells, col)
							continue
						}
						if gv != wv {
							t.Errorf("table %d row %v col %q: %v, committed %v", ti, wr.Cells, col, gv, wv)
						}
					}
				}
			}
		})
	}
}

// TestBatchAmortizationFloor pins the headline batching claim against the
// committed snapshot: for the shielded scheme, MGet at batch=64 costs at
// most a quarter of the single-op (batch=1) sim-cycles per key.
func TestBatchAmortizationFloor(t *testing.T) {
	rep := loadReport(t, "batch")
	if len(rep.Tables) == 0 {
		t.Fatal("BENCH_batch.json has no tables")
	}
	mget := rep.Tables[0] // first table is the MGet sweep
	perKey := func(scheme string, batch int) float64 {
		t.Helper()
		for _, r := range mget.Rows {
			if len(r.Cells) >= 2 && r.Cells[0] == scheme && r.Cells[1] == strconv.Itoa(batch) {
				if v, ok := r.Values["cycles-per-key"]; ok {
					return v
				}
			}
		}
		t.Fatalf("no cycles-per-key row for %s batch=%d", scheme, batch)
		return 0
	}
	for _, scheme := range []string{"shieldstore", "aria-h"} {
		single := perKey(scheme, 1)
		batched := perKey(scheme, 64)
		if ratio := batched / single; ratio > 0.25 {
			t.Errorf("%s: MGet@64 = %.0f cycles/key vs %.0f single (%.3fx > 0.25x)",
				scheme, batched, single, ratio)
		}
	}
}

// TestCcacheSpeedupFloor pins the client-cache headline against the
// committed snapshot: at Zipf-0.99 read-only with the largest swept
// cache, client-observed read throughput is at least 5x the cache-off
// baseline. The uniform rows are the control — no skew, no win — so a
// regression here means the cache stopped exploiting skew, not that
// the workload moved.
func TestCcacheSpeedupFloor(t *testing.T) {
	rep := loadReport(t, "ccache")
	if len(rep.Tables) == 0 {
		t.Fatal("BENCH_ccache.json has no tables")
	}
	speedup := func(workload, cache string) float64 {
		t.Helper()
		for _, r := range rep.Tables[0].Rows {
			if len(r.Cells) >= 2 && r.Cells[0] == workload && r.Cells[1] == cache {
				if v, ok := r.Values["speedup"]; ok {
					return v
				}
			}
		}
		t.Fatalf("no speedup row for %s cache=%s", workload, cache)
		return 0
	}
	if s := speedup("zipf0.99-R100", "75%"); s < 5.0 {
		t.Errorf("zipf0.99-R100 @75%% cache: %.2fx speedup, want >= 5x", s)
	}
	// The control must stay a non-win: a tiny cache under uniform load
	// buying >1.5x would mean the harness is no longer charging misses.
	if s := speedup("uniform-R95", "1%"); s > 1.5 {
		t.Errorf("uniform-R95 @1%% cache: %.2fx speedup; control should be flat", s)
	}
}

// TestYCSBSkewFloor pins the paper's headline on the YCSB gauntlet
// against the committed snapshot: on the read-mostly skewed workload
// (B, Zipf-0.99, one enclave), Aria-H must hold at least 8x the
// encrypted baseline and at least 1.5x the no-cache scheme. The
// committed run shows ~16x and ~2.6x, so the floors have headroom for
// small cost-model reshuffles while still catching a lost Secure Cache
// or a mispriced hot path.
func TestYCSBSkewFloor(t *testing.T) {
	rep := loadReport(t, "ycsb")
	if len(rep.Tables) == 0 {
		t.Fatal("BENCH_ycsb.json has no tables")
	}
	tput := func(workload, scheme, shards string) float64 {
		t.Helper()
		for _, r := range rep.Tables[0].Rows {
			if len(r.Cells) >= 3 && r.Cells[0] == workload && r.Cells[1] == scheme && r.Cells[2] == shards {
				if v, ok := r.Values["throughput"]; ok {
					return v
				}
			}
		}
		t.Fatalf("no throughput row for %s/%s/%s shards", workload, scheme, shards)
		return 0
	}
	ariaB := tput("B", "aria-h", "1")
	if base := tput("B", "baseline-h", "1"); ariaB < 8*base {
		t.Errorf("YCSB B: aria-h %.0f vs baseline-h %.0f (%.1fx < 8x floor)", ariaB, base, ariaB/base)
	}
	if nc := tput("B", "nocache-h", "1"); ariaB < 1.5*nc {
		t.Errorf("YCSB B: aria-h %.0f vs nocache-h %.0f (%.2fx < 1.5x floor)", ariaB, nc, ariaB/nc)
	}
	// Every workload letter must be present for every scheme at both
	// shard counts — a silently dropped cell would otherwise pass.
	for _, wl := range []string{"A", "B", "C", "D", "E", "F"} {
		for _, scheme := range []string{"baseline-h", "nocache-h", "shieldstore", "aria-h"} {
			for _, shards := range []string{"1", "4"} {
				if tput(wl, scheme, shards) <= 0 {
					t.Errorf("YCSB %s/%s/%s: nonpositive throughput", wl, scheme, shards)
				}
			}
		}
	}
}

func loadReport(t *testing.T, exp string) *bench.Report {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", fmt.Sprintf("BENCH_%s.json", exp)))
	if err != nil {
		t.Fatalf("read committed snapshot: %v", err)
	}
	var rep bench.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse committed snapshot: %v", err)
	}
	return &rep
}

// TestCcoldCrossoverFloor pins the cold-tier headline against the
// committed snapshot: on the fig13-style keyspace sweep, the crossover
// keyspace — the largest swept keyspace still holding half the
// smallest-keyspace throughput — must be at least 1.5x larger with
// Options.ColdCompress on than off. Like the other floors it runs
// ungated (no BENCH_GUARD): it only reads BENCH_ccold.json, so it is
// cheap, and it is the acceptance check that the compressed cold tier
// actually moves the EPC cliff rather than just shrinking disk.
func TestCcoldCrossoverFloor(t *testing.T) {
	rep := loadReport(t, "ccold")
	if len(rep.Tables) < 3 {
		t.Fatalf("BENCH_ccold.json has %d tables, want 3 (sweep, disk, crossover)", len(rep.Tables))
	}
	crossover := func(arm string) float64 {
		t.Helper()
		for _, r := range rep.Tables[2].Rows {
			if len(r.Cells) > 0 && r.Cells[0] == arm {
				if v, ok := r.Values["crossoverMB"]; ok {
					return v
				}
			}
		}
		t.Fatalf("no crossover row for arm %q", arm)
		return 0
	}
	off := crossover("cold-off")
	on := crossover("cold-on")
	if off <= 0 || on <= 0 {
		t.Fatalf("degenerate crossovers: off=%v on=%v", off, on)
	}
	if shift := on / off; shift < 1.5 {
		t.Errorf("cold-on crossover %vMB vs cold-off %vMB: shift %.2fx below the 1.5x floor",
			on, off, shift)
	}
}

// TestColdSnapshotSizeGuard is the live on-disk regression guard for the
// compressed checkpoint format: the same corpus checkpointed through
// compacted segments must occupy at most 0.6x the bytes of a raw sealed
// snapshot. It runs the real checkpoint paths on a few hundred keys, so
// it is cheap enough to stay ungated.
func TestColdSnapshotSizeGuard(t *testing.T) {
	value := func(i int) []byte {
		v := make([]byte, 64)
		for j := range v {
			v[j] = byte('a' + (i+j)%26)
		}
		return v
	}
	stateBytes := func(cold bool) int64 {
		t.Helper()
		dir := t.TempDir()
		st, err := aria.Open(aria.Options{
			Scheme:               aria.AriaHash,
			EPCBytes:             32 << 20,
			ExpectedKeys:         1024,
			SecureCacheBytes:     1 << 20,
			PinBudgetBytes:       64 << 10,
			ShieldStoreRootBytes: 16 << 10,
			Seed:                 5,
			DataDir:              dir,
			ColdCompress:         cold,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := st.Put([]byte(fmt.Sprintf("key-%05d", i)), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, e := range entries {
			if len(e.Name()) > 4 && e.Name()[:4] == "wal-" {
				continue
			}
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		if total == 0 {
			t.Fatalf("cold=%v checkpoint left no state on disk", cold)
		}
		return total
	}
	snap := stateBytes(false)
	seg := stateBytes(true)
	if ratio := float64(seg) / float64(snap); ratio > 0.6 {
		t.Errorf("compacted segments %dB vs raw snapshot %dB: %.2fx above the 0.6x ceiling",
			seg, snap, ratio)
	}
}

// TestWireSpeedupFloor pins the multiplexed-transport headline against
// the committed snapshot: on ONE connection, pipelining 16 requests
// deep is at least 3x lock-step throughput. The wire experiment runs on
// the real network stack and the wall clock, so it is deliberately NOT
// in the exact-match guard above — absolute numbers move with the machine.
// The floor checks the ratio, which is a transport property; with
// BENCH_GUARD=1 it is additionally re-verified against a live run.
func TestWireSpeedupFloor(t *testing.T) {
	const floor = 3.0
	check := func(src string, rep *bench.Report) {
		t.Helper()
		if len(rep.Tables) == 0 {
			t.Fatalf("%s wire report has no tables", src)
		}
		for _, r := range rep.Tables[0].Rows {
			if len(r.Cells) > 0 && r.Cells[0] == "16" {
				if v, ok := r.Values["speedup"]; !ok || v < floor {
					t.Errorf("%s: depth-16 speedup %.2fx below the %.1fx floor", src, v, floor)
				}
				return
			}
		}
		t.Fatalf("%s wire report has no depth-16 row", src)
	}
	rep := loadReport(t, "wire")
	check("committed", rep)

	if os.Getenv("BENCH_GUARD") != "1" {
		return
	}
	e, ok := bench.Lookup("wire")
	if !ok {
		t.Fatal("experiment \"wire\" not registered")
	}
	p := bench.Params{Scale: rep.Scale, Ops: rep.Ops, Seed: rep.Seed}
	got, err := bench.RunCollect(e, p, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check("live", got)
}
