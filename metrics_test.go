package aria

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/ariakv/aria/obs"
)

func testKey(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func testValue(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }

// TestMetricsDisabledPathUnchanged pins what Options.Metrics does and
// does not add. Set, every shard's instruments land in the registry
// under its own shard label; nil, operations allocate exactly what they
// allocate with instruments on — the observe stage is a nil check, not a
// second code path with its own garbage (TestOpPathAllocs pins the
// absolute numbers, make metrics-guard the branch's wall-clock cost).
func TestMetricsDisabledPathUnchanged(t *testing.T) {
	open := func(shards int, reg *obs.Registry) Store {
		st, err := Open(Options{Scheme: AriaHash, ExpectedKeys: 100, Shards: shards, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := st.Put(testKey(i), testValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	for _, shards := range []int{1, 4} {
		reg := obs.NewRegistry()
		plain, metered := open(shards, nil), open(shards, reg)
		snap := reg.Snapshot()
		var puts float64
		for i := 0; i < shards; i++ {
			l := obs.Labels{"shard": fmt.Sprint(i)}
			if _, ok := snap.Value(metricKeys, l); !ok {
				t.Errorf("Shards=%d: no %s series for shard %d", shards, metricKeys, i)
			}
			l["op"] = "put"
			n, ok := snap.Value(metricOpsTotal, l)
			if !ok {
				t.Errorf("Shards=%d: no %s{op=put} series for shard %d", shards, metricOpsTotal, i)
			}
			puts += n
		}
		if puts != 100 {
			t.Errorf("Shards=%d: %s{op=put} sums to %v over the shards, want 100", shards, metricOpsTotal, puts)
		}
		for name, op := range map[string]func(Store){
			"Get": func(st Store) { _, _ = st.Get(testKey(7)) },
			"Put": func(st Store) { _ = st.Put(testKey(7), testValue(7)) },
		} {
			off := testing.AllocsPerRun(200, func() { op(plain) })
			on := testing.AllocsPerRun(200, func() { op(metered) })
			if off != on {
				t.Errorf("Shards=%d %s: %v allocs/op with Metrics nil, %v with Metrics set", shards, name, off, on)
			}
		}
	}
}

// TestMeteredSimCyclesUnchanged runs the same operation sequence on a
// metered and an unmetered store and requires identical simulated
// clocks: instrumentation only reads the cycle counter, so the
// simulation results the benchmarks report cannot shift when metrics
// are on.
func TestMeteredSimCyclesUnchanged(t *testing.T) {
	for _, scheme := range []Scheme{AriaHash, AriaBPTree} {
		t.Run(fmt.Sprint(scheme), func(t *testing.T) {
			run := func(reg *obs.Registry) Stats {
				st, err := Open(Options{
					Scheme: scheme, ExpectedKeys: 500, Seed: 11, Metrics: reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 500; i++ {
					if err := st.Put(testKey(i), testValue(i)); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 1000; i++ {
					if _, err := st.Get(testKey(i % 700)); err != nil && err != ErrNotFound {
						t.Fatal(err)
					}
				}
				for i := 0; i < 100; i++ {
					if err := st.Delete(testKey(i)); err != nil {
						t.Fatal(err)
					}
				}
				return st.Stats()
			}
			plain := run(nil)
			metered := run(obs.NewRegistry())
			if plain.SimCycles != metered.SimCycles {
				t.Fatalf("SimCycles diverged: plain=%d metered=%d", plain.SimCycles, metered.SimCycles)
			}
			if plain.PageSwaps != metered.PageSwaps || plain.MACs != metered.MACs {
				t.Fatalf("event counters diverged: plain=%+v metered=%+v", plain, metered)
			}
		})
	}
}

// TestMetricsRecorded checks that operations land in the registry: op
// counters count, latency histograms fill, and the scrape-time
// collector reports the enclave's event counters per shard.
func TestMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(Options{
		Scheme: AriaBPTree, ExpectedKeys: 200, Shards: 2, Seed: 3, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := st.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := st.Get(testKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	scanned := 0
	if err := st.Scan(nil, nil, func(k, v []byte) bool {
		scanned++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != n {
		t.Fatalf("scan visited %d keys, want %d", scanned, n)
	}

	snap := reg.Snapshot()
	if got, _ := snap.Value(metricOpsTotal, obs.Labels{"op": "put"}); got != n {
		t.Fatalf("%s{op=put} = %v, want %d", metricOpsTotal, got, n)
	}
	if got, _ := snap.Value(metricOpsTotal, obs.Labels{"op": "get"}); got != n {
		t.Fatalf("%s{op=get} = %v, want %d", metricOpsTotal, got, n)
	}
	h, ok := snap.Histogram(metricOpWallNs, obs.Labels{"op": "get"})
	if !ok || h.Count != n {
		t.Fatalf("wall histogram: ok=%v count=%d, want count %d", ok, h.Count, n)
	}
	hc, ok := snap.Histogram(metricOpSimCycles, obs.Labels{"op": "get"})
	if !ok || hc.Count != n || hc.Sum == 0 {
		t.Fatalf("cycle histogram: ok=%v count=%d sum=%d", ok, hc.Count, hc.Sum)
	}
	// Collector-sourced counters must be present for every shard and sum
	// to the aggregate Stats figure.
	agg := st.Stats()
	var macs float64
	for _, shard := range []string{"0", "1"} {
		v, ok := snap.Value(metricMACsTotal, obs.Labels{"shard": shard})
		if !ok || v == 0 {
			t.Fatalf("%s{shard=%s} = %v (ok=%v), want > 0", metricMACsTotal, shard, v, ok)
		}
		macs += v
	}
	if uint64(macs) != agg.MACs {
		t.Fatalf("per-shard MACs sum %v != aggregate %d", macs, agg.MACs)
	}
	if got, _ := snap.Value(metricKeys, nil); int(got) != agg.Keys {
		t.Fatalf("%s = %v, want %d", metricKeys, got, agg.Keys)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`aria_op_wall_ns_bucket{op="get",shard="0",le="+Inf"}`,
		`aria_ecalls_total{shard="1"}`,
		`aria_cache_misses_total{shard="0"}`,
		`aria_health{shard="0"} 0`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMetricsScrapeRace hammers a metered sharded store with writers
// while scraping, snapshotting, and running fault-injection reads from
// other goroutines. Run under -race this proves the registry is the
// single synchronized read path into the simulator's plain counters —
// the race the unsynchronized snapshot reads used to lose.
func TestMetricsScrapeRace(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(Options{
		Scheme: AriaHash, ExpectedKeys: 2000, Shards: 4, Seed: 5, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := testKey(w*1000 + i%1000)
				_ = st.Put(k, testValue(i))
				_, _ = st.Get(k)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf.Reset()
			_ = reg.WritePrometheus(&buf)
			_ = reg.Snapshot()
			_ = st.Stats()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = st.UntrustedSize()
			_ = st.SnapshotUntrusted()
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := st.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsOverheadGuard is the CI benchmark guard for the disabled
// path: on a fig9-style read-heavy microbench it times Get on a store
// opened with Metrics nil against the same store's read stages called
// directly — lock, reap, guarded engine read: the op path as a build
// without instruments (or a cold tier) would have it — and fails if the
// nil checks cost more than 2%. Timing-sensitive, so it only runs when
// METRICS_GUARD=1 (the `make metrics-guard` CI step).
func TestMetricsOverheadGuard(t *testing.T) {
	if os.Getenv("METRICS_GUARD") == "" {
		t.Skip("set METRICS_GUARD=1 to run the disabled-overhead benchmark guard")
	}
	const keys = 20000
	const opsPerRound = 100000
	const rounds = 21

	st, err := Open(Options{Scheme: AriaHash, ExpectedKeys: keys, MeasureOff: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := st.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := st.(*shard)
	raw := func(key []byte) ([]byte, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		v, _, err := s.get(key)
		return v, err
	}
	round := func(get func([]byte) ([]byte, error)) time.Duration {
		t0 := time.Now()
		for i := 0; i < opsPerRound; i++ {
			if _, err := get(testKey(i % keys)); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	// Warm both paths once, then time them in adjacent pairs — alternating
	// which goes first — and take the median of the per-pair ratios: drift
	// in the machine's state lands on both sides of a pair alike, and one
	// disturbed pair does not set the result. Identical code measures
	// within about ±1% this way on a shared 2-CPU box, so a measurement
	// over budget is retried: a real regression is over budget every time.
	round(raw)
	round(s.Get)
	const attempts = 3
	best := 1.0
	for a := 0; a < attempts && best > 0.02; a++ {
		ratios := make([]float64, rounds)
		for r := range ratios {
			var rawD, openD time.Duration
			if r%2 == 0 {
				rawD, openD = round(raw), round(s.Get)
			} else {
				openD, rawD = round(s.Get), round(raw)
			}
			ratios[r] = float64(openD) / float64(rawD)
		}
		sort.Float64s(ratios)
		overhead := ratios[rounds/2] - 1
		t.Logf("attempt %d: median overhead %+.2f%% over %d pairs", a+1, overhead*100, rounds)
		best = min(best, overhead)
	}
	if best > 0.02 {
		t.Fatalf("disabled-metrics path overhead %.2f%% exceeds 2%% budget in %d attempts", best*100, attempts)
	}
}
