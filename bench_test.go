package aria_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/internal/bench"
	"github.com/ariakv/aria/internal/workload"
)

// Two kinds of benchmarks live here:
//
//  1. Micro-benchmarks (BenchmarkGet*/BenchmarkPut*) drive individual store
//     operations for b.N iterations. Wall time measures the implementation;
//     the sim_Mops/s metric reports throughput on the simulated SGX clock,
//     which is what the paper's figures plot.
//
//  2. Figure benchmarks (BenchmarkFig* / BenchmarkTable1) each regenerate
//     one table or figure of the paper at a reduced scale, printing the
//     same rows the full-size `aria-bench -exp <id>` run produces. One
//     b.N iteration = one full experiment.

const (
	microKeys = 100000
	benchEPC  = 8 << 20
)

func microStore(b *testing.B, scheme aria.Scheme) (aria.Store, *workload.Generator) {
	b.Helper()
	st, err := aria.Open(aria.Options{
		Scheme:       scheme,
		EPCBytes:     benchEPC,
		ExpectedKeys: microKeys,
		MeasureOff:   true,
		Seed:         9,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.New(workload.Config{
		Keys: microKeys, Dist: workload.Zipfian, Skew: 0.99,
		ReadRatio: 1.0, ValueSize: 64, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < microKeys; i++ {
		if err := st.Put(gen.KeyAt(i), gen.ValueAt(i)); err != nil {
			b.Fatal(err)
		}
	}
	return st, gen
}

func reportSim(b *testing.B, st aria.Store) {
	s := st.Stats()
	if s.SimSeconds > 0 {
		b.ReportMetric(float64(b.N)/s.SimSeconds/1e6, "sim_Mops/s")
	}
}

func benchGet(b *testing.B, scheme aria.Scheme, dist workload.Dist) {
	st, _ := microStore(b, scheme)
	gen, err := workload.New(workload.Config{
		Keys: microKeys, Dist: dist, Skew: 0.99, ReadRatio: 1.0, ValueSize: 64, Seed: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	var op workload.Op
	for i := 0; i < 20000; i++ { // warm the Secure Cache
		gen.Next(&op)
		if _, err := st.Get(op.Key); err != nil && err != aria.ErrNotFound {
			b.Fatal(err)
		}
	}
	st.SetMeasuring(true)
	st.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&op)
		if _, err := st.Get(op.Key); err != nil && err != aria.ErrNotFound {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSim(b, st)
}

func benchPut(b *testing.B, scheme aria.Scheme) {
	st, _ := microStore(b, scheme)
	gen, err := workload.New(workload.Config{
		Keys: microKeys, Dist: workload.Zipfian, Skew: 0.99, ReadRatio: 0, ValueSize: 64, Seed: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	var op workload.Op
	st.SetMeasuring(true)
	st.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&op)
		if err := st.Put(op.Key, op.Value); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSim(b, st)
}

func BenchmarkGetAriaHashSkew(b *testing.B)    { benchGet(b, aria.AriaHash, workload.Zipfian) }
func BenchmarkGetAriaHashUniform(b *testing.B) { benchGet(b, aria.AriaHash, workload.Uniform) }
func BenchmarkGetAriaTreeSkew(b *testing.B)    { benchGet(b, aria.AriaTree, workload.Zipfian) }
func BenchmarkGetShieldStoreSkew(b *testing.B) { benchGet(b, aria.ShieldStoreScheme, workload.Zipfian) }
func BenchmarkGetNoCacheHashSkew(b *testing.B) { benchGet(b, aria.NoCacheHash, workload.Zipfian) }
func BenchmarkGetBaselineHash(b *testing.B)    { benchGet(b, aria.BaselineHash, workload.Zipfian) }

func BenchmarkPutAriaHash(b *testing.B)    { benchPut(b, aria.AriaHash) }
func BenchmarkPutAriaTree(b *testing.B)    { benchPut(b, aria.AriaTree) }
func BenchmarkPutShieldStore(b *testing.B) { benchPut(b, aria.ShieldStoreScheme) }

// ---- figure/table reproductions ------------------------------------------------

// benchParams returns the reduced-scale parameters used by the in-test
// figure reproductions. `aria-bench -exp <id> -scale 16` runs the same code
// at paper-representative scale.
func benchParams() bench.Params {
	return bench.Params{Scale: 512, Ops: 4000, Seed: 42}
}

// benchOut returns the writer experiment rows go to: verbose runs print
// them, quiet runs discard them.
func benchOut(b *testing.B) io.Writer {
	if testing.Verbose() {
		return benchWriter{b}
	}
	return io.Discard
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p, benchOut(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Motivation(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkTable1Comparison(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFig9AriaHOverall(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10AriaTOverall(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11FacebookETC(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12Ablation(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13KeyspaceSweep(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14CacheSize(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15MerkleArity(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16aMultiTenant(b *testing.B)  { benchExperiment(b, "fig16a") }
func BenchmarkFig16bSkewness(b *testing.B)     { benchExperiment(b, "fig16b") }
func BenchmarkMemTableAnalysis(b *testing.B)   { benchExperiment(b, "memtab") }
func BenchmarkXShardScaling(b *testing.B)      { benchExperiment(b, "xshard") }

// BenchmarkLoadPhase measures bulk-load speed (Puts of fresh keys).
func BenchmarkLoadPhase(b *testing.B) {
	for _, scheme := range []aria.Scheme{aria.AriaHash, aria.ShieldStoreScheme} {
		b.Run(scheme.String(), func(b *testing.B) {
			st, err := aria.Open(aria.Options{
				Scheme:       scheme,
				EPCBytes:     benchEPC,
				ExpectedKeys: b.N + 1,
				MeasureOff:   true,
				Seed:         9,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Put([]byte(fmt.Sprintf("load-%012d", i)), []byte("payload-0123456789")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpoint measures what a checkpoint run costs and what it
// costs everyone else: ns/op is one Checkpoint of a 2-shard durable store
// at 25 k keys per shard (the shape of wire_a_ckpt_open), and stall-ns is
// the longest single Get a paced foreground reader saw while the runs
// were going — the number a stop-the-world checkpoint puts at the run's
// own length.
func BenchmarkCheckpoint(b *testing.B) {
	const keys = 50000
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		EPCBytes:     benchEPC,
		ExpectedKeys: keys,
		Shards:       2,
		DataDir:      b.TempDir(),
		Fsync:        aria.FsyncNever,
		MeasureOff:   true,
		Seed:         9,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("ckpt-%011d", i)) }
	value := make([]byte, 128)
	batch := make([]aria.KV, 0, 256)
	for i := 0; i < keys; i++ {
		if batch = append(batch, aria.KV{Key: key(i), Value: value}); len(batch) == cap(batch) || i == keys-1 {
			for _, err := range st.MPut(batch) {
				if err != nil {
					b.Fatal(err)
				}
			}
			batch = batch[:0]
		}
	}
	if err := st.Checkpoint(); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	longest := make(chan time.Duration)
	go func() {
		var worst time.Duration
		for i := 0; ; i++ {
			select {
			case <-stop:
				longest <- worst
				return
			default:
			}
			t0 := time.Now()
			if _, err := st.Get(key(i * 7919 % keys)); err != nil {
				b.Error(err)
			}
			worst = max(worst, time.Since(t0))
			time.Sleep(250 * time.Microsecond)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A write on every shard, so no run takes the nothing-logged exit.
		for j := 0; j < 8; j++ {
			if err := st.Put(key((i*8+j)%keys), value); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	b.ReportMetric(float64(<-longest), "stall-ns")
}
