// Command e2e is the repository's benchmark: five named workloads over the
// real client -> kvnet -> shard -> metrics -> durable/cold -> semantics ->
// engine -> simulator path, reporting wall-clock and simulated-clock
// end-to-end metrics and, with -trace 1, per-layer attribution. See
// ../README.md for the workloads, the metrics and how to word a claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeats  int
	scale    int
	outDir   string
	specFile string
	history  bool
}

func main() {
	var cfg config
	e := &env{}
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: one of the five names, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (2 is the held-out seed: never tune on it)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of one measured window")
	flag.IntVar(&cfg.trace, "trace", 0, "1: the traced pass (per-layer metrics); 0: end-to-end metrics")
	flag.IntVar(&cfg.repeats, "repeats", 3, "untraced runs per workload with -workload all; a metric's value is their median")
	flag.IntVar(&cfg.scale, "scale", 1, "divide keys and fixed op counts (smoke runs)")
	flag.StringVar(&e.dataRoot, "data-root", filepath.Join(".bench_build", "data"), "where durable workloads keep their DataDir")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmarks", "out"), "where result.json and trace_<workload>.jsonl go")
	flag.StringVar(&cfg.specFile, "spec", "BENCHMARK.json", "the benchmark contract: directions and bounds for -compare")
	flag.BoolVar(&cfg.history, "history", false, "append this run's end-to-end medians to benchmarks/history.jsonl")
	selftest := flag.Bool("selftest", false, "serve through a value-corrupting decorator; every workload must report errors")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var ok bool
		if ok, err = compareFiles(os.Stdout, cfg.specFile, flag.Arg(0), flag.Arg(1)); err == nil && !ok {
			os.Exit(1)
		}
	case *selftest:
		err = runSelftest(e, cfg)
	case cfg.workload == "all":
		err = runAll(e, cfg)
	default:
		err = runOne(e, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func printMetric(workload, name string, value float64, unit string) {
	fmt.Printf("%-17s %-34s %16.4f %s\n", workload, name, value, unit)
}

func printMetrics(workload string, defs []metricDef, values map[string]float64) {
	for _, m := range defs {
		if v, ok := values[m.name]; ok {
			printMetric(workload, m.name, v, m.unit)
		}
	}
}

func printDiag(workload string, diag map[string]float64) {
	names := make([]string, 0, len(diag))
	for k := range diag {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		printMetric(workload, k, diag[k], "(diagnostic)")
	}
}

// contractLine is the last line of a single-workload run: what the driver
// of BENCHMARK.json reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func emitContract(w io.Writer, defs []metricDef, values map[string]float64, attempted, failed uint64) error {
	line := contractLine{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]contractValue{}}
	for _, m := range defs {
		line.Metrics[m.name] = contractValue{values[m.name], m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// runOne is the contract's invocation: one workload, one run, one JSON
// object on the last line.
func runOne(e *env, cfg config) error {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sp = sp.scaled(cfg.scale)
	if cfg.trace != 0 {
		t, err := e.runTraced(sp, cfg.seed, cfg.seconds, cfg.outDir)
		if err != nil {
			return err
		}
		printMetrics(sp.name, perLayer, t.layer)
		return emitContract(os.Stdout, perLayer, t.layer, t.attempted, t.failed)
	}
	last, err := e.runProper(sp, cfg.seed, cfg.seconds, true, false)
	if err != nil {
		return err
	}
	printDiag(sp.name, last.diag)
	if last.tailQ < 0.99 {
		fmt.Printf("%-17s note: too few samples for p99; the *_p99_us rows are p%.0f\n", sp.name, last.tailQ*100)
	}
	for _, why := range invalid(last.diag) {
		fmt.Printf("%-17s INVALID: %s\n", sp.name, why)
	}
	printMetrics(sp.name, endToEnd, last.e2e)
	return emitContract(os.Stdout, endToEnd, last.e2e, last.attempted, last.failed)
}

// invalid lists the reasons a run's numbers must not be used. The
// generator's lag is judged at its 90th percentile: with a checkpoint
// stalling 13 % of every second, anything above the 87th is the catch-up
// after a stall, when both cores are busy and the dispatcher waits for one.
func invalid(diag map[string]float64) []string {
	var why []string
	if n := runtime.GOMAXPROCS(0); n < 2 {
		why = append(why, fmt.Sprintf("GOMAXPROCS=%d: client and server need a core each", n))
	}
	if lag := diag["loadgen.gen_lag_p90_us"]; lag > 1000 {
		why = append(why, fmt.Sprintf("loadgen.gen_lag_p90_us=%.0f > 1000: the generator, not the store, set the latencies", lag))
	}
	return why
}

// runAll runs every workload -repeats times (and once traced with -trace
// 1), prints every metric and writes the result file -compare reads.
func runAll(e *env, cfg config) error {
	repeats := max(cfg.repeats, 1)
	res := result{Header: newHeader(e, cfg)}
	for _, sp := range specs {
		sp = sp.scaled(cfg.scale)
		wr := workloadResult{Name: sp.name, EndToEnd: map[string]*metricRuns{}, Diag: map[string]float64{}}
		for r := 0; r < repeats; r++ {
			p, err := e.runProper(sp, cfg.seed, cfg.seconds, true, false)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			for _, m := range endToEnd {
				mr := wr.EndToEnd[m.name]
				if mr == nil {
					mr = &metricRuns{Unit: m.unit}
					wr.EndToEnd[m.name] = mr
				}
				mr.Runs = append(mr.Runs, p.e2e[m.name])
				mr.Median = median(mr.Runs)
			}
			wr.Attempted += p.attempted
			wr.Failed += p.failed
			wr.Diag = p.diag
			for _, why := range invalid(p.diag) {
				res.Header.Invalid = append(res.Header.Invalid, sp.name+": "+why)
			}
		}
		if cfg.trace != 0 {
			t, err := e.runTraced(sp, cfg.seed, cfg.seconds, cfg.outDir)
			if err != nil {
				return fmt.Errorf("%s traced: %w", sp.name, err)
			}
			wr.PerLayer = t.layer
			wr.Attempted += t.attempted
			wr.Failed += t.failed
		}
		wr.ErrorRate = safeDiv(float64(wr.Failed), float64(wr.Attempted))
		for _, m := range endToEnd {
			printMetric(sp.name, m.name, wr.EndToEnd[m.name].Median, m.unit)
		}
		printMetric(sp.name, "error_rate", wr.ErrorRate, "ratio")
		printDiag(sp.name, wr.Diag)
		printMetrics(sp.name, perLayer, wr.PerLayer)
		res.Workloads = append(res.Workloads, wr)
	}
	res.Header.Valid = len(res.Header.Invalid) == 0
	for _, why := range res.Header.Invalid {
		fmt.Println("INVALID:", why)
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if cfg.history {
		return appendHistory(filepath.Join("benchmarks", "history.jsonl"), res)
	}
	return nil
}

// runSelftest proves the oracle has teeth: with one Get result in 97
// corrupted by the benchmark's own decorator, every workload must count
// errors.
func runSelftest(e *env, cfg config) error {
	e.corruptEvery = 97
	scale := max(cfg.scale, 20)
	for _, sp := range specs {
		p, err := e.runProper(sp.scaled(scale), cfg.seed, 0.5, false, false)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		rate := safeDiv(float64(p.failed), float64(p.attempted))
		printMetric(sp.name, "error_rate", rate, "ratio")
		if p.failed == 0 {
			return fmt.Errorf("selftest: %s served corrupted values and the oracle counted no error", sp.name)
		}
	}
	fmt.Println("selftest ok: every workload noticed the corrupted values")
	return nil
}
