package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeScale shrinks every workload so that all five, traced pass
// included, finish in a few seconds.
const smokeScale = 200

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	var c benchmarkJSON
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractNamesMatch holds BENCHMARK.json and the program's metric and
// workload tables together: same names, same units, same order.
func TestContractNamesMatch(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not a contract name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		check(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range c.EndToEnd {
		check(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Better != "lower" || c.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be there, lower-is-better, with the largest bound")
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		check(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmokeAllWorkloads runs every workload and its traced pass at 1/200
// scale and checks that each reports every metric of its kind exactly
// once, as a finite number, with no failed op.
func TestSmokeAllWorkloads(t *testing.T) {
	e := &env{dataRoot: t.TempDir()}
	out := t.TempDir()
	for _, sp := range specs {
		sp = sp.scaled(smokeScale)
		t.Run(sp.name, func(t *testing.T) {
			p, err := e.runProper(sp, 1, 0.25, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", p.attempted, p.failed)
			}
			if len(p.e2e) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics reported, want %d", len(p.e2e), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := p.e2e[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v (reported %v): every end-to-end metric must be a positive number on every workload", m.name, v, ok)
				}
			}
			var line bytes.Buffer
			if err := emitContract(&line, endToEnd, p.e2e, p.attempted, p.failed); err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := got[k]; !ok {
					t.Errorf("contract line lacks %q", k)
				}
			}
			if len(got) != 4 {
				t.Errorf("contract line has %d keys, want 4", len(got))
			}

			tr, err := e.runTraced(sp, 1, 0.25, out)
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 || tr.attempted == 0 {
				t.Fatalf("traced: attempted %d, failed %d", tr.attempted, tr.failed)
			}
			if len(tr.layer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(tr.layer), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := tr.layer[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (reported %v)", m.name, v, ok)
				}
			}
			for _, name := range []string{"core.ns_per_get", "stack.ns_per_get", "sgx.sim_cycles_per_op", "seal.seal_ns_160B"} {
				if tr.layer[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, tr.layer[name])
				}
			}
			if sp.wire && tr.layer["kvnet.self_us_per_op"] <= 0 {
				t.Errorf("kvnet.self_us_per_op = %v on a wire workload", tr.layer["kvnet.self_us_per_op"])
			}
			if sp.durable && (tr.layer["durable.recover_s"] <= 0 || tr.layer["wal.records_per_put"] != 1) {
				t.Errorf("durable rows: recover_s %v, records_per_put %v", tr.layer["durable.recover_s"], tr.layer["wal.records_per_put"])
			}
			checkTrace(t, tr.traceFile, sp)
		})
	}
}

// checkTrace reads the span file back: every span closed, parents before
// children, store calls inside their op.
func checkTrace(t *testing.T, path string, sp spec) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	ops := 0
	for i, s := range spans {
		if int(s.ID) != i+1 || s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		switch s.Name {
		case spanOp:
			ops++
		case spanStoreCall:
			p := spans[s.Parent-1]
			want := spanOp
			if sp.wire {
				want = spanRoundtrip
			}
			if p.Name != want || s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.OpSeq != p.OpSeq {
				t.Fatalf("store.call %+v is not inside its %s %+v", s, want, p)
			}
		}
	}
	if ops != sp.traceOps {
		t.Errorf("%d loadgen.op spans, want %d", ops, sp.traceOps)
	}
}

// TestSelftestCountsCorruption: with the corrupting decorator in the
// path, the oracle must count errors.
func TestSelftestCountsCorruption(t *testing.T) {
	e := &env{dataRoot: t.TempDir(), corruptEvery: 97}
	for _, name := range []string{"wire_b_hot", "cold_restart"} {
		sp, _ := specByName(name)
		p, err := e.runProper(sp.scaled(smokeScale), 1, 0.2, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.failed == 0 {
			t.Errorf("%s: corrupted values went unnoticed", name)
		}
	}
}

func TestCompareAndHistory(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"throughput_ops_s","unit":"ops/s","better":"higher","bound":0.05},
		{"name":"get_p50_us","unit":"us","better":"lower","bound":0.07}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(tput, p50 []float64, failed uint64) result {
		return result{Header: header{Commit: "abc", Seed: 1, Valid: true}, Workloads: []workloadResult{{
			Name: "store_b_big", Attempted: 100, Failed: failed, ErrorRate: float64(failed) / 100,
			EndToEnd: map[string]*metricRuns{
				"throughput_ops_s": {Unit: "ops/s", Median: median(tput), Runs: tput},
				"get_p50_us":       {Unit: "us", Median: median(p50), Runs: p50},
			}}}}
	}
	write := func(name string, r result) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk([]float64{100, 101, 102}, []float64{2.0, 2.01, 2.02}, 0))
	cases := []struct {
		name    string
		b       result
		ok      bool
		verdict string
	}{
		{"same", mk([]float64{100, 101, 102}, []float64{2.0, 2.01, 2.02}, 0), true, "ok"},
		{"slower", mk([]float64{90, 91, 92}, []float64{2.0, 2.01, 2.02}, 0), false, "BREACH"},
		{"faster", mk([]float64{110, 111, 112}, []float64{2.0, 2.01, 2.02}, 0), true, "better"},
		{"noisy", mk([]float64{80, 91, 120}, []float64{2.0, 2.01, 2.02}, 0), true, "unresolved"},
		{"errors", mk([]float64{100, 101, 102}, []float64{2.0, 2.01, 2.02}, 1), false, "BREACH"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		ok, err := compareFiles(&buf, spec, base, write(c.name+".json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("%s: ok=%v want %v, output lacks %q:\n%s", c.name, ok, c.ok, c.verdict, buf.String())
		}
	}

	hist := filepath.Join(dir, "history.jsonl")
	for i := 0; i < 2; i++ {
		if err := appendHistory(hist, cases[0].b); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("history has %d lines, want 2", len(lines))
	}
	var row struct {
		Commit    string
		Workloads map[string]map[string]float64
	}
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Commit != "abc" || row.Workloads["store_b_big"]["throughput_ops_s"] != 101 {
		t.Errorf("history row: %+v", row)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h lhist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1_000_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
	get := func(w *window) *lhist { return &w.get }
	if l := percentiles([]*window{{get: h}, {get: h}}, get); l.q != 0.99 || l.n != 200_000 {
		t.Errorf("full slices: q %v n %d, want 0.99 and 200000", l.q, l.n)
	}
	var small lhist
	for v := int64(1); v <= 150; v++ {
		small.record(v)
	}
	if l := percentiles([]*window{{get: small}}, get); l.q != 0.9 {
		t.Errorf("tail percentile of 150 samples %v, want 0.9", l.q)
	}
}

func TestValueOracle(t *testing.T) {
	v := make([]byte, valueSize)
	fillValue(v, 7, 42)
	if seq, ok := checkValue(v, 7); !ok || seq != 42 {
		t.Fatalf("checkValue = %d, %v", seq, ok)
	}
	if _, ok := checkValue(v, 8); ok {
		t.Error("value of key 7 accepted for key 8")
	}
	v[70] ^= 1
	if _, ok := checkValue(v, 7); ok {
		t.Error("flipped bit not detected")
	}
}
