package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// header says where, when and how a result file was measured.
type header struct {
	Commit     string   `json:"commit"`
	Date       string   `json:"date"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Seed       int64    `json:"seed"`
	Scale      int      `json:"scale"`
	Seconds    float64  `json:"seconds"`
	Repeats    int      `json:"repeats"`
	DataRoot   string   `json:"data_root"`
	DataFS     string   `json:"data_fs"`
	Valid      bool     `json:"valid"`
	Invalid    []string `json:"invalid,omitempty"`
}

type metricRuns struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Runs   []float64 `json:"runs"`
}

type workloadResult struct {
	Name      string                 `json:"name"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	ErrorRate float64                `json:"error_rate"`
	EndToEnd  map[string]*metricRuns `json:"end_to_end"`
	PerLayer  map[string]float64     `json:"per_layer,omitempty"`
	Diag      map[string]float64     `json:"diagnostics,omitempty"`
}

type result struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

func newHeader(e *env, cfg config) header {
	h := header{
		Commit:     "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       cfg.seed,
		Scale:      cfg.scale,
		Seconds:    cfg.seconds,
		Repeats:    max(cfg.repeats, 1),
		DataRoot:   e.dataRoot,
		DataFS:     fsType(e.dataRoot),
	}
	// A checkout the driver made is not a git repository; the commit then
	// stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// fsType names the filesystem that holds dir (or its nearest existing
// parent): the durable workloads' latencies are that filesystem's.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	for syscall.Statfs(abs, &st) != nil {
		parent := filepath.Dir(abs)
		if parent == abs {
			return "unknown"
		}
		abs = parent
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// appendHistory adds one line per run to the trajectory file: who, when,
// and every workload's end-to-end medians.
func appendHistory(path string, res result) error {
	row := struct {
		Commit    string                        `json:"commit"`
		Date      string                        `json:"date"`
		Seed      int64                         `json:"seed"`
		Scale     int                           `json:"scale"`
		DataFS    string                        `json:"data_fs"`
		Valid     bool                          `json:"valid"`
		Workloads map[string]map[string]float64 `json:"workloads"`
	}{res.Header.Commit, res.Header.Date, res.Header.Seed, res.Header.Scale, res.Header.DataFS, res.Header.Valid, map[string]map[string]float64{}}
	for _, w := range res.Workloads {
		m := map[string]float64{"error_rate": w.ErrorRate}
		for name, r := range w.EndToEnd {
			m[name] = r.Median
		}
		row.Workloads[w.Name] = m
	}
	b, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contract is the part of BENCHMARK.json -compare needs: which way each
// end-to-end metric is better and by how much it may worsen.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a and the bound, and reports whether b stayed
// within every bound (errors included: error_rate may not rise). A row
// whose repeats spread wider than the bound is unresolved, not unchanged,
// unless every run of b reads better than every run of a.
func compareFiles(w io.Writer, specFile, aPath, bPath string) (bool, error) {
	var c contract
	var a, b result
	if err := readJSON(specFile, &c); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	bw := map[string]workloadResult{}
	for _, x := range b.Workloads {
		bw[x.Name] = x
	}
	ok := true
	fmt.Fprintf(w, "%-17s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, found := bw[wa.Name]
		if !found {
			fmt.Fprintf(w, "%-17s missing from %s\n", wa.Name, bPath)
			ok = false
			continue
		}
		for _, m := range c.EndToEnd {
			ra, rb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ra == nil || rb == nil {
				continue
			}
			sign := 1.0 // positive = worse
			if m.Better == "higher" {
				sign = -1
			}
			worse := sign * safeDiv(rb.Median-ra.Median, ra.Median)
			verdict := "ok"
			switch {
			case allBetter(ra.Runs, rb.Runs, sign):
				verdict = "better"
			case spread(ra) > m.Bound || spread(rb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "BREACH"
				ok = false
			}
			fmt.Fprintf(w, "%-17s %-18s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wa.Name, m.Name, ra.Median, rb.Median, 100*worse, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if wb.ErrorRate > wa.ErrorRate {
			verdict = "BREACH"
			ok = false
		}
		fmt.Fprintf(w, "%-17s %-18s %14.6f %14.6f %9s %7s  %s\n", wa.Name, "error_rate", wa.ErrorRate, wb.ErrorRate, "", "0%", verdict)
	}
	return ok, nil
}

// spread is the repeats' range as a share of their median.
func spread(r *metricRuns) float64 {
	if len(r.Runs) < 2 {
		return 0
	}
	s := append([]float64(nil), r.Runs...)
	sort.Float64s(s)
	return safeDiv(s[len(s)-1]-s[0], r.Median)
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
