package aria

// On-disk compatibility: testdata/compat/ holds three tiny DataDirs
// written by commit d29f68d (the decorator stack, before the per-shard op
// path) — an unsharded raw-snapshot lineage, a 2-shard one, and a
// ColdCompress segment-set lineage — each with a checkpoint and, above
// it, WAL records of every kind: put, TTL put, delete, transaction.
// expected.json is what that commit read back from a reopened copy of
// each. A store opened on a copy today must recover exactly the same
// values, versions and deadlines, and resume the version clock where
// the lineage left it. Public API only, so the test also runs on the
// commit that wrote the fixtures.
//
// The script that wrote them, under a clock fixed at clock_nanos: put
// a..e; PutTTL ttl-old 1h; txn {put t1, put t2}; Checkpoint; (cold only:
// put a, put f, Checkpoint — d and e are demoted); put a; PutTTL ttl-new
// 2h; delete b; txn {put t1, delete t2, put t3 TTL 30m}; CAS c at its
// version; MPut {m1, m2}; Close.

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

type compatFixture struct {
	Scheme       string `json:"scheme"`
	Shards       int    `json:"shards"`
	ColdCompress bool   `json:"cold_compress"`
	Seed         uint64 `json:"seed"`
	ClockNanos   int64  `json:"clock_nanos"`
	Keys         map[string]struct {
		Value    string `json:"value"`
		Version  uint64 `json:"version"`
		Deadline int64  `json:"deadline"`
	} `json:"keys"`
	Absent       []string `json:"absent"`
	ProbeKey     string   `json:"probe_key"`
	ProbeVersion uint64   `json:"probe_version"`
}

// copyTree copies a fixture directory, so Open never writes to testdata.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompatFixtures(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fixtures map[string]compatFixture
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != 3 {
		t.Fatalf("expected.json describes %d fixtures, want 3", len(fixtures))
	}
	schemes := map[string]Scheme{"aria-h": AriaHash, "aria-bp": AriaBPTree}
	for name, fx := range fixtures {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), name)
			copyTree(t, filepath.Join("testdata", "compat", name), dir)
			clock := fx.ClockNanos
			st, err := Open(Options{
				Scheme: schemes[fx.Scheme], EPCBytes: 4 << 20, ExpectedKeys: 128, Seed: fx.Seed,
				Shards: fx.Shards, DataDir: dir, ColdCompress: fx.ColdCompress,
				Now: func() time.Time { return time.Unix(0, clock) },
			})
			if err != nil {
				t.Fatalf("open fixture: %v", err)
			}
			defer st.Close()

			var ttl []string
			for k, want := range fx.Keys {
				v, ver, err := st.GetV([]byte(k))
				if err != nil || string(v) != want.Value || ver != want.Version {
					t.Errorf("%s = %q v%d (%v), fixture holds %q v%d", k, v, ver, err, want.Value, want.Version)
				}
				if want.Deadline != 0 {
					ttl = append(ttl, k)
				}
			}
			for _, k := range fx.Absent {
				if _, err := st.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s: %v, fixture has it deleted", k, err)
				}
			}
			// The version clock resumes where the lineage stopped.
			if err := st.Put([]byte(fx.ProbeKey), []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, ver, _ := st.GetV([]byte(fx.ProbeKey)); ver != fx.ProbeVersion {
				t.Errorf("first new write got version %d, want %d", ver, fx.ProbeVersion)
			}
			// Deadlines are exact: alive one nanosecond before, gone at it.
			sort.Slice(ttl, func(i, j int) bool { return fx.Keys[ttl[i]].Deadline < fx.Keys[ttl[j]].Deadline })
			for _, k := range ttl {
				clock = fx.Keys[k].Deadline - 1
				if _, err := st.Get([]byte(k)); err != nil {
					t.Errorf("%s one nanosecond before its deadline: %v", k, err)
				}
				clock++
				if _, err := st.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s at its deadline: %v, want ErrNotFound", k, err)
				}
			}
			if err := st.VerifyIntegrity(); err != nil {
				t.Errorf("audit after recovery: %v", err)
			}
		})
	}
}
