package aria

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

var allSchemes = []Scheme{
	AriaHash, AriaTree, AriaBPTree, NoCacheHash, NoCacheTree,
	ShieldStoreScheme, BaselineHash, BaselineTree,
}

func openSmall(t *testing.T, s Scheme) Store {
	t.Helper()
	st, err := Open(Options{
		Scheme:               s,
		EPCBytes:             32 << 20,
		ExpectedKeys:         2048,
		SecureCacheBytes:     1 << 20,
		PinBudgetBytes:       64 << 10,
		ShieldStoreRootBytes: 16 << 10,
		Seed:                 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAllSchemesRoundTrip(t *testing.T) {
	for _, s := range allSchemes {
		t.Run(s.String(), func(t *testing.T) {
			st := openSmall(t, s)
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("key-%05d", i))
				v := []byte(fmt.Sprintf("val-%d", i))
				if err := st.Put(k, v); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("key-%05d", i))
				got, err := st.Get(k)
				if err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("val-%d", i))) {
					t.Fatalf("get %d: %v", i, err)
				}
			}
			if err := st.Delete([]byte("key-00000")); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get([]byte("key-00000")); !errors.Is(err, ErrNotFound) {
				t.Errorf("deleted key: %v", err)
			}
			if _, err := st.Get([]byte("never-existed")); !errors.Is(err, ErrNotFound) {
				t.Errorf("missing key: %v", err)
			}
			if err := st.VerifyIntegrity(); err != nil {
				t.Fatalf("audit: %v", err)
			}
			stats := st.Stats()
			if stats.Keys != 299 {
				t.Errorf("keys = %d, want 299", stats.Keys)
			}
			if stats.Scheme != s {
				t.Errorf("stats scheme = %v", stats.Scheme)
			}
		})
	}
}

func TestErrorMapping(t *testing.T) {
	for _, s := range allSchemes {
		t.Run(s.String(), func(t *testing.T) {
			st := openSmall(t, s)
			if err := st.Put(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
				t.Errorf("empty key: %v", err)
			}
			if err := st.Put(bytes.Repeat([]byte("k"), 9999), nil); !errors.Is(err, ErrTooLarge) {
				t.Errorf("huge key: %v", err)
			}
			if err := st.Delete([]byte("missing")); !errors.Is(err, ErrNotFound) {
				t.Errorf("missing delete: %v", err)
			}
		})
	}
}

func TestMeasurementWindow(t *testing.T) {
	st, err := Open(Options{
		Scheme:       AriaHash,
		EPCBytes:     32 << 20,
		ExpectedKeys: 1024,
		MeasureOff:   true,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_ = st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v"))
	}
	if got := st.Stats().SimCycles; got != 0 {
		t.Fatalf("cycles accrued during load: %d", got)
	}
	st.SetMeasuring(true)
	st.ResetStats()
	for i := 0; i < 500; i++ {
		_, _ = st.Get([]byte(fmt.Sprintf("key-%05d", i)))
	}
	stats := st.Stats()
	if stats.SimCycles == 0 || stats.SimSeconds <= 0 {
		t.Error("no cycles accrued during measured window")
	}
	if stats.MACs == 0 {
		t.Error("no MACs recorded")
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range allSchemes {
		if s.String() == "" || s.String()[0] == 's' && s != ShieldStoreScheme {
			continue
		}
	}
	if AriaHash.String() != "aria-h" || ShieldStoreScheme.String() != "shieldstore" {
		t.Error("unexpected scheme names")
	}
	if Scheme(99).String() != "scheme(99)" {
		t.Error("unknown scheme formatting")
	}
}

func TestUnknownScheme(t *testing.T) {
	if _, err := Open(Options{Scheme: Scheme(42)}); err == nil {
		t.Error("Open accepted unknown scheme")
	}
}

func TestWithoutSGXIsCheaper(t *testing.T) {
	run := func(withoutSGX bool) uint64 {
		st, err := Open(Options{
			Scheme:       AriaHash,
			EPCBytes:     32 << 20,
			ExpectedKeys: 4096,
			WithoutSGX:   withoutSGX,
			MeasureOff:   true,
			Seed:         5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			_ = st.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("0123456789abcdef"))
		}
		st.SetMeasuring(true)
		st.ResetStats()
		for i := 0; i < 2000; i++ {
			_, _ = st.Get([]byte(fmt.Sprintf("key-%05d", i)))
		}
		return st.Stats().SimCycles
	}
	with := run(false)
	without := run(true)
	if without >= with {
		t.Errorf("w/o SGX (%d cycles) not cheaper than with SGX (%d)", without, with)
	}
	// Figure 12 reports ~25%; accept a broad band around it.
	overhead := float64(with-without) / float64(with)
	if overhead < 0.05 || overhead > 0.60 {
		t.Logf("SGX overhead fraction = %.2f (paper: ~0.26)", overhead)
	}
}

func TestRangerScan(t *testing.T) {
	st := openSmall(t, AriaBPTree)
	for i := 0; i < 100; i++ {
		if err := st.Put([]byte(fmt.Sprintf("rk-%03d", i)), []byte(fmt.Sprintf("rv-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := st.Scan([]byte("rk-010"), []byte("rk-020"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "rk-010" {
		t.Errorf("scan = %v", got)
	}
	// Hash-indexed stores must report ErrNoScan, not silently no-op.
	hst := openSmall(t, AriaHash)
	if err := hst.Scan(nil, nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrNoScan) {
		t.Errorf("hash scan err = %v, want ErrNoScan", err)
	}
}
