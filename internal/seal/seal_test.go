package seal

import (
	"bytes"
	"errors"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	s := New(42)
	chain := s.ChainInit("test", 7)
	payloads := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xAB}, 300)}
	c := chain
	var recs [][]byte
	for i, p := range payloads {
		rec, next := s.Seal(uint64(7+i), 1, c, p)
		recs = append(recs, rec)
		c = next
	}
	c = chain
	for i, rec := range recs {
		seq, p, next, err := s.Open(1, c, rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if seq != uint64(7+i) {
			t.Fatalf("record %d: seq %d, want %d", i, seq, 7+i)
		}
		if !bytes.Equal(p, payloads[i]) {
			t.Fatalf("record %d: payload mismatch", i)
		}
		c = next
	}
}

// TestCrossSessionOpen seals with one Sealer and opens with another
// under the same seed: the record's authenticated epoch must drive the
// keystream, so records survive process restarts (a fresh Sealer with a
// fresh epoch recovers them).
func TestCrossSessionOpen(t *testing.T) {
	a, b := New(42), New(42)
	chain := a.ChainInit("test", 3)
	rec, _ := a.Seal(3, 9, chain, []byte("across sessions"))
	seq, p, _, err := b.Open(9, b.ChainInit("test", 3), rec)
	if err != nil {
		t.Fatalf("cross-session open: %v", err)
	}
	if seq != 3 || string(p) != "across sessions" {
		t.Fatalf("cross-session open: seq=%d payload=%q", seq, p)
	}
}

// TestEpochSeparatesKeystream pins the two-time-pad defence: two
// sealing sessions re-using the same sequence number and salt (the
// situation crash recovery creates when it truncates a torn tail and
// re-appends) must not share a keystream. If they did, XORing the two
// ciphertexts would equal XORing the two plaintexts.
func TestEpochSeparatesKeystream(t *testing.T) {
	a, b := New(7), New(7)
	if a.Epoch() == b.Epoch() {
		t.Fatal("two sealers drew the same epoch (random source broken?)")
	}
	p1 := []byte("secret payload AAAA")
	p2 := []byte("secret payload BBBB")
	chain := a.ChainInit("test", 5)
	r1, _ := a.Seal(5, 1, chain, p1)
	r2, _ := b.Seal(5, 1, chain, p2)
	ct1 := r1[16 : 16+len(p1)]
	ct2 := r2[16 : 16+len(p2)]
	reuse := true
	for i := range p1 {
		if ct1[i]^ct2[i] != p1[i]^p2[i] {
			reuse = false
			break
		}
	}
	if reuse {
		t.Fatal("same-seq records from two sessions share a keystream (two-time pad)")
	}
}

func TestOpenRejectsFlippedBytes(t *testing.T) {
	s := New(1)
	chain := s.ChainInit("test", 0)
	rec, _ := s.Seal(0, 0, chain, []byte("payload"))
	for i := range rec {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x01
		if _, _, _, err := s.Open(0, chain, bad); !errors.Is(err, ErrTampered) {
			t.Fatalf("flip at byte %d not detected: %v", i, err)
		}
	}
}

func TestOpenRejectsWrongChainAndSeed(t *testing.T) {
	s := New(1)
	chain := s.ChainInit("test", 0)
	rec, next := s.Seal(0, 0, chain, []byte("first"))
	rec2, _ := s.Seal(1, 0, next, []byte("second"))
	// Reordering: record 2 against the initial chain.
	if _, _, _, err := s.Open(0, chain, rec2); !errors.Is(err, ErrTampered) {
		t.Fatalf("reordered record not detected: %v", err)
	}
	// A different seed (enclave identity) cannot open the record.
	other := New(2)
	if _, _, _, err := other.Open(0, other.ChainInit("test", 0), rec); !errors.Is(err, ErrTampered) {
		t.Fatalf("foreign-seed open not detected: %v", err)
	}
	// A different salt (lineage purpose) fails as well.
	if _, _, _, err := s.Open(9, chain, rec); !errors.Is(err, ErrTampered) {
		t.Fatalf("cross-salt open not detected: %v", err)
	}
}

func TestOpenRejectsShortRecord(t *testing.T) {
	s := New(1)
	chain := s.ChainInit("test", 0)
	for n := 0; n < Overhead; n++ {
		if _, _, _, err := s.Open(0, chain, make([]byte, n)); !errors.Is(err, ErrTampered) {
			t.Fatalf("short record (%d bytes) not rejected: %v", n, err)
		}
	}
}

// TestStreamAppendSealMatchesSeal pins the append form to Seal's bytes
// and chain, record after record into one buffer, and its allocation
// budget: the CMAC's block state is all that is left.
func TestStreamAppendSealMatchesSeal(t *testing.T) {
	s := New(42)
	st := s.NewStream()
	payloads := [][]byte{[]byte("alpha"), nil, bytes.Repeat([]byte{0xAB}, 300), []byte("sixteen byte msg")}
	var buf []byte
	want, got := s.ChainInit("test", 7), s.ChainInit("test", 7)
	for i, p := range payloads {
		var rec []byte
		rec, want = s.Seal(uint64(7+i), 3, want, p)
		off := len(buf)
		buf, got = st.AppendSeal(buf, uint64(7+i), 3, got, p)
		if !bytes.Equal(buf[off:], rec) || got != want {
			t.Fatalf("record %d: AppendSeal diverges from Seal", i)
		}
	}
	buf = buf[:0]
	chain := s.ChainInit("test", 0)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = st.AppendSeal(buf[:0], 1, 3, chain, payloads[2])
	}); n > 1 {
		t.Errorf("AppendSeal allocates %v times per record, want <= 1", n)
	}
}
