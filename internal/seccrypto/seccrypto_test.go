package seccrypto

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// RFC 4493 test vectors use this key for AES-CMAC.
var rfcKey = mustHex("2b7e151628aed2a6abf7158809cf4f3c")

var rfcMsg = mustHex("6bc1bee22e409f96e93d7e117393172a" +
	"ae2d8a571e03ac9c9eb76fac45af8e51" +
	"30c81c46a35ce411e5fbc1191a0a52ef" +
	"f69f2445df4f9b17ad2b417be66c3710")

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func newRFC(t *testing.T) *Cipher {
	t.Helper()
	c, err := New(rfcKey, rfcKey)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCMACRFC4493Vectors(t *testing.T) {
	c := newRFC(t)
	cases := []struct {
		name string
		msg  []byte
		want string
	}{
		{"len0", nil, "bb1d6929e95937287fa37d129b756746"},
		{"len16", rfcMsg[:16], "070a16b46b4d4144f79bdd9dd04a287c"},
		{"len40", rfcMsg[:40], "dfa66747de9ae63030ca32611497c827"},
		{"len64", rfcMsg[:64], "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [16]byte
			c.MAC(&got, tc.msg)
			if hex.EncodeToString(got[:]) != tc.want {
				t.Errorf("MAC = %x, want %s", got, tc.want)
			}
		})
	}
}

func TestCMACSubkeys(t *testing.T) {
	c := newRFC(t)
	// RFC 4493 subkey generation example.
	wantK1 := "fbeed618357133667c85e08f7236a8de"
	wantK2 := "f7ddac306ae266ccf90bc11ee46d513b"
	if hex.EncodeToString(c.k1[:]) != wantK1 {
		t.Errorf("K1 = %x, want %s", c.k1, wantK1)
	}
	if hex.EncodeToString(c.k2[:]) != wantK2 {
		t.Errorf("K2 = %x, want %s", c.k2, wantK2)
	}
}

func TestMACPartsEquivalence(t *testing.T) {
	c := newRFC(t)
	check := func(msg []byte, split uint8) bool {
		var whole, parts [16]byte
		c.MAC(&whole, msg)
		cut := 0
		if len(msg) > 0 {
			cut = int(split) % (len(msg) + 1)
		}
		c.MAC(&parts, msg[:cut], msg[cut:])
		return whole == parts
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMACManyParts(t *testing.T) {
	c := newRFC(t)
	msg := rfcMsg
	var whole, parts [16]byte
	c.MAC(&whole, msg)
	// Byte-at-a-time split exercises every fill offset.
	single := make([][]byte, len(msg))
	for i := range msg {
		single[i] = msg[i : i+1]
	}
	c.MAC(&parts, single...)
	if whole != parts {
		t.Errorf("byte-wise MAC %x != whole MAC %x", parts, whole)
	}
	// Interleave empty parts.
	c.MAC(&parts, nil, msg[:7], nil, msg[7:], nil)
	if whole != parts {
		t.Errorf("MAC with empty parts %x != whole MAC %x", parts, whole)
	}
}

func TestVerifyMAC(t *testing.T) {
	c := newRFC(t)
	var mac [16]byte
	c.MAC(&mac, rfcMsg)
	if !c.VerifyMAC(mac[:], rfcMsg) {
		t.Error("VerifyMAC rejected a valid MAC")
	}
	tampered := append([]byte(nil), rfcMsg...)
	tampered[5] ^= 1
	if c.VerifyMAC(mac[:], tampered) {
		t.Error("VerifyMAC accepted a tampered message")
	}
	badMac := mac
	badMac[0] ^= 1
	if c.VerifyMAC(badMac[:], rfcMsg) {
		t.Error("VerifyMAC accepted a tampered MAC")
	}
}

func TestCTRRoundTrip(t *testing.T) {
	c := newRFC(t)
	check := func(msg []byte, value, salt uint64) bool {
		ctr := CounterBlock(value, salt)
		enc := make([]byte, len(msg))
		c.CTRCrypt(&ctr, enc, msg)
		dec := make([]byte, len(msg))
		c.CTRCrypt(&ctr, dec, enc)
		return bytes.Equal(dec, msg)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCTRCounterSeparation(t *testing.T) {
	c := newRFC(t)
	msg := []byte("sixteen byte msg")
	ctr1 := CounterBlock(1, 0)
	ctr2 := CounterBlock(2, 0)
	ctr3 := CounterBlock(1, 1)
	e1 := make([]byte, len(msg))
	e2 := make([]byte, len(msg))
	e3 := make([]byte, len(msg))
	c.CTRCrypt(&ctr1, e1, msg)
	c.CTRCrypt(&ctr2, e2, msg)
	c.CTRCrypt(&ctr3, e3, msg)
	if bytes.Equal(e1, e2) {
		t.Error("different counter values produced identical ciphertexts")
	}
	if bytes.Equal(e1, e3) {
		t.Error("different salts produced identical ciphertexts")
	}
	if bytes.Equal(e1, msg) {
		t.Error("ciphertext equals plaintext")
	}
}

func TestCTRInPlace(t *testing.T) {
	c := newRFC(t)
	msg := []byte("in-place encryption works")
	orig := append([]byte(nil), msg...)
	ctr := CounterBlock(42, 7)
	c.CTRCrypt(&ctr, msg, msg)
	if bytes.Equal(msg, orig) {
		t.Fatal("in-place encryption left plaintext unchanged")
	}
	c.CTRCrypt(&ctr, msg, msg)
	if !bytes.Equal(msg, orig) {
		t.Fatal("in-place round trip failed")
	}
}

// TestCTRStreamMatchesCTRCrypt pins the reusable stream to CTRCrypt's
// bytes, message after message through one stream, including a counter
// whose increment carries across every byte.
func TestCTRStreamMatchesCTRCrypt(t *testing.T) {
	c := newRFC(t)
	s := c.NewCTRStream()
	check := func(msg []byte, value, salt uint64) bool {
		ctr := CounterBlock(value, salt)
		want := make([]byte, len(msg))
		c.CTRCrypt(&ctr, want, msg)
		got := append([]byte(nil), msg...)
		s.Crypt(&ctr, got, got)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	long := bytes.Repeat([]byte("carry"), 40)
	for _, salt := range []uint64{^uint64(0), ^uint64(0) - 3, 0xff, 0xffff_ffff} {
		if !check(long, ^uint64(0), salt) {
			t.Errorf("salt %#x: stream diverges from CTRCrypt once the counter carries", salt)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		ctr := CounterBlock(1, 2)
		s.Crypt(&ctr, long, long)
	}); n != 0 {
		t.Errorf("CTRStream.Crypt allocates %v times per call, want 0", n)
	}
}

func TestNewRejectsBadKeys(t *testing.T) {
	if _, err := New([]byte("short"), rfcKey); err == nil {
		t.Error("New accepted a short encryption key")
	}
	if _, err := New(rfcKey, []byte("short")); err == nil {
		t.Error("New accepted a short MAC key")
	}
}

func TestCounterBlockLayout(t *testing.T) {
	b := CounterBlock(0x0102030405060708, 0x1112131415161718)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11}
	if !bytes.Equal(b[:], want) {
		t.Errorf("CounterBlock layout = %x, want %x", b, want)
	}
}

func TestMACerRFC4493Vectors(t *testing.T) {
	m := newRFC(t).NewMACer()
	for _, tc := range []struct {
		msg  []byte
		want string
	}{
		{nil, "bb1d6929e95937287fa37d129b756746"},
		{rfcMsg[:16], "070a16b46b4d4144f79bdd9dd04a287c"},
		{rfcMsg[:40], "dfa66747de9ae63030ca32611497c827"},
		{rfcMsg[:64], "51f0bebf7e3b9d92fc49741779363cfe"},
	} {
		var got [16]byte
		m.MAC(&got, tc.msg)
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("len %d: MACer = %x, want %s", len(tc.msg), got, tc.want)
		}
	}
}

// splitParts cuts msg into 1..4 parts at the given offsets.
func splitParts(msg []byte, cuts ...int) [][]byte {
	var parts [][]byte
	prev := 0
	for _, c := range cuts {
		c %= len(msg) + 1
		if c < prev {
			c = prev
		}
		parts = append(parts, msg[prev:c])
		prev = c
	}
	return append(parts, msg[prev:])
}

// TestMACerMatchesMAC runs one MACer over 20 000 random messages of
// 0–1 200 bytes, each cut into 1–4 parts, against Cipher.MAC: every
// length mod 16, chunk boundary and part boundary must give the same tag.
// So must a MACer on the block-at-a-time chain, its fallback when the CBC
// encrypter cannot be reset.
func TestMACerMatchesMAC(t *testing.T) {
	c := newRFC(t)
	m, fallback := c.NewMACer(), c.NewMACer()
	fallback.cbc = nil
	rng := rand.New(rand.NewSource(4493))
	buf := make([]byte, 1200)
	for i := 0; i < 20000; i++ {
		msg := buf[:rng.Intn(len(buf)+1)]
		rng.Read(msg)
		cuts := make([]int, rng.Intn(4))
		for j := range cuts {
			cuts[j] = rng.Intn(len(msg) + 1)
		}
		sort.Ints(cuts)
		parts := splitParts(msg, cuts...)
		var want, got, fb [16]byte
		c.MAC(&want, msg)
		m.MAC(&got, parts...)
		fallback.MAC(&fb, parts...)
		if got != want || fb != want {
			t.Fatalf("len %d cuts %v: MACer %x, fallback %x, MAC %x", len(msg), cuts, got, fb, want)
		}
		if !m.Verify(want[:], parts...) || !c.VerifyMAC(want[:], parts...) {
			t.Fatalf("len %d cuts %v: Verify rejected a valid tag", len(msg), cuts)
		}
	}
}

func TestMACerAllocs(t *testing.T) {
	m := newRFC(t).NewMACer()
	msg := make([]byte, 1600)
	var ad [8]byte
	var ctr [16]byte
	if n := testing.AllocsPerRun(100, func() {
		var out [16]byte
		m.MAC(&out, msg, ad[:], ctr[:])
		m.Verify(out[:], msg, ad[:], ctr[:])
	}); n != 0 {
		t.Errorf("MACer allocates %v times per MAC+Verify, want 0", n)
	}
}

// FuzzMACer checks MACer against Cipher.MAC on arbitrary messages and
// part boundaries; the seeds below run on every go test.
func FuzzMACer(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add(rfcMsg[:16], uint16(16), uint16(16))
	f.Add(rfcMsg[:40], uint16(7), uint16(33))
	f.Add(bytes.Repeat(rfcMsg, 9), uint16(512), uint16(513))
	f.Add(bytes.Repeat(rfcMsg, 25), uint16(1), uint16(1599))
	c, err := New(rfcKey, rfcKey)
	if err != nil {
		f.Fatal(err)
	}
	m := c.NewMACer()
	f.Fuzz(func(t *testing.T, msg []byte, a, b uint16) {
		cuts := []int{int(a), int(b)}
		sort.Ints(cuts)
		var want, got [16]byte
		c.MAC(&want, msg)
		m.MAC(&got, splitParts(msg, cuts...)...)
		if got != want {
			t.Fatalf("len %d cuts %v: MACer %x, MAC %x", len(msg), cuts, got, want)
		}
	})
}

// BenchmarkMAC prices one tag at an entry's size (64, 160 B) and an
// Aria-T node's (1 600 B) on both paths.
func BenchmarkMAC(b *testing.B) {
	c, err := New(rfcKey, rfcKey)
	if err != nil {
		b.Fatal(err)
	}
	m := c.NewMACer()
	var ad [8]byte
	var ctr [16]byte
	for _, size := range []int{64, 160, 1600} {
		msg := make([]byte, size-len(ad)-len(ctr))
		var out [16]byte
		b.Run(fmt.Sprintf("Cipher/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				c.MAC(&out, msg, ad[:], ctr[:])
			}
		})
		b.Run(fmt.Sprintf("MACer/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				m.MAC(&out, msg, ad[:], ctr[:])
			}
		})
	}
}
