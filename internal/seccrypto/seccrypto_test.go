package seccrypto

import (
	"bytes"
	"encoding/hex"
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
