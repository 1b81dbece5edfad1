// Package seccrypto provides the two cryptographic primitives the Aria paper
// uses inside the enclave: AES-128 counter-mode encryption
// (sgx_aes_ctr_encrypt) and AES-CMAC (sgx_rijndael128_cmac, RFC 4493).
//
// Both are real implementations on top of crypto/aes, so integrity and
// confidentiality attacks mounted in tests are genuinely detected or foiled
// rather than pattern-matched. Cycle accounting for these operations is the
// caller's responsibility (see sgx.Enclave.ChargeMAC / ChargeCTR), keeping
// the package free of simulator dependencies.
package seccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
)

// KeySize is the AES-128 key size used for both encryption and MACs.
const KeySize = 16

// MACSize is the CMAC output size.
const MACSize = 16

// CounterSize is the size of one encryption counter.
const CounterSize = 16

// Cipher bundles an encryption key and a MAC key, mirroring the two global
// session keys Aria provisions into the enclave at attestation time.
type Cipher struct {
	enc cipher.Block // encryption key schedule
	mac cipher.Block // MAC key schedule
	k1  [16]byte     // CMAC subkey for complete final blocks
	k2  [16]byte     // CMAC subkey for padded final blocks
}

// New creates a Cipher from a 16-byte encryption key and a 16-byte MAC key.
func New(encKey, macKey []byte) (*Cipher, error) {
	eb, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	mb, err := aes.NewCipher(macKey)
	if err != nil {
		return nil, err
	}
	c := &Cipher{enc: eb, mac: mb}
	c.deriveSubkeys()
	return c, nil
}

// deriveSubkeys computes the RFC 4493 subkeys K1 and K2.
func (c *Cipher) deriveSubkeys() {
	var l [16]byte
	c.mac.Encrypt(l[:], l[:])
	shiftLeft(&c.k1, &l)
	if l[0]&0x80 != 0 {
		c.k1[15] ^= 0x87
	}
	shiftLeft(&c.k2, &c.k1)
	if c.k1[0]&0x80 != 0 {
		c.k2[15] ^= 0x87
	}
}

func shiftLeft(dst, src *[16]byte) {
	var carry byte
	for i := 15; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
}

// CTRCrypt encrypts or decrypts src into dst (they may alias) using AES-CTR
// with the given 16-byte counter block. CTR mode is an involution, so the
// same call performs both directions.
func (c *Cipher) CTRCrypt(counter *[16]byte, dst, src []byte) {
	stream := cipher.NewCTR(c.enc, counter[:])
	stream.XORKeyStream(dst, src)
}

// CTRStream is CTRCrypt for a caller that encrypts many short messages
// back to back (a snapshot's pairs): it owns its counter and keystream
// blocks, so Crypt allocates nothing, where CTRCrypt builds a stream per
// call. The output is byte-identical to CTRCrypt's. Not safe for
// concurrent use.
type CTRStream struct {
	c       *Cipher
	ctr, ks [16]byte
}

// NewCTRStream returns a reusable CTR stream under c's encryption key.
func (c *Cipher) NewCTRStream() *CTRStream { return &CTRStream{c: c} }

// Crypt encrypts or decrypts src into dst (they may alias) starting at
// the given counter block, which advances as a 128-bit big-endian integer
// per block — the standard CTR layout.
func (s *CTRStream) Crypt(counter *[16]byte, dst, src []byte) {
	s.ctr = *counter
	for len(src) > 0 {
		s.c.enc.Encrypt(s.ks[:], s.ctr[:])
		n := subtle.XORBytes(dst, src, s.ks[:])
		dst, src = dst[n:], src[n:]
		for i := len(s.ctr) - 1; i >= 0; i-- {
			if s.ctr[i]++; s.ctr[i] != 0 {
				break
			}
		}
	}
}

// MAC computes the AES-CMAC over the concatenation of the given parts and
// writes it to out. Accepting parts avoids materialising the concatenated
// message, which in Aria can span an entry header, counter, ciphertext, and
// address field living in different places. It is safe for concurrent use;
// a caller that MACs many messages on one goroutine should use a MACer.
func (c *Cipher) MAC(out *[16]byte, parts ...[]byte) {
	var st struct {
		x   [16]byte
		blk [64]byte
	}
	c.cmac(nil, &st.x, st.blk[:], out, parts)
}

// macChunk is how much of a message a MACer stages before it runs the
// staged blocks through its CBC chain in one call.
const macChunk = 512

// MACer is Cipher.MAC for a caller that MACs many messages back to back
// (the engine's entries and tree nodes): one reusable CBC encrypter under
// the MAC key takes up to 512 bytes of a message per call, where
// Cipher.MAC encrypts one block per call, and MAC allocates nothing. The
// output is byte-identical to Cipher.MAC's. Not safe for concurrent use.
type MACer struct {
	c     *Cipher
	cbc   cbcChain // nil: chain block by block through x, as Cipher.MAC does
	x     [16]byte
	chunk [macChunk]byte
}

// cbcChain is a CBC encrypter whose chaining value can be reset, so one
// encrypter serves message after message.
type cbcChain interface {
	cipher.BlockMode
	SetIV(iv []byte)
}

var zeroBlock [16]byte

// NewMACer returns a reusable CMAC under c's MAC key.
func (c *Cipher) NewMACer() *MACer {
	m := &MACer{c: c}
	m.cbc, _ = cipher.NewCBCEncrypter(c.mac, zeroBlock[:]).(cbcChain)
	return m
}

// MAC computes the AES-CMAC over the concatenation of parts into out.
func (m *MACer) MAC(out *[16]byte, parts ...[]byte) {
	if m.cbc != nil {
		m.cbc.SetIV(zeroBlock[:])
	} else {
		m.x = zeroBlock
	}
	m.c.cmac(m.cbc, &m.x, m.chunk[:], out, parts)
}

// Verify recomputes the CMAC over parts and compares it with want in
// constant time, like Cipher.VerifyMAC.
func (m *MACer) Verify(want []byte, parts ...[]byte) bool {
	var got [16]byte
	m.MAC(&got, parts...)
	return subtle.ConstantTimeCompare(got[:], want) == 1
}

// cmac is the one CMAC loop (RFC 4493). It stages the message in buf, a
// whole number of blocks, and CBC-encrypts buf each time it is full and
// more of the message follows, so the final block is always still staged
// at the end. That block is padded if short, XORed with subkey K1 or K2,
// and chained too: its ciphertext is the MAC. The chain is cbc, started
// from a zero chaining value, or when cbc is nil the MAC key one block at
// a time with x as the chaining value. Nothing the caller passes reaches
// an interface call, so out and parts never escape.
func (c *Cipher) cmac(cbc cbcChain, x *[16]byte, buf []byte, out *[16]byte, parts [][]byte) {
	n := 0
	for _, p := range parts {
		for len(p) > 0 {
			if n == len(buf) {
				c.chain(cbc, x, buf)
				n = 0
			}
			k := copy(buf[n:], p)
			n += k
			p = p[k:]
		}
	}
	f := 0 // start of the final block
	if n > 0 {
		f = (n - 1) &^ 15
	}
	last := (*[16]byte)(buf[f : f+16])
	if tail := n - f; tail == 16 {
		xor16(last, &c.k1)
	} else {
		last[tail] = 0x80
		clear(last[tail+1:])
		xor16(last, &c.k2)
	}
	c.chain(cbc, x, buf[:f+16])
	if cbc != nil {
		*out = *last
	} else {
		*out = *x
	}
}

// chain CBC-encrypts the whole blocks of buf: in place through cbc, or
// without writing buf through the MAC key into x when cbc is nil.
func (c *Cipher) chain(cbc cbcChain, x *[16]byte, buf []byte) {
	if cbc != nil {
		cbc.CryptBlocks(buf, buf)
		return
	}
	for ; len(buf) >= 16; buf = buf[16:] {
		xor16(x, (*[16]byte)(buf))
		c.mac.Encrypt(x[:], x[:])
	}
}

// VerifyMAC recomputes the CMAC over parts and compares it with want in
// constant time. It returns true when the MAC matches.
func (c *Cipher) VerifyMAC(want []byte, parts ...[]byte) bool {
	var got [16]byte
	c.MAC(&got, parts...)
	return subtle.ConstantTimeCompare(got[:], want) == 1
}

func xor16(dst, src *[16]byte) {
	lo := binary.LittleEndian.Uint64(dst[:8]) ^ binary.LittleEndian.Uint64(src[:8])
	hi := binary.LittleEndian.Uint64(dst[8:]) ^ binary.LittleEndian.Uint64(src[8:])
	binary.LittleEndian.PutUint64(dst[:8], lo)
	binary.LittleEndian.PutUint64(dst[8:], hi)
}

// CounterBlock builds a 16-byte CTR block from a 64-bit counter value and a
// 64-bit salt (Aria uses the counter slot index as salt so two different KV
// pairs never share a keystream even if their counter values collide).
func CounterBlock(value, salt uint64) [16]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], value)
	binary.LittleEndian.PutUint64(b[8:], salt)
	return b
}
