// Package seal implements the sealed-record format the durability
// subsystem writes outside the enclave: AES-128-CTR encryption plus an
// AES-CMAC chained across records, simulating SGX sealing (state
// encrypted under an enclave-bound key before it leaves trusted memory,
// the pattern of "Securing the Storage Data Path with SGX Enclaves").
//
// A sealed record is
//
//	seq (8, LE) || epoch (8, LE) || ciphertext || CMAC (16 bytes)
//
// where the CMAC covers the previous record's MAC (the chain), the
// lineage salt, the sequence number, the epoch, and the ciphertext.
// Chaining the MACs makes reordering, splicing, and replay of records
// detectable: record n+1 verifies only against record n's
// authenticator, and the first record of a lineage verifies only
// against a chain value derived from the lineage label.
//
// The epoch is a random 64-bit value drawn once per Sealer (one sealing
// session — in Aria, one process lifetime of a durable store). It is
// XORed into the CTR counter block's salt half, so the keystream of a
// record is a function of (key, salt, epoch, seq). This is what makes
// sequence-number reuse across crash recoveries safe: when recovery
// truncates a torn tail or salvages a tampered log, the next append
// re-issues the dropped record's sequence number — but through a new
// Sealer with a fresh epoch, so the re-sealed record never shares a
// keystream with the ciphertext the host may have kept from before the
// crash (no two-time pad). The epoch travels in the clear inside the
// record (it is a nonce, not a secret) and is authenticated by the
// CMAC, so the host can neither choose it nor swap it without breaking
// the chain. Two sessions collide only if their random epochs collide
// (probability 2^-64 per pair).
//
// Like internal/seccrypto, the package is simulator-free: cycle
// accounting for sealing is the caller's responsibility (see
// sgx.Enclave.SealOut / SealIn).
package seal

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"github.com/ariakv/aria/internal/seccrypto"
)

// Overhead is the number of bytes Seal adds around a payload: the
// 8-byte sequence number, the 8-byte epoch, and the 16-byte CMAC.
const Overhead = 16 + seccrypto.MACSize

// ErrTampered reports that a sealed record failed authentication: its
// MAC did not verify against the expected chain value, which covers
// bit flips, reordering, splicing, and replay of records.
var ErrTampered = errors.New("seal: record authentication failed")

// Chain is the running authenticator state threaded through a record
// lineage: record n's MAC, which record n+1 is verified against.
type Chain [seccrypto.MACSize]byte

// Sealer seals and opens records under keys derived from the store
// seed, simulating the enclave-bound key EGETKEY would return on real
// hardware: the same seed (enclave identity) always derives the same
// keys, and a different seed cannot open the records. Each Sealer
// carries a fresh random epoch that is folded into every keystream it
// produces (see the package comment), so two Sealers never encrypt
// under the same counter blocks even when they seal the same sequence
// numbers.
type Sealer struct {
	c     *seccrypto.Cipher
	epoch uint64
}

// New derives a Sealer's encryption and MAC keys from the store seed
// and draws the session epoch.
func New(seed uint64) *Sealer {
	var m [8 + 12]byte
	binary.LittleEndian.PutUint64(m[:8], seed)
	copy(m[8:], "aria-seal-v1")
	d := sha256.Sum256(m[:])
	c, err := seccrypto.New(d[:16], d[16:])
	if err != nil {
		// Unreachable: the derived keys are always the right size.
		panic(err)
	}
	var e [8]byte
	if _, err := rand.Read(e[:]); err != nil {
		// Unreachable in practice: the platform CSPRNG never fails on
		// supported targets, and a sealer without a fresh epoch must
		// not seal anything.
		panic(err)
	}
	return &Sealer{c: c, epoch: binary.LittleEndian.Uint64(e[:])}
}

// Epoch returns the sealer's session epoch (exposed for tests that
// assert keystream separation across sessions).
func (s *Sealer) Epoch() uint64 { return s.epoch }

// ChainInit returns the initial chain value for a record lineage,
// binding the lineage label and its starting sequence number so a
// record sealed for one lineage cannot start another.
func (s *Sealer) ChainInit(label string, start uint64) Chain {
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], start)
	var out [seccrypto.MACSize]byte
	s.c.MAC(&out, []byte(label), seq[:])
	return out
}

// Seal encrypts payload under (seq, salt, epoch) and returns the sealed
// record together with the successor chain value. The salt partitions
// the keystream by purpose (WAL records vs snapshot records — callers
// may fold further lineage identity into it), and the sealer's epoch is
// XORed in so no other sealing session shares the counter blocks.
func (s *Sealer) Seal(seq, salt uint64, chain Chain, payload []byte) ([]byte, Chain) {
	rec := make([]byte, Overhead+len(payload))
	binary.LittleEndian.PutUint64(rec[:8], seq)
	binary.LittleEndian.PutUint64(rec[8:16], s.epoch)
	ctr := seccrypto.CounterBlock(seq, salt^s.epoch)
	s.c.CTRCrypt(&ctr, rec[16:16+len(payload)], payload)
	var saltB [8]byte
	binary.LittleEndian.PutUint64(saltB[:], salt)
	var mac [seccrypto.MACSize]byte
	s.c.MAC(&mac, chain[:], saltB[:], rec[:16+len(payload)])
	copy(rec[16+len(payload):], mac[:])
	return rec, mac
}

// Stream seals a run of records straight into a caller's buffer: the
// same bytes Seal produces, without Seal's per-record record, keystream
// and MAC allocations. A checkpoint seals tens of thousands of pairs in
// a row through one. Not safe for concurrent use; the Sealer it came
// from stays usable alongside it.
type Stream struct {
	s    *Sealer
	ctr  *seccrypto.CTRStream
	cmac *seccrypto.MACer
	mac  [seccrypto.MACSize]byte
}

// NewStream returns a Stream sealing under s's keys and epoch.
func (s *Sealer) NewStream() *Stream {
	return &Stream{s: s, ctr: s.c.NewCTRStream(), cmac: s.c.NewMACer()}
}

// AppendSeal is Seal appending the sealed record to dst instead of
// allocating it; payload must not alias dst's spare capacity.
func (st *Stream) AppendSeal(dst []byte, seq, salt uint64, chain Chain, payload []byte) ([]byte, Chain) {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, st.s.epoch)
	dst = append(dst, payload...)
	ctr := seccrypto.CounterBlock(seq, salt^st.s.epoch)
	st.ctr.Crypt(&ctr, dst[off+16:], dst[off+16:])
	var saltB [8]byte
	binary.LittleEndian.PutUint64(saltB[:], salt)
	st.cmac.MAC(&st.mac, chain[:], saltB[:], dst[off:])
	return append(dst, st.mac[:]...), st.mac
}

// Open verifies rec against the expected chain value and decrypts it,
// returning the sequence number, the payload, and the successor chain.
// The record's own (authenticated) epoch drives the keystream, so a
// sealer opens records written by any earlier session under the same
// seed. Any authentication failure — including a record too short to
// carry the seal framing — returns ErrTampered.
func (s *Sealer) Open(salt uint64, chain Chain, rec []byte) (seq uint64, payload []byte, next Chain, err error) {
	if len(rec) < Overhead {
		return 0, nil, chain, ErrTampered
	}
	body := rec[:len(rec)-seccrypto.MACSize]
	mac := rec[len(rec)-seccrypto.MACSize:]
	var saltB [8]byte
	binary.LittleEndian.PutUint64(saltB[:], salt)
	if !s.c.VerifyMAC(mac, chain[:], saltB[:], body) {
		return 0, nil, chain, ErrTampered
	}
	seq = binary.LittleEndian.Uint64(rec[:8])
	epoch := binary.LittleEndian.Uint64(rec[8:16])
	payload = make([]byte, len(body)-16)
	ctr := seccrypto.CounterBlock(seq, salt^epoch)
	s.c.CTRCrypt(&ctr, payload, body[16:])
	copy(next[:], mac)
	return seq, payload, next, nil
}
