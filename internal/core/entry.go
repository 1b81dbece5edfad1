package core

import (
	"encoding/binary"
	"fmt"

	"github.com/ariakv/aria/internal/redir"
	"github.com/ariakv/aria/internal/seccrypto"
	"github.com/ariakv/aria/internal/sgx"
)

// KV entry layout in untrusted memory (paper §V-D step 4, plus the chain
// fields of Aria-H):
//
//	offset  0: next    (8)  plaintext chain pointer
//	offset  8: hint    (4)  key hint: hash of the plaintext key
//	offset 12: redptr  (8)  redirection pointer naming the counter
//	offset 20: klen    (2)
//	offset 22: vlen    (2)
//	offset 24: enc(key ‖ value)
//	offset 24+klen+vlen: MAC (16)
//
// The MAC binds redptr, lengths, ciphertext, the counter value, and the
// AdField — the untrusted address of the pointer that points at this entry
// (paper §V-C "Index Protection") — so swapping two chain pointers or
// relocating an entry is detected.
const (
	entOffNext   = 0
	entOffHint   = 8
	entOffRedPtr = 12
	entOffKLen   = 20
	entOffVLen   = 22
	entOffKV     = 24
	entOverhead  = entOffKV + seccrypto.MACSize
)

func (e *Engine) maxEntrySize() int {
	return entOverhead + e.opts.MaxKeySize + e.opts.MaxValueSize
}

// entryRef is a decoded, verified entry staged in enclave scratch memory.
type entryRef struct {
	block  sgx.UPtr
	next   sgx.UPtr
	hint   uint32
	redptr redir.RedPtr
	key    []byte // plaintext view into scratch; valid until next open/seal
	value  []byte
	size   int
}

// entryHeader reads only the plaintext chain header of an entry (next +
// hint), the cheap step of a chain walk.
func (e *Engine) entryHeader(block sgx.UPtr) (next sgx.UPtr, hint uint32) {
	b := e.enc.UBytes(block, 12)
	return sgx.UPtr(binary.LittleEndian.Uint64(b[entOffNext:])),
		binary.LittleEndian.Uint32(b[entOffHint:])
}

// openEntry copies the entry at block into enclave scratch, verifies its MAC
// against its counter and AdField, and decrypts it. adfield is the address
// of the pointer through which the entry was reached.
func (e *Engine) openEntry(block sgx.UPtr, adfield sgx.UPtr) (entryRef, error) {
	var ref entryRef
	if !e.enc.UValid(block, entOffKV) {
		return ref, fmt.Errorf("%w: entry pointer %#x out of range", ErrIntegrity, block)
	}
	hdr := e.enc.UBytes(block, entOffKV)
	klen := int(binary.LittleEndian.Uint16(hdr[entOffKLen:]))
	vlen := int(binary.LittleEndian.Uint16(hdr[entOffVLen:]))
	if klen == 0 || klen > e.opts.MaxKeySize || vlen > e.opts.MaxValueSize {
		return ref, fmt.Errorf("%w: entry at %#x has implausible lengths", ErrIntegrity, block)
	}
	total := entOverhead + klen + vlen
	if !e.enc.UValid(block, total) {
		return ref, fmt.Errorf("%w: entry at %#x extends past the arena", ErrIntegrity, block)
	}
	// Stage the whole entry inside the enclave before trusting any of it.
	e.enc.CopyIn(e.scratch, block, total)
	buf := e.enc.EBytesRaw(e.scratch, total)

	ref.block = block
	ref.next = sgx.UPtr(binary.LittleEndian.Uint64(buf[entOffNext:]))
	ref.hint = binary.LittleEndian.Uint32(buf[entOffHint:])
	ref.redptr = redir.RedPtr(binary.LittleEndian.Uint64(buf[entOffRedPtr:]))
	ref.size = total

	ctr, err := e.ctrs.CounterGet(ref.redptr)
	if err != nil {
		return ref, err
	}
	var ad [8]byte
	binary.LittleEndian.PutUint64(ad[:], uint64(adfield))
	macOff := entOffKV + klen + vlen
	e.enc.ChargeMAC(macOff - entOffRedPtr + 8 + 16)
	if !e.mac.Verify(buf[macOff:macOff+seccrypto.MACSize],
		buf[entOffRedPtr:macOff], ad[:], ctr[:]) {
		return ref, fmt.Errorf("%w: entry at %#x (tampered, replayed, or relocated)", ErrIntegrity, block)
	}
	// Decrypt key‖value in place.
	e.enc.ChargeCTR(klen + vlen)
	e.cip.CTRCrypt(&ctr, buf[entOffKV:macOff], buf[entOffKV:macOff])
	ref.key = buf[entOffKV : entOffKV+klen]
	ref.value = buf[entOffKV+klen : macOff]
	return ref, nil
}

// sealEntry builds, encrypts, and MACs an entry in the seal half of the
// scratch buffer and writes it to the given block. The counter must already
// have been bumped for this write.
func (e *Engine) sealEntry(block sgx.UPtr, next sgx.UPtr, hint uint32,
	rp redir.RedPtr, ctr [16]byte, key, value []byte, adfield sgx.UPtr) {
	total := entOverhead + len(key) + len(value)
	half := e.scratchN / 2
	buf := e.enc.EBytesRaw(e.scratch+sgx.EPtr(half), total)
	e.enc.ETouch(e.scratch+sgx.EPtr(half), total)
	binary.LittleEndian.PutUint64(buf[entOffNext:], uint64(next))
	binary.LittleEndian.PutUint32(buf[entOffHint:], hint)
	binary.LittleEndian.PutUint64(buf[entOffRedPtr:], uint64(rp))
	binary.LittleEndian.PutUint16(buf[entOffKLen:], uint16(len(key)))
	binary.LittleEndian.PutUint16(buf[entOffVLen:], uint16(len(value)))
	kv := buf[entOffKV : entOffKV+len(key)+len(value)]
	copy(kv, key)
	copy(kv[len(key):], value)
	e.enc.ChargeCTR(len(kv))
	e.cip.CTRCrypt(&ctr, kv, kv)
	macOff := entOffKV + len(key) + len(value)
	var ad [8]byte
	binary.LittleEndian.PutUint64(ad[:], uint64(adfield))
	e.enc.ChargeMAC(macOff - entOffRedPtr + 8 + 16)
	e.mac.MAC((*[16]byte)(buf[macOff:macOff+seccrypto.MACSize]), buf[entOffRedPtr:macOff], ad[:], ctr[:])
	e.enc.CopyOut(block, e.scratch+sgx.EPtr(half), total)
}

// entrySealedSize returns the block size needed for a key/value pair.
func entrySealedSize(klen, vlen int) int { return entOverhead + klen + vlen }

// rewriteEntryMAC recomputes and rewrites the MAC of the entry at block
// after its AdField changed (its predecessor's pointer field moved, e.g. on
// unlink or relocation). The entry content is unchanged, so the counter is
// not bumped; the entry is verified under its old AdField first.
func (e *Engine) rewriteEntryMAC(block sgx.UPtr, oldAd, newAd sgx.UPtr) error {
	ref, err := e.openEntry(block, oldAd)
	if err != nil {
		return err
	}
	ctr, err := e.ctrs.CounterGet(ref.redptr)
	if err != nil {
		return err
	}
	// Re-encrypt (same counter, same plaintext — identical ciphertext)
	// and re-MAC under the new AdField.
	e.sealEntry(block, ref.next, ref.hint, ref.redptr, ctr, ref.key, ref.value, newAd)
	return nil
}

// writeNextPointer updates the plaintext chain pointer stored at addr.
func (e *Engine) writeNextPointer(addr sgx.UPtr, next sgx.UPtr) {
	binary.LittleEndian.PutUint64(e.enc.UBytes(addr, 8), uint64(next))
}

// readPointer reads a plaintext pointer stored at addr.
func (e *Engine) readPointer(addr sgx.UPtr) sgx.UPtr {
	return sgx.UPtr(binary.LittleEndian.Uint64(e.enc.UBytes(addr, 8)))
}
