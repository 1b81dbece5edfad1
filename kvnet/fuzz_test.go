package kvnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"github.com/ariakv/aria"
)

// Fuzz harnesses for the wire decoders. They run their seed corpus under
// plain `go test`; `go test -fuzz=FuzzDecodeRequest ./kvnet` explores
// further. The invariants: the decoders never panic, never accept length
// fields beyond the wire limits, and never return altered bytes as valid.

func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodeRequest(opGet, []byte("k"), nil, 0))
	f.Add(encodeRequest(opPut, []byte("key"), []byte("value"), 0))
	f.Add(encodeRequest(opScan, []byte("a"), []byte("z"), 100))
	f.Add(encodeRequest(opDelete, bytes.Repeat([]byte("k"), 300), nil, 0))
	f.Add([]byte{})
	f.Add([]byte{1, 2})
	f.Add([]byte{opPut, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{opPut, 0, 1, 'k', 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rq, err := decodeRequest(data)
		if err != nil {
			return
		}
		if rq.op >= opMGet && rq.op <= opMDelete || rq.op == opTxnCommit {
			// Batch requests carry mkeys/mvals and a transaction its op
			// list, not key/value; their round trips are
			// FuzzDecodeBatchRequest's and FuzzDecodeTxnRequest's job.
			return
		}
		if len(rq.key) > maxKeyWire {
			t.Fatalf("decoded key of %d bytes exceeds wire limit", len(rq.key))
		}
		if len(rq.value) > maxValueWire {
			t.Fatalf("decoded value of %d bytes exceeds wire limit", len(rq.value))
		}
		// A successfully decoded request re-encodes to an equivalent one.
		rt, err := decodeRequest(encodeRequest(rq.op, rq.key, rq.value, rq.limit))
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if rt.op != rq.op || !bytes.Equal(rt.key, rq.key) ||
			!bytes.Equal(rt.value, rq.value) || rt.limit != rq.limit {
			t.Fatalf("round trip mismatch: %+v vs %+v", rt, rq)
		}
	})
}

func frameBytes(payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(nil))
	f.Add(frameBytes([]byte("hello")))
	f.Add(frameBytes(encodeRequest(opPut, []byte("k"), []byte("v"), 0)))
	// Tagged (version-2) frames: hello handshake, a tagged request, a
	// tagged response, and a frame whose payload is a bare tag.
	f.Add(appendFrame(nil, 0, encodeHello()))
	f.Add(appendFrame(nil, 7, encodeRequest(opGet, []byte("k"), nil, 0)))
	f.Add(appendFrame(nil, 1<<31, encodeResponse(stOK, []byte("v"))))
	f.Add(frameBytes(taggedPayload(42, nil)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 0, 'a', 'b'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), maxFrameWire)
		if err != nil {
			return
		}
		if len(payload) > maxFrameWire {
			t.Fatalf("frame of %d bytes exceeds the cap it was read with", len(payload))
		}
		// An accepted frame must carry a matching checksum.
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[4:8]) {
			t.Fatal("readFrame accepted a frame with a bad checksum")
		}
	})
}

func FuzzDecodePair(f *testing.F) {
	f.Add(encodePair([]byte("k"), []byte("v")))
	f.Add(encodePair(nil, nil))
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, v, err := decodePair(data)
		if err != nil {
			return
		}
		rk, rv, err := decodePair(encodePair(k, v))
		if err != nil || !bytes.Equal(rk, k) || !bytes.Equal(rv, v) {
			t.Fatalf("pair round trip: %q/%q vs %q/%q (%v)", rk, rv, k, v, err)
		}
	})
}

// FuzzSplitTag covers the version-2 tag layer: splitTag never panics,
// and whatever it accepts round-trips through taggedPayload.
func FuzzSplitTag(f *testing.F) {
	f.Add(taggedPayload(0, encodeHello()))
	f.Add(taggedPayload(1, encodeRequest(opGet, []byte("k"), nil, 0)))
	f.Add(taggedPayload(0xffffffff, nil))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, body, err := splitTag(data)
		if err != nil {
			if len(data) >= tagHdrSize {
				t.Fatalf("splitTag rejected a %d-byte payload", len(data))
			}
			return
		}
		rt, rb, err := splitTag(taggedPayload(tag, body))
		if err != nil || rt != tag || !bytes.Equal(rb, body) {
			t.Fatalf("tag round trip: %d/%q vs %d/%q (%v)", rt, rb, tag, body, err)
		}
	})
}

// FuzzParseHello asserts the hello parser never panics and only accepts
// the exact magic-framed body encodeHello produces.
func FuzzParseHello(f *testing.F) {
	f.Add(encodeHello())
	f.Add([]byte{opHello, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, ok := parseHello(data); ok && !bytes.Equal(data[:5], encodeHello()[:5]) {
			t.Fatalf("parseHello accepted %x", data)
		}
	})
}

// TestSingleBitFlipAlwaysDetected flips every byte of a small frame in
// turn and asserts readFrame never hands back altered bytes as valid.
func TestSingleBitFlipAlwaysDetected(t *testing.T) {
	orig := frameBytes(encodeRequest(opPut, []byte("key"), []byte("value"), 0))
	for i := range orig {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			damaged := append([]byte(nil), orig...)
			damaged[i] ^= mask
			payload, err := readFrame(bytes.NewReader(damaged), maxFrameWire)
			if err == nil {
				t.Fatalf("flip at byte %d (mask %#x) accepted: payload %q", i, mask, payload)
			}
		}
	}
}

// TestCorruptRequestRejectedBeforeProcessing corrupts a Put frame on the
// wire — once before the hello and once on a live tagged connection —
// and asserts the server answers stCorrupt without touching the store,
// then closes the connection.
func TestCorruptRequestRejectedBeforeProcessing(t *testing.T) {
	st := openStore(t)
	srv := startServerConfig(t, st, ServerConfig{
		IdleTimeout:  time.Second,
		WriteTimeout: time.Second,
		DrainTimeout: 100 * time.Millisecond,
	})
	addr := waitAddr(t, srv)

	t.Run("pre-hello", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		frame := frameBytes(taggedPayload(0, encodeHello()))
		frame[len(frame)-1] ^= 0x40 // damage the hello in transit
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(time.Second))
		resp, err := readFrame(conn, maxTaggedWire)
		if err != nil {
			t.Fatalf("no response to corrupt frame: %v", err)
		}
		// Pre-hello notices are untagged: the status leads the payload.
		if len(resp) < 1 || resp[0] != stCorrupt {
			t.Fatalf("response status = %d, want stCorrupt", resp[0])
		}
	})

	t.Run("post-hello", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := clientHello(conn, time.Second); err != nil {
			t.Fatal(err)
		}
		frame := appendFrame(nil, 3, encodeRequest(opPut, []byte("poison"), []byte("v"), 0))
		frame[len(frame)-1] ^= 0x40 // damage the value byte in transit
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(time.Second))
		resp, err := readFrame(conn, maxTaggedWire)
		if err != nil {
			t.Fatalf("no response to corrupt frame: %v", err)
		}
		// Post-hello the notice arrives on reserved tag 0.
		tag, body, err := splitTag(resp)
		if err != nil || tag != 0 {
			t.Fatalf("corrupt notice tag = %d (%v), want 0", tag, err)
		}
		if len(body) < 1 || body[0] != stCorrupt {
			t.Fatalf("response status = %d, want stCorrupt", body[0])
		}
	})

	// The damaged writes must not have been applied.
	if _, err := st.Get([]byte("poison")); !errors.Is(err, aria.ErrNotFound) {
		t.Fatalf("corrupt put reached the store: %v", err)
	}
}
