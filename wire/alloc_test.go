package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"tiamat/tuple"
)

// allocMsg is a representative TResult frame (the take protocol's reply).
func allocMsg() *Message {
	return &Message{
		Type: TResult, ID: 7, From: "node-a:7703",
		Found: true, HoldID: 99,
		Tuple: tuple.T(tuple.String("req"), tuple.Int(42), tuple.Bytes(make([]byte, 256))),
	}
}

// TestAppendEncodeNoAllocs pins the encode hot path at zero allocations
// once the destination buffer is warm — the property the pooled
// transports rely on.
func TestAppendEncodeNoAllocs(t *testing.T) {
	m := allocMsg()
	dst := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendEncode(dst[:0], m)
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode into warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestDecodeIsOneObject pins the receive path at one object per small
// frame of a take (op, result, accept, ack) whose From the channel names:
// Decode makes nothing but the frame's own object, plus one string per
// trailer field that needs its own (Err, ReplOrigin). A frame that
// carries its From costs one more.
func TestDecodeIsOneObject(t *testing.T) {
	for _, c := range goldenCases() {
		switch c.msg.Type {
		case TOp, TResult, TAccept, TAck:
		default:
			continue
		}
		want := 1.0
		for _, own := range []bool{c.msg.Err != "", c.msg.ReplOrigin != ""} {
			if own {
				want++
			}
		}
		byChannel := AppendEncodeBy(nil, c.msg, c.msg.From)
		if got := testing.AllocsPerRun(100, func() { _, _ = Decode(byChannel) }); got != want {
			t.Errorf("%s, From left to the channel: Decode %v allocs, want %v", c.name, got, want)
		}
		if c.msg.From == "" {
			continue
		}
		data := Encode(c.msg)
		if got := testing.AllocsPerRun(100, func() { _, _ = Decode(data) }); got != want+1 {
			t.Errorf("%s: Decode %v allocs, want %v (one more for From)", c.name, got, want+1)
		}
	}
}

// TestDecodeAckIDsBoundedByFrame: a CRC-valid ack of a few bytes that
// carries an earlier generation's coalesced-ID list claiming 2^20 IDs is
// malformed, and is found so without reserving room for them.
func TestDecodeAckIDsBoundedByFrame(t *testing.T) {
	data := ackIDsClaim(1 << 20)
	if _, err := Decode(data); !errors.Is(err, ErrFrame) {
		t.Fatalf("%d-byte ack claiming 2^20 IDs: got %v, want ErrFrame", len(data), err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		_, _ = Decode(data)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("rejecting it allocated %d B per decode, want under 1 KiB", per)
	}
}

// ackIDsClaim is a checksummed ack-ok frame whose coalesced ID list
// claims n IDs and carries one.
func ackIDsClaim(n uint64) []byte {
	b := []byte{MagicA, MagicB, version, byte(TAck)}
	b = binary.AppendUvarint(b, 7)
	b = appendStr(b, "n01")
	b = appendBool(b, true)  // ok
	b = appendStr(b, "")     // err
	b = appendBool(b, false) // busy, filler ahead of the IDs
	b = binary.AppendUvarint(b, n)
	b = binary.AppendUvarint(b, 8)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestPooledRoundtripAllocs bounds the whole pooled encode+decode cycle,
// mirroring what a transport does per frame.
func TestPooledRoundtripAllocs(t *testing.T) {
	m := allocMsg()
	// Warm the pool.
	b := GetBuf()
	b.B = AppendEncode(b.B, m)
	b.Release()
	allocs := testing.AllocsPerRun(100, func() {
		buf := GetBuf()
		buf.B = AppendEncode(buf.B, m)
		if _, err := DecodeNoCopy(buf.B); err != nil {
			t.Fatal(err)
		}
		buf.Release()
	})
	if allocs > 8 {
		t.Fatalf("pooled roundtrip: %v allocs/op, want <= 8", allocs)
	}
}
