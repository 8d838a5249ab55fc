package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// These tests pin the coalesced-ack encoding (DESIGN.md §12): the AckIDs
// field is an optional trailer on TAck, so batched senders interoperate
// with pre-AckIDs decoders the same way every other optional field does —
// old peers reject the unfamiliar frame as ErrFrame (degraded) rather
// than misreading it (incorrect), and single acks are byte-identical to
// what they always were.

func TestAckIDsRoundtrip(t *testing.T) {
	cases := []*Message{
		{Type: TAck, ID: 7, From: "a", OK: true, AckIDs: []uint64{9, 12, 1 << 40}},
		{Type: TAck, ID: 1, From: "a", OK: true, Busy: true, AckIDs: []uint64{2}},
		{Type: TAck, ID: 3, From: "a", OK: true, Err: "held", AckIDs: []uint64{4, 5}},
	}
	for _, want := range cases {
		got, err := Decode(Encode(want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.OK != want.OK || got.Busy != want.Busy ||
			got.Err != want.Err || len(got.AckIDs) != len(want.AckIDs) {
			t.Fatalf("roundtrip %+v -> %+v", want, got)
		}
		for i := range want.AckIDs {
			if got.AckIDs[i] != want.AckIDs[i] {
				t.Fatalf("ack id %d: got %d want %d", i, got.AckIDs[i], want.AckIDs[i])
			}
		}
	}
}

// TestSingleAckEncodingUnchanged pins the mixed-version contract from
// both directions: a plain ack (no AckIDs) must not grow any new bytes —
// its encoding is exactly the old one — and a coalesced ack must be a
// strict extension of the plain encoding, i.e. the extra information
// rides as trailing bytes. A pre-AckIDs decoder consumes the old prefix
// and then fails the whole-buffer check, so coalescing degrades to
// ErrFrame on old peers instead of silently dropping the extra IDs.
func TestSingleAckEncodingUnchanged(t *testing.T) {
	plain := Encode(&Message{Type: TAck, ID: 7, From: "a", OK: true})
	// Reconstruct the pre-AckIDs layout by hand: header, id, from, ok,
	// empty err — and no optional busy byte, because Busy is false.
	var want []byte
	want = append(want, plain[0], plain[1], plain[2], byte(TAck))
	want = binary.AppendUvarint(want, 7)
	want = binary.AppendUvarint(want, 1)
	want = append(want, 'a')
	want = append(want, 1)               // ok
	want = binary.AppendUvarint(want, 0) // err ""
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(plain, want) {
		t.Fatalf("plain ack encoding changed:\n got %x\nwant %x", plain, want)
	}

	with := Encode(&Message{Type: TAck, ID: 7, From: "a", OK: true, AckIDs: []uint64{8}})
	if !bytes.HasPrefix(with[:len(with)-4], plain[:len(plain)-4]) {
		t.Fatalf("coalesced ack is not an extension of the plain encoding:\n plain %x\n with  %x", plain, with)
	}
	if len(with) <= len(plain) {
		t.Fatal("coalesced ack did not grow the frame")
	}
}

// seal appends a valid CRC trailer to a hand-edited frame body.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestAckIDsZeroCountRejected(t *testing.T) {
	frame := Encode(&Message{Type: TAck, ID: 7, From: "a", OK: true})
	body := frame[:len(frame)-4]
	// Busy byte (false) followed by a zero-length ID list: well-formed
	// varints, but an empty list carries no information and is reserved.
	crafted := seal(append(append(append([]byte(nil), body...), 0), 0))
	if _, err := Decode(crafted); !errors.Is(err, ErrFrame) {
		t.Fatalf("zero-count ack ids: err = %v, want ErrFrame", err)
	}
}

// TestAckTrailingBytesStillRejected keeps the fail-closed contract alive
// for whatever optional field comes after AckIDs: bytes beyond the ID
// list are an error today, so a future extension degrades on this
// decoder exactly as AckIDs degrades on its predecessors.
func TestAckTrailingBytesStillRejected(t *testing.T) {
	frame := Encode(&Message{Type: TAck, ID: 7, From: "a", OK: true, AckIDs: []uint64{8, 9}})
	body := frame[:len(frame)-4]
	crafted := seal(append(append([]byte(nil), body...), 0))
	if _, err := Decode(crafted); !errors.Is(err, ErrFrame) {
		t.Fatalf("trailing byte after ack ids: err = %v, want ErrFrame", err)
	}
}
