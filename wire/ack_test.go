package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// These tests pin the ack encoding (DESIGN.md §12): acks travel one per
// frame, and the coalesced-ack ID list an earlier wire generation could
// append to a TAck is neither encoded nor decoded. A frame that carries
// one is ErrFrame, like any trailing garbage.

// TestSingleAckEncodingUnchanged pins the plain ack's bytes, and that
// Message.AckIDs never reaches the wire.
func TestSingleAckEncodingUnchanged(t *testing.T) {
	plain := Encode(&Message{Type: TAck, ID: 7, From: "a", OK: true})
	// The layout by hand: header, id, from, ok, empty err — and no
	// optional busy byte, because Busy is false.
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
	if !bytes.Equal(with, plain) {
		t.Fatalf("AckIDs reached the wire:\n plain %x\n with  %x", plain, with)
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
	// varints, but an explicit false busy marker is never encoded.
	crafted := seal(append(append(append([]byte(nil), body...), 0), 0))
	if _, err := Decode(crafted); !errors.Is(err, ErrFrame) {
		t.Fatalf("zero-count ack ids: err = %v, want ErrFrame", err)
	}
}

// TestAckTrailingBytesStillRejected keeps the fail-closed contract alive
// after the last optional field: bytes beyond the busy marker — an ID
// list, or whatever a later generation adds there — are an error.
func TestAckTrailingBytesStillRejected(t *testing.T) {
	frame := Encode(&Message{Type: TAck, ID: 7, From: "a", OK: true, Busy: true})
	body := frame[:len(frame)-4]
	for _, tail := range [][]byte{{0}, {2, 8, 9}} {
		crafted := seal(append(append([]byte(nil), body...), tail...))
		if _, err := Decode(crafted); !errors.Is(err, ErrFrame) {
			t.Fatalf("trailing %x after the busy marker: err = %v, want ErrFrame", tail, err)
		}
	}
}
