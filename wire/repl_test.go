package wire

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"tiamat/tuple"
)

// replFrames is the set of replication-protocol frames (DESIGN.md §13):
// a replicate/repair write-through, an invalidation, a found result
// carrying the replica identity (with and without an explicit busy
// byte), and a failover take (with and without a budget).
func replFrames() []*Message {
	tp := tuple.T(tuple.String("tok"), tuple.Int(7))
	return []*Message{
		{Type: TOut, ID: 10, From: "origin", TTL: time.Minute, Tuple: tp,
			ReplOrigin: "origin", ReplSeq: 3},
		{Type: TCancel, ID: 11, From: "taker", ReplOrigin: "origin", ReplSeq: 3},
		{Type: TResult, ID: 12, From: "backup", Found: true, HoldID: 9, Tuple: tp,
			ReplOrigin: "origin", ReplSeq: 3},
		{Type: TResult, ID: 13, From: "backup", Found: true, HoldID: 9, Tuple: tp,
			Busy: false, ReplOrigin: "org-2", ReplSeq: 1},
		{Type: TOp, ID: 14, From: "taker", Op: OpInp, TTL: time.Second,
			Template: tuple.Tmpl(tuple.String("tok"), tuple.FormalInt()), Failover: true},
		{Type: TOp, ID: 15, From: "taker", Op: OpIn, TTL: time.Second,
			Budget:   250 * time.Millisecond,
			Template: tuple.Tmpl(tuple.String("tok"), tuple.FormalInt()), Failover: true},
	}
}

func TestRoundTripReplFrames(t *testing.T) {
	for _, m := range replFrames() {
		back := roundTrip(t, m)
		if back.ReplOrigin != m.ReplOrigin || back.ReplSeq != m.ReplSeq || back.Failover != m.Failover {
			t.Fatalf("%s: repl fields lost: got (%q,%d,%v) want (%q,%d,%v)",
				m.Type, back.ReplOrigin, back.ReplSeq, back.Failover,
				m.ReplOrigin, m.ReplSeq, m.Failover)
		}
		if back.Budget != m.Budget || back.Busy != m.Busy || back.HoldID != m.HoldID {
			t.Fatalf("%s: prior optional fields disturbed: %+v", m.Type, back)
		}
		if m.Tuple.Arity() > 0 && !back.Tuple.Equal(m.Tuple) {
			t.Fatalf("%s: tuple lost", m.Type)
		}
	}
}

// A zero ReplSeq is never encoded, so a frame carrying one was crafted or
// corrupted: fail closed instead of decoding it as "not replicated".
func TestDecodeRejectsZeroReplSeq(t *testing.T) {
	base := &Message{Type: TCancel, ID: 1, From: "a", HoldID: 0}
	body := Encode(base)
	body = body[:len(body)-4] // strip CRC
	body = appendStr(body, "origin")
	body = binary.AppendUvarint(body, 0) // seq 0: invalid on the wire
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := Decode(body); err == nil {
		t.Fatal("zero repl seq accepted")
	}
}

// Truncating the trailing replication fields anywhere must either fail
// the decode or fall back to a frame with no replication state at all —
// never a misread identity. This pins the mixed-version contract: an old
// decoder (which stops reading where the base frame ends) sees extended
// frames only as trailing garbage, and a partial trailer cannot smuggle
// in a different replica identity.
func TestReplTrailingFieldsFailClosed(t *testing.T) {
	for _, m := range replFrames() {
		full := Encode(m)
		payload := full[:len(full)-4]
		// Base length: the same message with the extension cleared.
		bare := *m
		bare.ReplOrigin, bare.ReplSeq, bare.Failover = "", 0, false
		bare.Busy, bare.Budget = false, 0
		base := len(Encode(&bare)) - 4
		for cut := base; cut < len(payload); cut++ {
			frame := append([]byte(nil), payload[:cut]...)
			frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
			got, err := Decode(frame)
			if err != nil {
				continue // fail-closed: truncation rejected
			}
			// A successful decode must be the degraded single-holder
			// reading, never a partial replication trailer.
			if got.ReplSeq != 0 || got.ReplOrigin != "" || got.Failover {
				t.Fatalf("%s: truncation at %d/%d decoded repl state (%q,%d,%v)",
					m.Type, cut, len(payload), got.ReplOrigin, got.ReplSeq, got.Failover)
			}
		}
	}
}

// R=1 instances never set the extension fields, and the encoder only
// emits them when set — so the replication-capable codec emits
// byte-identical frames for unreplicated traffic.
func TestUnreplicatedFramesUnchanged(t *testing.T) {
	tp := tuple.T(tuple.String("k"), tuple.Int(1))
	for _, m := range []*Message{
		{Type: TOut, ID: 1, From: "a", TTL: time.Second, Tuple: tp},
		{Type: TCancel, ID: 2, From: "a", HoldID: 7},
		{Type: TResult, ID: 3, From: "a", Found: true, HoldID: 7, Tuple: tp},
		{Type: TOp, ID: 4, From: "a", Op: OpInp, TTL: time.Second,
			Template: tuple.Tmpl(tuple.Any())},
	} {
		withRepl := *m
		withRepl.ReplOrigin, withRepl.ReplSeq, withRepl.Failover = "", 0, false
		a, b := Encode(m), Encode(&withRepl)
		if string(a) != string(b) {
			t.Fatalf("%s: zero-valued repl fields changed the encoding", m.Type)
		}
		back := roundTrip(t, m)
		if back.ReplSeq != 0 || back.ReplOrigin != "" || back.Failover {
			t.Fatalf("%s: phantom repl state decoded: %+v", m.Type, back)
		}
	}
}
