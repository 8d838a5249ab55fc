package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"tiamat/tuple"
)

// truncated strips the CRC and drops n trailing body bytes.
func truncated(frame []byte, n int) []byte {
	body := frame[:len(frame)-4]
	return append([]byte(nil), body[:len(body)-n]...)
}

// reframe appends a fresh checksum so only the body mutation, not a CRC
// mismatch, is what the decoder sees.
func reframe(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	data := Encode(m)
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("decode %s: %v", m.Type, err)
	}
	return back
}

func TestRoundTripAllTypes(t *testing.T) {
	tp := tuple.T(tuple.String("req"), tuple.Int(7))
	pl := Encode(&Message{Type: TDiscover, ID: 1, From: "x"})
	msgs := []*Message{
		{Type: TDiscover, ID: 1, From: "a"},
		{Type: TAnnounce, ID: 2, From: "b", Persistent: true},
		{Type: TOp, ID: 3, From: "c", Op: OpIn, TTL: 1500 * time.Millisecond,
			Template: tuple.Tmpl(tuple.String("req"), tuple.FormalInt())},
		{Type: TResult, ID: 3, From: "d", Found: true, HoldID: 9, Tuple: tp},
		{Type: TResult, ID: 4, From: "d", Found: false, HoldID: 0},
		{Type: TAccept, ID: 3, From: "c", HoldID: 9},
		{Type: TRelease, ID: 3, From: "c", HoldID: 9},
		{Type: TCancel, ID: 3, From: "c", HoldID: 0},
		{Type: TOut, ID: 5, From: "e", TTL: time.Minute, Tuple: tp},
		{Type: TEval, ID: 6, From: "f", Func: "mandel", TTL: time.Second, Tuple: tp},
		{Type: TAck, ID: 5, From: "g", OK: false, Err: "lease: refused"},
		{Type: TRelay, ID: 7, From: "h", Target: "far", Payload: pl},
		{Type: TGoodbye, ID: 8, From: "i"},
	}
	for _, m := range msgs {
		back := roundTrip(t, m)
		if back.Type != m.Type || back.ID != m.ID || back.From != m.From {
			t.Fatalf("%s header mismatch: %+v", m.Type, back)
		}
		switch m.Type {
		case TAnnounce:
			if back.Persistent != m.Persistent {
				t.Fatal("persistent lost")
			}
		case TOp:
			if back.Op != m.Op || back.TTL != m.TTL || back.Template.Arity() != m.Template.Arity() {
				t.Fatalf("op mismatch: %+v", back)
			}
			if !back.Template.Matches(tp) {
				t.Fatal("template lost match behaviour")
			}
		case TResult:
			if back.Found != m.Found || back.HoldID != m.HoldID {
				t.Fatalf("result mismatch: %+v", back)
			}
			if m.Found && !back.Tuple.Equal(m.Tuple) {
				t.Fatal("tuple lost")
			}
		case TAccept, TRelease, TCancel:
			if back.HoldID != m.HoldID {
				t.Fatal("holdID lost")
			}
		case TOut:
			if back.TTL != m.TTL || !back.Tuple.Equal(m.Tuple) {
				t.Fatal("out payload lost")
			}
		case TEval:
			if back.Func != m.Func || !back.Tuple.Equal(m.Tuple) || back.TTL != m.TTL {
				t.Fatal("eval payload lost")
			}
		case TAck:
			if back.OK != m.OK || back.Err != m.Err {
				t.Fatal("ack payload lost")
			}
		case TRelay:
			if back.Target != m.Target {
				t.Fatal("target lost")
			}
			inner, err := Decode(back.Payload)
			if err != nil || inner.Type != TDiscover {
				t.Fatalf("relay payload corrupt: %v", err)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Encode(&Message{Type: TDiscover, ID: 1, From: "a"})
	cases := map[string][]byte{
		"empty":       {},
		"short":       {MagicA, MagicB, version},
		"bad magic":   {0, 0, version, byte(TDiscover), 0, 0},
		"bad version": {MagicA, MagicB, 99, byte(TDiscover), 0, 0},
		"bad type":    {MagicA, MagicB, version, 200, 0, 0},
		"zero type":   {MagicA, MagicB, version, 0, 0, 0},
		"trailing":    append(append([]byte{}, good...), 1, 2, 3),
		"truncated":   good[:len(good)-1],
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	if _, err := Decode([]byte{MagicA, MagicB, 99, byte(TDiscover), 0, 0}); !errors.Is(err, ErrVersion) {
		t.Errorf("version error = %v", err)
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	// Any single-byte corruption anywhere in the frame must be caught by
	// the CRC trailer (or an earlier structural check) — never decoded
	// into a different message.
	m := &Message{Type: TResult, ID: 42, From: "node-7", Found: true, HoldID: 3,
		Tuple: tuple.T(tuple.String("req"), tuple.Int(99))}
	good := Encode(m)
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x55
		if _, err := Decode(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	if _, err := Decode(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("trailer corruption: err = %v, want ErrChecksum", err)
	}
}

func TestDecodeBadOpCode(t *testing.T) {
	m := &Message{Type: TOp, ID: 1, From: "a", Op: OpRd, TTL: time.Second,
		Template: tuple.Tmpl(tuple.Any())}
	data := Encode(m)
	// Corrupt the op code byte (immediately after header id+from).
	for i, b := range data {
		if b == byte(OpRd) && i > 4 {
			data[i] = 99
			break
		}
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("bad op code accepted")
	}
}

func TestOpCodeHelpers(t *testing.T) {
	if !OpIn.Removes() || !OpInp.Removes() || OpRd.Removes() || OpRdp.Removes() {
		t.Error("Removes wrong")
	}
	if !OpIn.Blocking() || !OpRd.Blocking() || OpInp.Blocking() || OpRdp.Blocking() {
		t.Error("Blocking wrong")
	}
	for _, o := range []OpCode{OpRd, OpRdp, OpIn, OpInp} {
		if o.String() == "" {
			t.Error("empty op name")
		}
	}
	if OpCode(99).String() == "" || Type(99).String() == "" {
		t.Error("unknown codes must render")
	}
	for ty := TDiscover; ty <= TGoodbye; ty++ {
		if ty.String() == "" {
			t.Errorf("type %d has empty name", ty)
		}
	}
}

type randMsg struct{ M *Message }

func (randMsg) Generate(r *rand.Rand, _ int) reflect.Value {
	types := []Type{TDiscover, TAnnounce, TOp, TResult, TAccept, TRelease, TCancel, TOut, TEval, TAck, TRelay, TGoodbye}
	m := &Message{Type: types[r.Intn(len(types))], ID: r.Uint64() >> 1, From: Addr(randWord(r))}
	switch m.Type {
	case TAnnounce:
		m.Persistent = r.Intn(2) == 0
		m.Degraded = r.Intn(2) == 0
		if r.Intn(2) == 0 {
			m.Caps = 1 + r.Uint64()%uint64(2*CapsCurrent)
		}
	case TOp:
		m.Op = OpCode(1 + r.Intn(4))
		m.TTL = time.Duration(r.Intn(10000)) * time.Millisecond
		m.Template = tuple.Tmpl(tuple.FormalString(), tuple.Int(int64(r.Intn(100))))
	case TResult:
		m.Found = r.Intn(2) == 0
		m.HoldID = uint64(r.Intn(1000))
		if m.Found {
			m.Tuple = tuple.T(tuple.String(randWord(r)), tuple.Int(r.Int63()))
		}
	case TAccept, TRelease, TCancel:
		m.HoldID = uint64(r.Intn(1000))
	case TOut:
		m.TTL = time.Duration(r.Intn(10000)) * time.Millisecond
		m.Tuple = tuple.T(tuple.String(randWord(r)))
	case TEval:
		m.Func = randWord(r)
		m.TTL = time.Duration(r.Intn(10000)) * time.Millisecond
		m.Tuple = tuple.T(tuple.Int(r.Int63()))
	case TAck:
		m.OK = r.Intn(2) == 0
		m.Err = randWord(r)
	case TRelay:
		m.Target = Addr(randWord(r))
		m.Payload = []byte(randWord(r))
	}
	return reflect.ValueOf(randMsg{M: m})
}

func randWord(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestPropRoundTrip(t *testing.T) {
	prop := func(rm randMsg) bool {
		data := Encode(rm.M)
		back, err := Decode(data)
		if err != nil {
			return false
		}
		// Compare via re-encoding: stable encodings imply field equality.
		data2 := Encode(back)
		if len(data) != len(data2) {
			return false
		}
		for i := range data {
			if data[i] != data2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestCapsTruncationFailsClosed covers the capability-field damage a
// cut-short sender could produce: a caps varint chopped mid-value
// must not decode at all, and chopping the whole field must not leave a
// frame that aliases a different capability statement.
func TestCapsTruncationFailsClosed(t *testing.T) {
	wide := Encode(&Message{Type: TAnnounce, ID: 13, From: "s", Caps: 1 << 40})
	if _, err := Decode(reframe(truncated(wide, 1))); !errors.Is(err, ErrFrame) {
		t.Fatalf("mid-varint caps truncation: got %v, want ErrFrame", err)
	}
	// Chopping the entire caps field off a degraded announce leaves a
	// valid (shorter) degraded announce with no caps, which lists nobody.
	deg := Encode(&Message{Type: TAnnounce, ID: 13, From: "s", Degraded: true, Caps: CapsCurrent})
	m, err := Decode(reframe(truncated(deg, 1)))
	if err != nil {
		t.Fatalf("caps field chop: %v", err)
	}
	if !m.Degraded || m.Caps != 0 {
		t.Fatalf("caps field chop: got degraded=%v caps=%#x, want degraded with no caps", m.Degraded, m.Caps)
	}
	// On a healthy announce the same chop strands an explicit false
	// degraded marker, which is non-canonical and must be rejected.
	healthy := Encode(&Message{Type: TAnnounce, ID: 13, From: "s", Caps: CapsCurrent})
	if _, err := Decode(reframe(truncated(healthy, 1))); !errors.Is(err, ErrFrame) {
		t.Fatalf("stranded degraded filler: got %v, want ErrFrame", err)
	}
}

func FuzzDecode(f *testing.F) {
	f.Add(Encode(&Message{Type: TDiscover, ID: 1, From: "seed"}))
	f.Add(Encode(&Message{Type: TOp, ID: 2, From: "s", Op: OpIn, TTL: time.Second,
		Template: tuple.Tmpl(tuple.Any())}))
	// Frames exercising the optional trailing fields: a busy refusal, a
	// busy ack, and an op carrying a propagated budget tighter than its
	// TTL. These are exactly the frames a pre-Busy/Budget decoder never
	// saw, so the corpus pins both the extended and the truncated layout.
	f.Add(Encode(&Message{Type: TResult, ID: 3, From: "s", Found: false, Busy: true}))
	f.Add(Encode(&Message{Type: TAck, ID: 4, From: "s", OK: false, Busy: true}))
	f.Add(Encode(&Message{Type: TOp, ID: 5, From: "s", Op: OpRd, TTL: time.Second,
		Budget: 250 * time.Millisecond, Template: tuple.Tmpl(tuple.Any())}))
	// A degraded announce: the gray-failure self-report rides the same
	// optional-trailing-field contract on TAnnounce.
	f.Add(Encode(&Message{Type: TAnnounce, ID: 6, From: "s", Persistent: true, Degraded: true}))
	// Replication-protocol frames (DESIGN.md §13): a replicate/repair
	// write-through, an invalidation, a result carrying a replica
	// identity, and a failover take — the frames a pre-replication
	// decoder never saw, pinning both the extended and truncated layouts.
	f.Add(Encode(&Message{Type: TOut, ID: 7, From: "s", TTL: time.Minute,
		Tuple: tuple.T(tuple.String("tok"), tuple.Int(1)), ReplOrigin: "s", ReplSeq: 2}))
	f.Add(Encode(&Message{Type: TCancel, ID: 8, From: "s", ReplOrigin: "o", ReplSeq: 5}))
	f.Add(Encode(&Message{Type: TResult, ID: 9, From: "s", Found: true, HoldID: 4,
		Tuple: tuple.T(tuple.String("tok"), tuple.Int(1)), ReplOrigin: "o", ReplSeq: 5}))
	f.Add(Encode(&Message{Type: TOp, ID: 10, From: "s", Op: OpInp, TTL: time.Second,
		Template: tuple.Tmpl(tuple.Any()), Failover: true}))
	// Capability-bearing announces (DESIGN.md §14): the newest optional
	// trailing field, in both healthy and degraded form.
	f.Add(Encode(&Message{Type: TAnnounce, ID: 11, From: "s", Persistent: true, Caps: CapsCurrent}))
	f.Add(Encode(&Message{Type: TAnnounce, ID: 12, From: "s", Degraded: true, Caps: CapBudget | CapBusy}))
	// Truncated-capability frames with recomputed checksums: a caps
	// varint chopped mid-value and an explicit zero caps field. Both are
	// frames no encoder produces; the corpus pins the fail-closed paths.
	f.Add(reframe(truncated(Encode(&Message{Type: TAnnounce, ID: 13, From: "s", Caps: 1 << 40}), 1)))
	f.Add(reframe(append(truncated(Encode(&Message{Type: TAnnounce, ID: 14, From: "s", Caps: 1}), 1), 0)))
	// An ack claiming far more coalesced IDs than it has bytes for.
	f.Add(ackIDsClaim(1 << 20))
	// A frame whose From is left to the channel.
	f.Add(AppendEncodeBy(nil, &Message{Type: TAccept, ID: 15, From: "s", HoldID: 9}, "s"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		// The no-copy decode differs only in where the contents live.
		mm, merr := DecodeNoCopy(data)
		if fmt.Sprint(merr) != fmt.Sprint(err) {
			t.Fatalf("DecodeNoCopy: error %v, Decode's %v", merr, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(Encode(mm), Encode(m)) {
			t.Fatalf("DecodeNoCopy: decoded %+v, Decode %+v", mm, m)
		}
		// A frame encoded by its own sender leaves From to the channel and
		// is otherwise the same frame; by anyone else it is Encode's.
		if m.From != "" {
			if other := AppendEncodeBy(nil, m, m.From+"x"); !bytes.Equal(other, Encode(m)) {
				t.Fatalf("AppendEncodeBy for another sender: %x, Encode %x", other, Encode(m))
			}
		}
		own, err := Decode(AppendEncodeBy(nil, m, m.From))
		if err != nil {
			t.Fatalf("decode with From left to the channel: %v", err)
		}
		if own.From != "" {
			t.Fatalf("frame from its own sender decoded From %q, want empty", own.From)
		}
		own.From = m.From
		if !bytes.Equal(Encode(own), Encode(m)) {
			t.Fatalf("frame from its own sender: decoded %+v, want %+v", own, m)
		}
		// Valid frames must re-encode and re-decode.
		if _, err := Decode(Encode(m)); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}
