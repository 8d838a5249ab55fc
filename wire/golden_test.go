package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiamat/tuple"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite wire/testdata/golden.txt from the current encoder")

// goldenCases enumerates every message type crossed with every legal
// combination of its optional trailing fields. The committed fixture
// pins the exact bytes each case encodes to: any drift — reordering a
// field, changing a disambiguation rule, encoding a zero that used to
// be omitted — breaks this test before it breaks a mixed-version
// cluster. The cases whose encoding requires no capability
// (FeaturesOf == 0) are precisely the frames sent toward baseline
// peers, so their fixtures double as the proof that capability gating
// leaves the pre-capability wire image untouched.
func goldenCases() []struct {
	name string
	msg  *Message
} {
	tp := tuple.T(tuple.String("req"), tuple.Int(7))
	tmpl := tuple.Tmpl(tuple.String("req"), tuple.FormalInt())
	return []struct {
		name string
		msg  *Message
	}{
		{"discover", &Message{Type: TDiscover, ID: 7, From: "n01"}},

		{"announce", &Message{Type: TAnnounce, ID: 7, From: "n01", Persistent: true}},
		{"announce+degraded", &Message{Type: TAnnounce, ID: 7, From: "n01", Degraded: true}},
		{"announce+caps", &Message{Type: TAnnounce, ID: 7, From: "n01", Caps: CapsCurrent}},
		{"announce+degraded+caps", &Message{Type: TAnnounce, ID: 7, From: "n01", Degraded: true, Caps: CapsCurrent}},

		{"op", &Message{Type: TOp, ID: 7, From: "n01", Op: OpIn, Hops: 2, TTL: 1500 * time.Millisecond, Template: tmpl}},
		{"op+budget", &Message{Type: TOp, ID: 7, From: "n01", Op: OpIn, TTL: 1500 * time.Millisecond, Budget: 250 * time.Millisecond, Template: tmpl}},
		{"op+failover", &Message{Type: TOp, ID: 7, From: "n01", Op: OpInp, TTL: 1500 * time.Millisecond, Failover: true, Template: tmpl}},
		{"op+budget+failover", &Message{Type: TOp, ID: 7, From: "n01", Op: OpInp, TTL: 1500 * time.Millisecond, Budget: 250 * time.Millisecond, Failover: true, Template: tmpl}},

		{"result-notfound", &Message{Type: TResult, ID: 7, From: "n01"}},
		{"result-found", &Message{Type: TResult, ID: 7, From: "n01", Found: true, HoldID: 9, Tuple: tp}},
		{"result+busy", &Message{Type: TResult, ID: 7, From: "n01", Busy: true}},
		{"result-found+busy", &Message{Type: TResult, ID: 7, From: "n01", Found: true, HoldID: 9, Tuple: tp, Busy: true}},
		{"result-found+repl", &Message{Type: TResult, ID: 7, From: "n01", Found: true, HoldID: 9, Tuple: tp, ReplOrigin: "n02", ReplSeq: 41}},
		{"result-found+busy+repl", &Message{Type: TResult, ID: 7, From: "n01", Found: true, HoldID: 9, Tuple: tp, Busy: true, ReplOrigin: "n02", ReplSeq: 41}},

		{"accept", &Message{Type: TAccept, ID: 7, From: "n01", HoldID: 9}},
		{"release", &Message{Type: TRelease, ID: 7, From: "n01", HoldID: 9}},

		{"cancel", &Message{Type: TCancel, ID: 7, From: "n01", HoldID: 9}},
		{"cancel+repl", &Message{Type: TCancel, ID: 7, From: "n01", ReplOrigin: "n02", ReplSeq: 41}},

		{"out", &Message{Type: TOut, ID: 7, From: "n01", TTL: time.Minute, Tuple: tp}},
		{"out+repl", &Message{Type: TOut, ID: 7, From: "n01", TTL: time.Minute, Tuple: tp, ReplOrigin: "n02", ReplSeq: 41}},

		{"eval", &Message{Type: TEval, ID: 7, From: "n01", Func: "mandel", TTL: time.Second, Tuple: tp}},

		{"ack-ok", &Message{Type: TAck, ID: 7, From: "n01", OK: true}},
		{"ack-err", &Message{Type: TAck, ID: 7, From: "n01", Err: "lease: refused"}},
		{"ack+busy", &Message{Type: TAck, ID: 7, From: "n01", Err: "busy: admission refused", Busy: true}},
		{"ack+ackids", &Message{Type: TAck, ID: 7, From: "n01", OK: true, AckIDs: []uint64{8, 9, 1 << 33}}},
		{"ack+busy+ackids", &Message{Type: TAck, ID: 7, From: "n01", OK: true, Busy: true, AckIDs: []uint64{8}}},

		{"relay", &Message{Type: TRelay, ID: 7, From: "n01", Target: "far", Payload: []byte{1, 2, 3}}},
		{"goodbye", &Message{Type: TGoodbye, ID: 7, From: "n01"}},
	}
}

const goldenPath = "testdata/golden.txt"

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden corpus missing (regenerate with -golden.update): %v", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[name] = hx
	}
	return out
}

// TestGoldenEncodeStable pins every encoding to its committed bytes.
func TestGoldenEncodeStable(t *testing.T) {
	cases := goldenCases()
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Byte-exact wire fixtures: one frame per message type × optional-field\n")
		sb.WriteString("# combination. Regenerate with: go test ./wire -run Golden -golden.update\n")
		sb.WriteString("# A diff in this file is a wire-compatibility break — old decoders in a\n")
		sb.WriteString("# mixed-version cluster see exactly these bytes.\n")
		for _, c := range cases {
			fmt.Fprintf(&sb, "%s\t%s\n", c.name, hex.EncodeToString(Encode(c.msg)))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t)
	seen := make(map[string]bool)
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with -golden.update)", c.name)
			continue
		}
		seen[c.name] = true
		if got := hex.EncodeToString(Encode(c.msg)); got != want {
			t.Errorf("%s: encoding drifted\n got %s\nwant %s", c.name, got, want)
		}
	}
	for name := range golden {
		if !seen[name] {
			t.Errorf("golden entry %q has no case — stale fixture", name)
		}
	}
}

// TestGoldenRoundTrip decodes every fixture and re-encodes it,
// requiring the identical bytes back — no field may be lost, misread,
// or re-serialised differently.
func TestGoldenRoundTrip(t *testing.T) {
	for _, c := range goldenCases() {
		data := Encode(c.msg)
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if got := Encode(back); hex.EncodeToString(got) != hex.EncodeToString(data) {
			t.Errorf("%s: round trip not byte-stable\n got %x\nwant %x", c.name, got, data)
		}
		if got, want := FeaturesOf(back), FeaturesOf(c.msg); got != want {
			t.Errorf("%s: FeaturesOf drifted across round trip: %x != %x", c.name, got, want)
		}
	}
}

// TestGoldenTruncationFailsClosed chops every fixture at every body
// length (with a recomputed, valid checksum, so only the truncation
// itself is under test). Each chop must either fail to decode or parse
// as a valid shorter frame that re-encodes to exactly the truncated
// bytes — the optional-field contract: an old decoder reading a short
// prefix of a newer frame either rejects it or sees a well-formed older
// revision, never a misparse.
func TestGoldenTruncationFailsClosed(t *testing.T) {
	for _, c := range goldenCases() {
		data := Encode(c.msg)
		body := data[:len(data)-4] // strip CRC
		for cut := len(body) - 1; cut >= 4; cut-- {
			trunc := binary.LittleEndian.AppendUint32(append([]byte(nil), body[:cut]...), crc32.ChecksumIEEE(body[:cut]))
			back, err := Decode(trunc)
			if err != nil {
				continue // fail-closed: rejected outright
			}
			if got := Encode(back); hex.EncodeToString(got) != hex.EncodeToString(trunc) {
				t.Errorf("%s cut@%d: truncated frame misparsed: decoded %+v re-encodes to %x, not %x",
					c.name, cut, back, got, trunc)
			}
		}
	}
}

// TestGoldenCapsZeroFailsClosed hand-builds an announce that explicitly
// encodes a zero capability set — a value the encoder never produces
// (absent means unknown). The decoder must reject it rather than let
// "explicitly no capabilities" and "capabilities unknown" alias.
func TestGoldenCapsZeroFailsClosed(t *testing.T) {
	b := []byte{magicA, magicB, version, byte(TAnnounce)}
	b = binary.AppendUvarint(b, 7)
	b = appendStr(b, "n01")
	b = appendBool(b, false) // persistent
	b = appendBool(b, false) // degraded (encoded because caps follows)
	b = binary.AppendUvarint(b, 0)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	if _, err := Decode(b); err == nil {
		t.Fatal("announce with explicit zero caps decoded; must fail closed")
	}
}

// TestGoldenRestrictMatchesEncoder checks the versioned table against
// the encoder over the whole corpus. For every fixture and every subset
// of CapsCurrent, Restrict either refuses or yields a message whose
// features fit the subset and whose frame decodes cleanly; the original
// must come out untouched. Restricted to nothing, exactly the fixtures
// with a semantic field or a versioned type are refused, and every other
// one encodes to the baseline image: the committed bytes of the fixture
// it then equals, and always the committed frame with its optional
// trailer cut off.
func TestGoldenRestrictMatchesEncoder(t *testing.T) {
	golden := readGolden(t)
	cases := goldenCases()
	refused := map[string]bool{"cancel+repl": true, "out+repl": true, "goodbye": true}
	matched := 0
	for _, c := range cases {
		before := *c.msg
		for allowed := uint64(0); allowed <= CapsCurrent; allowed++ {
			r, ok := Restrict(c.msg, allowed)
			if !reflect.DeepEqual(*c.msg, before) {
				t.Fatalf("%s allowed=%#x: Restrict wrote to its argument", c.name, allowed)
			}
			if Fits(c.msg, allowed) && (!ok || !reflect.DeepEqual(r, before)) {
				t.Errorf("%s allowed=%#x: a frame that fits must pass unchanged", c.name, allowed)
			}
			if !ok {
				continue
			}
			if !Fits(&r, allowed) {
				t.Errorf("%s allowed=%#x: restricted frame still needs %#x", c.name, allowed, FeaturesOf(&r)&^allowed)
			}
			data := Encode(&r)
			back, err := Decode(data)
			if err != nil {
				t.Errorf("%s allowed=%#x: restricted frame does not decode: %v", c.name, allowed, err)
				continue
			}
			if got := Encode(back); hex.EncodeToString(got) != hex.EncodeToString(data) {
				t.Errorf("%s allowed=%#x: restricted frame not byte-stable", c.name, allowed)
			}
		}

		base, ok := Restrict(c.msg, 0)
		if ok == refused[c.name] {
			t.Errorf("%s restricted to baseline: sendable=%v, want %v", c.name, ok, !ok)
		}
		if !ok {
			continue
		}
		got := Encode(&base)
		want, err := hex.DecodeString(golden[c.name])
		if err != nil {
			t.Fatal(err)
		}
		// Optional fields trail, so the baseline image is a prefix of the
		// full frame (checksums aside).
		if body := got[:len(got)-4]; !strings.HasPrefix(string(want[:len(want)-4]), string(body)) {
			t.Errorf("%s: baseline form %x is not a prefix of the fixture %x", c.name, got, want)
		}
		for _, b := range cases {
			if b.name == c.name || !reflect.DeepEqual(*b.msg, base) {
				continue
			}
			matched++
			if hex.EncodeToString(got) != golden[b.name] {
				t.Errorf("%s restricted to baseline: got %x, want fixture %s = %s", c.name, got, b.name, golden[b.name])
			}
		}
	}
	// result+busy, result-found+{busy,repl,busy+repl}, ack+{ackids,busy+ackids}
	// each reduce to a committed baseline fixture.
	if matched < 6 {
		t.Errorf("only %d restricted fixtures were compared with a baseline fixture, want at least 6", matched)
	}
}
