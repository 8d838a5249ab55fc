package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
// be omitted — breaks this test before it breaks a running cluster.
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

		{"relay", &Message{Type: TRelay, ID: 7, From: "n01", Target: "far", Payload: []byte{1, 2, 3}}},
		{"goodbye", &Message{Type: TGoodbye, ID: 7, From: "n01"}},
	}
}

const (
	goldenPath = "testdata/golden.txt"
	// rejectedPath holds frames an earlier wire generation produced that
	// this decoder must refuse with ErrFrame: the coalesced-ack ID list.
	rejectedPath = "testdata/rejected.txt"
)

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	return readCorpus(t, goldenPath)
}

func readCorpus(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
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
		sb.WriteString("# A diff in this file is a wire-format change: every peer at the wire\n")
		sb.WriteString("# floor sees exactly these bytes.\n")
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
	}
}

// TestGoldenRejectedFrames decodes every frame of the rejected list, each
// an earlier wire generation's encoding, and requires ErrFrame: a TAck
// with a coalesced-ack ID list is malformed, with or without a busy
// marker ahead of it.
func TestGoldenRejectedFrames(t *testing.T) {
	rejected := readCorpus(t, rejectedPath)
	for _, name := range []string{"ack+ackids", "ack+busy+ackids"} {
		if _, ok := rejected[name]; !ok {
			t.Errorf("%s: missing from %s", name, rejectedPath)
		}
	}
	for name, hx := range rejected {
		frame, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m, err := Decode(frame); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: decoded to %+v, err %v; want ErrFrame", name, m, err)
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
