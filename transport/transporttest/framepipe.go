// Package transporttest holds the contract tests every
// transport.Endpoint implementation runs, so the simulated network the
// suites use and the real one that ships cannot drift apart on what Send
// promises.
package transporttest

import (
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tiamat/trace"
	"tiamat/transport"
	"tiamat/wire"
)

// Pair is two endpoints of the transport under test, A able to reach B.
type Pair struct {
	A, B transport.Endpoint
	Met  *trace.Metrics // counts A's sends
	Dead wire.Addr      // nothing listens here
}

// golden decodes the wire corpus (found relative to a transport package's
// directory, where `go test` runs it) into the messages this build can
// produce: every fixture but those carrying AckIDs, which are decode-only
// (DESIGN.md §12).
func golden(t *testing.T) []*wire.Message {
	raw, err := os.ReadFile("../../wire/testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []*wire.Message
	for _, line := range strings.Split(string(raw), "\n") {
		name, hx, ok := strings.Cut(line, "\t")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		frame, err := hex.DecodeString(strings.TrimSpace(hx))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := wire.Decode(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m.AckIDs) == 0 {
			out = append(out, m)
		}
	}
	return out
}

// FramePipe checks that Send is a plain frame pipe: every message, of
// every type, leaves as exactly one frame and arrives as sent. A burst of
// concurrent pure acks to one peer is no exception — none arrives folded
// into another's AckIDs — and an ack to an unreachable peer fails inside
// Send, where the communications manager's eviction needs it.
func FramePipe(t *testing.T, newPair func(t *testing.T) Pair) {
	p := newPair(t)
	to := p.B.Addr()
	recv := func() *wire.Message {
		select {
		case m := <-p.B.Recv():
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("a frame that was sent never arrived")
			return nil
		}
	}

	msgs := golden(t)
	if len(msgs) == 0 {
		t.Fatal("golden corpus is empty")
	}
	for _, m := range msgs {
		if err := p.A.Send(to, m); err != nil {
			t.Fatalf("send %+v: %v", m, err)
		}
	}
	for _, want := range msgs {
		if got := recv(); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame changed in transit:\n got %+v\nwant %+v", got, want)
		}
	}

	const acks = 64
	ack := func(id uint64) *wire.Message {
		return &wire.Message{Type: wire.TAck, ID: id, From: p.A.Addr(), OK: true}
	}
	var wg sync.WaitGroup
	for id := uint64(1); id <= acks; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.A.Send(to, ack(id)); err != nil {
				t.Errorf("ack %d: %v", id, err)
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for range acks {
		got := recv()
		// want is the decoder's image of the ack that was sent: same
		// fields, its own choice of nil versus empty.
		want, _ := wire.Decode(wire.Encode(ack(got.ID)))
		if seen[got.ID] || got.ID < 1 || got.ID > acks || !reflect.DeepEqual(got, want) {
			t.Fatalf("ack frame %+v (id seen before: %v)", got, seen[got.ID])
		}
		seen[got.ID] = true
	}
	select {
	case m := <-p.B.Recv():
		t.Fatalf("more frames received than sent: %+v", m)
	default:
	}

	sent := int64(len(msgs) + acks)
	for ctr, want := range map[string]int64{
		trace.CtrMsgsSent: sent, trace.CtrUnicasts: sent, trace.CtrAcksCoalesced: 0,
	} {
		if got := p.Met.Get(ctr); got != want {
			t.Errorf("%s = %d, want %d: one frame per message, none coalesced", ctr, got, want)
		}
	}
	if err := p.A.Send(p.Dead, ack(1)); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("ack to a dead peer: %v, want ErrUnreachable from Send itself", err)
	}
}
