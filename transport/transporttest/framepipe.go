// Package transporttest holds the contract tests every
// transport.Endpoint implementation runs, so the simulated network the
// suites use and the real one that ships cannot drift apart on what Send
// promises.
package transporttest

import (
	"encoding/binary"
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

// Golden decodes the wire corpus (found relative to a transport package's
// directory, where `go test` runs it) into the messages this build
// produces.
func Golden(t *testing.T) []*wire.Message {
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
		out = append(out, m)
	}
	return out
}

// FramePipe checks that Send is a plain frame pipe: every message, of
// every type, leaves as exactly one frame and arrives as sent. A burst of
// concurrent pure acks to one peer is no exception — each arrives as its
// own frame — nor are eight senders streaming a thousand
// frames each, however the transport batches their writes; and an ack to
// an unreachable peer fails inside Send, where the communications
// manager's eviction needs it.
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

	msgs := Golden(t)
	if len(msgs) == 0 {
		t.Fatal("golden corpus is empty")
	}
	// sent and sentBytes tally what the counters must account for: frames
	// and their encoded sizes; prefixBytes what a transport that frames a
	// byte stream adds to each.
	var sent, sentBytes, prefixBytes int64
	tally := func(m *wire.Message) {
		n := len(wire.Encode(m))
		sent++
		sentBytes += int64(n)
		prefixBytes += int64(len(binary.AppendUvarint(nil, uint64(n))))
	}
	for _, m := range msgs {
		if err := p.A.Send(to, m); err != nil {
			t.Fatalf("send %+v: %v", m, err)
		}
		tally(m)
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
	for id := uint64(1); id <= acks; id++ {
		tally(ack(id))
	}
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

	// Eight senders, a thousand frames each, cycling through the corpus
	// under distinct IDs. Inboxes drop what overflows them (4096 frames),
	// so the senders run on credit the receiver returns.
	const senders, per = 8, 1000
	stream := func(id uint64) *wire.Message {
		m := *msgs[id%uint64(len(msgs))]
		m.ID = id
		return &m
	}
	credit := make(chan struct{}, 1024)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(g*per + i + 1)
				credit <- struct{}{}
				if err := p.A.Send(to, stream(id)); err != nil {
					t.Errorf("stream frame %d: %v", id, err)
				}
			}
		}()
	}
	seen = make(map[uint64]bool)
	for range senders * per {
		got := recv()
		<-credit
		if seen[got.ID] || got.ID < 1 || got.ID > senders*per || !reflect.DeepEqual(got, stream(got.ID)) {
			t.Fatalf("stream frame %+v (id seen before: %v)", got, seen[got.ID])
		}
		seen[got.ID] = true
		tally(got)
	}
	wg.Wait()
	select {
	case m := <-p.B.Recv():
		t.Fatalf("more frames received than sent: %+v", m)
	default:
	}

	for ctr, want := range map[string]int64{
		trace.CtrMsgsSent: sent, trace.CtrUnicasts: sent,
	} {
		if got := p.Met.Get(ctr); got != want {
			t.Errorf("%s = %d, want %d: one frame per message", ctr, got, want)
		}
	}
	// Every frame's bytes are counted once, with its length prefix on a
	// transport that writes one and without on one that does not.
	if got := p.Met.Get(trace.CtrBytesSent); got != sentBytes && got != sentBytes+prefixBytes {
		t.Errorf("%s = %d, want %d or, length-prefixed, %d", trace.CtrBytesSent, got, sentBytes, sentBytes+prefixBytes)
	}
	// A batch is a write that carried at least two frames, each of them
	// one of the frames sent.
	flushes, batched := p.Met.Get(trace.CtrBatchFlushes), p.Met.Get(trace.CtrBatchedFrames)
	if batched < 2*flushes || batched > sent || (flushes == 0) != (batched == 0) {
		t.Errorf("%s = %d, %s = %d with %d frames sent", trace.CtrBatchFlushes, flushes, trace.CtrBatchedFrames, batched, sent)
	}
	if err := p.A.Send(p.Dead, ack(1)); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("ack to a dead peer: %v, want ErrUnreachable from Send itself", err)
	}
}
