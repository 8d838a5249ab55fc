package netudp

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tiamat/trace"
	"tiamat/wire"
)

// Tests for the batched send path (session.go): concurrent flush/enqueue
// racing under -race, deterministic batch splitting at the FlushBytes
// watermark, and interop of multi-frame writes with an old-style
// frame-at-a-time reader.

// TestConcurrentSendsAllArrive hammers one session from many goroutines
// with a tiny flush watermark so every flush cycle splits the backlog.
// Under -race this is the flush-watermark test: enqueue, batch take, and
// waiter hand-off all interleave. Every message must arrive exactly once.
func TestConcurrentSendsAllArrive(t *testing.T) {
	a, err := New(Config{FlushBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const senders, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(g*per + i + 1)
				if err := a.Send(b.Addr(), &wire.Message{Type: wire.TDiscover, ID: id, From: a.Addr()}); err != nil {
					t.Errorf("send %d: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	for len(seen) < senders*per {
		m := recvOne(t, b)
		if seen[m.ID] {
			t.Fatalf("duplicate delivery of %d", m.ID)
		}
		seen[m.ID] = true
	}
	if got := a.met.Get(trace.CtrMsgsSent); got != senders*per {
		t.Fatalf("msgs_sent = %d, want %d", got, senders*per)
	}
}

// TestTakeBatchSplitsAtFrameBoundary drives the watermark logic directly:
// with FlushBytes below one frame, each take must carry exactly one frame
// (never zero — a single over-watermark frame still flushes) and leave
// the rest of the backlog intact, in order, with its waiters.
func TestTakeBatchSplitsAtFrameBoundary(t *testing.T) {
	a, err := New(Config{FlushBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	s := a.session("127.0.0.1:9")
	s.mu.Lock()
	const n = 3
	for i := uint64(1); i <= n; i++ {
		s.appendFrameLocked(&wire.Message{Type: wire.TDiscover, ID: i, From: a.Addr()})
		s.waiters = append(s.waiters, make(chan error, 1))
	}
	var got []uint64
	for len(s.waiters) > 0 {
		buf, wtrs := s.takeBatchLocked()
		if len(wtrs) != 1 {
			t.Fatalf("take: %d waiters, want 1", len(wtrs))
		}
		flen, pn := binary.Uvarint(buf.B)
		if pn <= 0 || int(flen) != len(buf.B)-pn {
			t.Fatalf("batch is not exactly one framed message: prefix %d, len %d", flen, len(buf.B))
		}
		m, err := wire.Decode(buf.B[pn:])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.ID)
		buf.Release()
	}
	s.mu.Unlock()
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("frames reordered across splits: %v", got)
		}
	}
	if len(got) != n {
		t.Fatalf("took %d frames, want %d", len(got), n)
	}
}

// TestOldReaderParsesBatchedWrite is the interop direction the receiver
// tests can't cover: a batched sender emits several length-prefixed
// frames in one TCP write, and a pre-batching reader — a plain
// prefix-then-body loop, which is exactly what every deployed version
// runs — must recover each frame individually.
func TestOldReaderParsesBatchedWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	s := a.session(wire.Addr(ln.Addr().String()))
	s.mu.Lock()
	s.flushing = true
	for id := uint64(1); id <= 3; id++ {
		s.appendFrameLocked(&wire.Message{Type: wire.TDiscover, ID: id, From: a.Addr()})
		s.waiters = append(s.waiters, make(chan error, 1))
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.flushLoop(); close(done) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	r := bufio.NewReader(conn)
	var msgs []*wire.Message
	for i := 0; i < 3; i++ {
		flen, err := binary.ReadUvarint(r)
		if err != nil {
			t.Fatalf("frame %d prefix: %v", i, err)
		}
		body := make([]byte, flen)
		if _, err := io.ReadFull(r, body); err != nil {
			t.Fatalf("frame %d body: %v", i, err)
		}
		m, err := wire.Decode(body)
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		msgs = append(msgs, m)
	}
	<-done
	for i, m := range msgs {
		if m.Type != wire.TDiscover || m.ID != uint64(i+1) {
			t.Fatalf("frame %d: %+v", i, m)
		}
	}
}
