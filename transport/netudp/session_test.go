package netudp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
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
		flen, pn := binary.Uvarint(buf)
		if pn <= 0 || int(flen) != len(buf)-pn {
			t.Fatalf("batch is not exactly one framed message: prefix %d, len %d", flen, len(buf))
		}
		m, err := wire.Decode(buf[pn:])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.ID)
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
// tests can't cover: a batched sender emits its preamble and several
// length-prefixed frames in one TCP write, and a plain reader — the
// preamble, then a prefix-then-body loop — must recover each frame
// individually.
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
	pre := make([]byte, len(appendPreamble(nil, a.Addr())))
	if _, err := io.ReadFull(r, pre); err != nil {
		t.Fatalf("preamble: %v", err)
	}
	if from, n := parsePreamble(pre); n != len(pre) || from != a.Addr() {
		t.Fatalf("preamble %x names %q, want %q", pre, from, a.Addr())
	}
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
		if m.Type != wire.TDiscover || m.ID != uint64(i+1) || m.From != "" {
			t.Fatalf("frame %d: %+v, want the sender's own with From left empty", i, m)
		}
	}
}

// drainListener accepts connections on a bare listener and reads them into
// one fixed buffer, never decoding: a peer that costs the process no
// allocation per frame, so mallocs counted around Send are the sender's.
func drainListener(t *testing.T) wire.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.CopyBuffer(io.Discard, conn, make([]byte, 4096))
			}()
		}
	}()
	return wire.Addr(ln.Addr().String())
}

// TestSendAllocatesNothing pins the steady-state send path at zero heap
// objects per frame: waiter, frame bytes and batch bookkeeping are all the
// session's own and reused.
func TestSendAllocatesNothing(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	to := drainListener(t)
	m := &wire.Message{Type: wire.TResult, ID: 7, From: a.Addr(), Found: true, HoldID: 9,
		Tuple: tuple.T(tuple.String("job"), tuple.Int(42), tuple.Bytes(make([]byte, 64)))}
	send := func() {
		if err := a.Send(to, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		send() // dial, size the session's buffers, create the counters
	}
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Fatalf("Send on a warm session: %v allocs per frame, want 0", allocs)
	}
}

// deadAddrs returns n loopback addresses nothing listens on: each was a
// listener a moment ago, so a dial is refused at once.
func deadAddrs(t *testing.T, n int) []wire.Addr {
	t.Helper()
	out := make([]wire.Addr, n)
	lns := make([]net.Listener, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], out[i] = ln, wire.Addr(ln.Addr().String())
	}
	for _, ln := range lns {
		ln.Close()
	}
	return out
}

func (t *Transport) sessionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.sessions)
}

// TestSessionsReapedWhenPeersChange: in a changing world the set of
// addresses ever sent to grows without bound, and the sessions (and, for a
// peer that has gone quiet, the sockets) kept for them must not. Creating
// a session is when the others are swept.
func TestSessionsReapedWhenPeersChange(t *testing.T) {
	a, err := New(Config{SendAttempts: 1, IdleTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	msg := &wire.Message{Type: wire.TDiscover, ID: 1, From: a.Addr()}
	for _, dead := range deadAddrs(t, 64) {
		if err := a.Send(dead, msg); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("send to a dead address: %v", err)
		}
	}
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if n := a.sessionCount(); n > 2 {
		t.Fatalf("%d sessions after 64 dead addresses and one live peer: the dead ones were not swept", n)
	}
	time.Sleep(3 * a.cfg.IdleTimeout) // b's session goes idle
	if err := a.Send(c.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	if n := a.sessionCount(); n != 1 {
		t.Fatalf("%d sessions, want 1: only the peer just sent to is live", n)
	}
	// The idle connection was closed, not dropped: b's reader sees EOF.
	deadline := time.Now().Add(3 * time.Second)
	for {
		b.mu.RLock()
		open := len(b.accepted)
		b.mu.RUnlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b still holds %d connection(s) from a reaped session", open)
		}
		time.Sleep(time.Millisecond)
	}
	if n := b.met.Get(trace.CtrReadErrors); n != 0 {
		t.Fatalf("reaping an idle session cost the peer %d read errors, want a clean EOF", n)
	}
}

// TestSendRacingTheSweepSucceeds: with every connection idle the moment it
// is written, each session created for a dead address reaps the live
// peer's session, often between a sender's lookup and its enqueue. Every
// send to the live peer must still be delivered, once.
func TestSendRacingTheSweepSucceeds(t *testing.T) {
	a, err := New(Config{SendAttempts: 1, IdleTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const senders, per = 2, 150
	dead := deadAddrs(t, 8)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = a.Send(dead[i%len(dead)], &wire.Message{Type: wire.TDiscover, From: a.Addr()})
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(g*per + i + 1)
				if err := a.Send(b.Addr(), &wire.Message{Type: wire.TDiscover, ID: id, From: a.Addr()}); err != nil {
					t.Errorf("send %d to the live peer: %v", id, err)
					return
				}
			}
		}()
	}
	seen := make(map[uint64]bool)
	for len(seen) < senders*per && !t.Failed() {
		m := recvOne(t, b)
		if seen[m.ID] {
			t.Fatalf("frame %d delivered twice", m.ID)
		}
		seen[m.ID] = true
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

// TestCloseRacesSendersAndReaders closes a transport under load from both
// sides, 100 times over. Senders blocked in or entering Send on the
// closing transport all come back with ErrClosed (the peer stays up, so
// nothing else can fail them), and readers still enqueueing when Close
// closes the inbox must not panic on it — a panic there is recovered and
// counted, so the counter is what to check.
func TestCloseRacesSendersAndReaders(t *testing.T) {
	var batch []byte
	for id := uint64(1); id <= 16; id++ {
		batch = append(batch, frame(&wire.Message{Type: wire.TDiscover, ID: id, From: "raw"})...)
	}
	for iter := 0; iter < 100; iter++ {
		a, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		bmet := &trace.Metrics{}
		b, err := New(Config{Metrics: bmet})
		if err != nil {
			t.Fatal(err)
		}

		var received atomic.Int64
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range b.Recv() {
				received.Add(1)
			}
		}()
		var senders sync.WaitGroup
		for g := 0; g < 4; g++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for {
					err := a.Send(b.Addr(), &wire.Message{Type: wire.TDiscover, ID: 1, From: a.Addr()})
					if err == nil {
						continue
					}
					if !errors.Is(err, transport.ErrClosed) {
						t.Errorf("iteration %d: Send on a closing transport: %v, want ErrClosed", iter, err)
					}
					return
				}
			}()
		}
		raw, err := net.Dial("tcp", string(b.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		writer := make(chan struct{})
		go func() {
			defer close(writer)
			if _, err := raw.Write(appendPreamble(nil, "raw")); err != nil {
				return
			}
			for {
				if _, err := raw.Write(batch); err != nil {
					return
				}
			}
		}()

		for received.Load() < 64 {
			time.Sleep(100 * time.Microsecond)
		}
		a.Close()
		senders.Wait()
		b.Close() // the raw writer is still feeding b's reader
		<-drained
		raw.Close()
		<-writer
		if n := bmet.Get(trace.CtrPanics); n != 0 {
			t.Fatalf("iteration %d: %d panics recovered on the closing receiver", iter, n)
		}
	}
}

// TestWriteTimeoutCounted: a peer that stops reading fills the socket
// buffers until a write runs out its deadline. The session redials once
// for free and the fresh connection takes the batch, so the Send succeeds
// and nothing counts it as a send error — net.io_timeouts is the one
// counter that shows the write waited out writeTimeout.
func TestWriteTimeoutCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a write timeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var held []net.Conn // accepted and never read
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()

	a, err := New(Config{SendAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	big := tuple.T(tuple.Bytes(make([]byte, 60<<10)))
	to := wire.Addr(ln.Addr().String())
	for id := uint64(1); ; id++ {
		if id > 4096 { // 240 MiB: far past any loopback socket buffer
			t.Fatal("socket buffers never filled")
		}
		start := time.Now()
		if err := a.Send(to, &wire.Message{Type: wire.TOut, ID: id, From: a.Addr(), Tuple: big}); err != nil {
			t.Fatalf("send %d: %v", id, err)
		}
		if time.Since(start) >= writeTimeout {
			break
		}
	}
	if n := a.met.Get(trace.CtrIOTimeouts); n != 1 {
		t.Fatalf("net.io_timeouts = %d, want 1", n)
	}
	if n := a.met.Get(trace.CtrSendErrors); n != 0 {
		t.Fatalf("net.send_errors = %d, want 0: the redial delivered", n)
	}
}

// TestRedialSendsThePreambleAgain drops the session's connection between
// two batches, twice: once so the stale-connection retry redials, and once
// with the listener down too, so that redial is refused and the backoff
// redial delivers. Every connection opens with the preamble, counted in
// net.bytes_sent, and every frame after it is stamped with the sender.
func TestRedialSendsThePreambleAgain(t *testing.T) {
	rx := &Transport{met: &trace.Metrics{}, inbox: make(chan *wire.Message, 16)}
	serve := func(ln net.Listener) {
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					rx.readFrames(conn)
				}()
			}
		}()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	to := wire.Addr(ln.Addr().String())
	serve(ln)
	a, err := New(Config{SendBackoff: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var wantBytes int64
	send := func(id uint64) {
		m := &wire.Message{Type: wire.TDiscover, ID: id, From: a.Addr()}
		if err := a.Send(to, m); err != nil {
			t.Errorf("send %d: %v", id, err)
		}
		wantBytes += int64(len(appendPreamble(nil, a.Addr())) + len(frame(&wire.Message{Type: wire.TDiscover, ID: id})))
	}
	arrives := func(id uint64) {
		t.Helper()
		select {
		case m := <-rx.inbox:
			if m.ID != id || m.From != a.Addr() {
				t.Fatalf("got frame %d from %q, want %d from %q", m.ID, m.From, id, a.Addr())
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("frame %d never arrived", id)
		}
	}
	dropConn := func() {
		s := a.session(to)
		s.mu.Lock()
		s.conn.Close() // the session still holds it: its next write fails
		s.mu.Unlock()
	}

	send(1)
	arrives(1)
	dropConn()
	send(2)
	arrives(2)
	if n := a.met.Get(trace.CtrRetries); n != 0 {
		t.Fatalf("net.retries = %d after the stale-connection retry, want 0", n)
	}

	ln.Close()
	dropConn()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		send(3)
	}()
	waitCounter(t, a.met, trace.CtrRetries, 1) // the redial was refused
	if ln, err = net.Listen("tcp", string(to)); err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serve(ln)
	<-sent
	arrives(3)
	if n := a.met.Get(trace.CtrBytesSent); n != wantBytes {
		t.Fatalf("net.bytes_sent = %d, want %d: three frames, each on a new connection after its preamble", n, wantBytes)
	}
	if n := rx.met.Get(trace.CtrReadErrors); n != 0 {
		t.Fatalf("net.read_errors = %d at the receiver, want 0", n)
	}
}
