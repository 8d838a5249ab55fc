package netudp

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiamat/internal/core"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

func recvOne(t *testing.T, tr *Transport) *wire.Message {
	t.Helper()
	select {
	case m, ok := <-tr.Recv():
		if !ok {
			t.Fatal("inbox closed")
		}
		return m
	case <-time.After(3 * time.Second):
		t.Fatal("no message")
		return nil
	}
}

func TestUnicastOverTCP(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	msg := &wire.Message{Type: wire.TAck, ID: 42, From: a.Addr(), OK: true, Err: "hi"}
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b)
	if got.Type != wire.TAck || got.ID != 42 || !got.OK || got.Err != "hi" || got.From != a.Addr() {
		t.Fatalf("got %+v", got)
	}
}

func TestSendToDeadPeerIsUnreachable(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	err = a.Send("127.0.0.1:1", &wire.Message{Type: wire.TDiscover, ID: 1, From: a.Addr()})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestStaticPeerMulticast(t *testing.T) {
	a, err := New(Config{})
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

	a2, err := New(Config{StaticPeers: []string{string(a.Addr()), string(b.Addr()), string(c.Addr())}})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()

	n, err := a2.Multicast(&wire.Message{Type: wire.TDiscover, ID: 7, From: a2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("reached %d peers, want 3", n)
	}
	if m := recvOne(t, b); m.Type != wire.TDiscover {
		t.Fatalf("b got %+v", m)
	}
	if m := recvOne(t, c); m.Type != wire.TDiscover {
		t.Fatalf("c got %+v", m)
	}
}

func TestStaticPeersSkipSelf(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Reconfigure is not supported, so create a second transport whose
	// peer list contains itself plus a.
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	b.cfg.StaticPeers = []string{string(b.Addr()), string(a.Addr())}
	defer b.Close()
	n, err := b.Multicast(&wire.Message{Type: wire.TDiscover, ID: 1, From: b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reached %d, want 1 (self excluded)", n)
	}
}

func TestCloseIdempotentAndRefusesSend(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("127.0.0.1:1", &wire.Message{Type: wire.TDiscover, From: a.Addr()}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := a.Multicast(&wire.Message{Type: wire.TDiscover, From: a.Addr()}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("multicast after close: %v", err)
	}
}

func TestUDPMulticastLoopback(t *testing.T) {
	// Real multicast may be unavailable in sandboxed environments; probe
	// first and skip rather than fail.
	group := "239.77.7.3:17703"
	a, err := New(Config{Group: group})
	if err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	defer a.Close()
	b, err := New(Config{Group: group})
	if err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	defer b.Close()

	n, err := a.Multicast(&wire.Message{Type: wire.TDiscover, ID: 9, From: a.Addr()})
	if err != nil {
		t.Skipf("multicast send failed: %v", err)
	}
	if n != -1 {
		t.Fatalf("audience = %d, want -1 (unknown)", n)
	}
	select {
	case m := <-b.Recv():
		if m.Type != wire.TDiscover || m.From != a.Addr() {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Skip("multicast datagram not delivered (no loopback route)")
	}
}

// TestMulticastReusesOneSocket: every datagram leaves from the one send
// socket New opened, so a hundred multicasts from four goroutines come
// from one source port.
func TestMulticastReusesOneSocket(t *testing.T) {
	group := "239.77.7.3:17704"
	gaddr, err := net.ResolveUDPAddr("udp", group)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.ListenMulticastUDP("udp", nil, gaddr)
	if err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	defer l.Close()
	a, err := New(Config{Group: group})
	if err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	defer a.Close()
	const senders, sends = 4, 100
	var wg sync.WaitGroup
	var failed atomic.Bool
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := uint64(g + 1); id <= sends; id += senders {
				if _, err := a.Multicast(&wire.Message{Type: wire.TDiscover, ID: id, From: a.Addr()}); err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		t.Skip("multicast send failed")
	}
	port := a.mcast.LocalAddr().(*net.UDPAddr).Port
	buf := make([]byte, maxDatagram)
	received := 0
	for received < sends {
		_ = l.SetReadDeadline(time.Now().Add(time.Second))
		_, src, err := l.ReadFromUDP(buf)
		if err != nil {
			break // loopback multicast may drop under load; what came is checked
		}
		if src.Port != port {
			t.Fatalf("datagram %d came from port %d, not the send socket's %d", received+1, src.Port, port)
		}
		received++
	}
	if received == 0 {
		t.Skip("multicast datagrams not delivered (no loopback route)")
	}
}

// TestInstancesOverRealSockets runs two full Tiamat instances over real
// TCP sockets in static-peer mode: the end-to-end proof that the protocol
// works outside the simulator.
func TestInstancesOverRealSockets(t *testing.T) {
	ta, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ta.cfg.StaticPeers = []string{string(tb.Addr())}
	tb.cfg.StaticPeers = []string{string(ta.Addr())}

	a, err := core.New(core.Config{Endpoint: ta})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := core.New(core.Config{Endpoint: tb})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	want := tuple.T(tuple.String("real"), tuple.Int(1))
	if err := a.Out(want, nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := b.Inp(context.Background(), tuple.Tmpl(tuple.String("real"), tuple.FormalInt()), nil)
	if err != nil || !ok {
		t.Fatalf("remote take over TCP: ok=%v err=%v", ok, err)
	}
	if !res.Tuple.Equal(want) || res.From != ta.Addr() {
		t.Fatalf("res = %+v", res)
	}
	// And the reverse direction with a blocking read.
	if err := b.Out(tuple.T(tuple.String("pong")), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Rd(context.Background(), tuple.Tmpl(tuple.String("pong")), nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleFramesOnOneConnection(t *testing.T) {
	// The frame protocol is length-prefixed and connection-oriented; a
	// peer may stream several frames over one TCP connection.
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	conn, err := net.Dial("tcp", string(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := appendPreamble(nil, "streamer")
	for i := uint64(1); i <= 3; i++ {
		frame := wire.Encode(&wire.Message{Type: wire.TDiscover, ID: i, From: "streamer"})
		buf = binary.AppendUvarint(buf, uint64(len(frame)))
		buf = append(buf, frame...)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		m := recvOne(t, b)
		if m.ID != i {
			t.Fatalf("frame %d arrived as %d", i, m.ID)
		}
	}
}

func TestCorruptFrameSkippedConnectionSurvives(t *testing.T) {
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Dial("tcp", string(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A well-framed but undecodable payload, then a valid frame.
	junk := []byte{9, 9, 9, 9}
	buf := appendPreamble(nil, "x")
	buf = binary.AppendUvarint(buf, uint64(len(junk)))
	buf = append(buf, junk...)
	good := wire.Encode(&wire.Message{Type: wire.TDiscover, ID: 42, From: "x"})
	buf = binary.AppendUvarint(buf, uint64(len(good)))
	buf = append(buf, good...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b); m.ID != 42 {
		t.Fatalf("got %+v", m)
	}
}

func TestOversizedFrameClosesConnection(t *testing.T) {
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Dial("tcp", string(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := binary.AppendUvarint(appendPreamble(nil, "x"), maxFrame+1)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	// The server must hang up rather than allocate; the read side sees
	// EOF eventually.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Fatal("connection still open after oversized frame")
	}
}

func TestSendRetriesBeforeGivingUp(t *testing.T) {
	a, err := New(Config{SendAttempts: 2, SendBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	err = a.Send("127.0.0.1:1", &wire.Message{Type: wire.TDiscover, ID: 1, From: a.Addr()})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if got := a.met.Get(trace.CtrRetries); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}

// TestSocketErrorsAreCounted pins satellite coverage for the gray-failure
// work: socket-level losses that used to vanish silently must surface as
// named counters — a send abandoned after retries, a connection that dies
// mid-frame, and an oversized prefix.
func TestSocketErrorsAreCounted(t *testing.T) {
	a, err := New(Config{SendAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Exhausted send: unreachable peer.
	if err := a.Send("127.0.0.1:1", &wire.Message{Type: wire.TDiscover, ID: 1, From: a.Addr()}); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	if got := a.met.Get(trace.CtrSendErrors); got != 1 {
		t.Fatalf("send_errors = %d, want 1", got)
	}

	// Oversized prefix: the reader hangs up and counts the loss.
	conn, err := net.Dial("tcp", string(a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(binary.AppendUvarint(appendPreamble(nil, "x"), maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitCounter(t, a.met, trace.CtrReadErrors, 1)

	// Connection reset mid-frame: prefix promises 100 bytes, body never
	// arrives.
	conn2, err := net.Dial("tcp", string(a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write(binary.AppendUvarint(appendPreamble(nil, "x"), 100)); err != nil {
		t.Fatal(err)
	}
	conn2.Close()
	waitCounter(t, a.met, trace.CtrReadErrors, 2)
}

func waitCounter(t *testing.T, met *trace.Metrics, ctr string, want int64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if met.Get(ctr) >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want >= %d", ctr, met.Get(ctr), want)
}
