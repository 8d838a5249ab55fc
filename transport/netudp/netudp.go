// Package netudp is the real-network transport: visibility is defined by
// UDP multicast reachability (the paper's prototype mechanism, §3.1.3)
// and operations travel over TCP unicast. It also supports a static-peer
// mode for networks where multicast is unavailable (the probe is then
// unicast to a configured peer set, preserving the same semantics).
//
// Frames use the tiamat/wire codec. A TCP stream is a preamble naming the
// sender (appendPreamble) and uvarint-length-prefixed frames, whose empty
// from the reader stamps with it; a UDP datagram is one frame, with from.
package netudp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/internal/splitmix"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/wire"
)

const (
	// maxFrame bounds a single protocol frame on the wire.
	maxFrame = 1 << 22 // 4 MiB
	// dialTimeout bounds unicast connection establishment.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds a frame write.
	writeTimeout = 2 * time.Second
	// maxDatagram is the largest multicast probe we send.
	maxDatagram = 60 * 1024
	// readIdle is how long the receive side waits between frames on a
	// persistent connection before hanging up, give or take a quarter: the
	// deadline is re-armed only once the last arm is older than
	// readIdle/4, so the hang-up falls 22.5–30 s after the last frame. It
	// must exceed senders' IdleTimeout even so, so that the idle closer is
	// normally the sender (a sender-side close is a clean EOF here; a
	// receiver-side close risks racing a write into a half-closed socket).
	readIdle = 30 * time.Second
	// readBufSize is the per-connection receive buffer: one socket read
	// drains up to this much of what the sender's batched writes queued.
	readBufSize   = 16 << 10
	streamVersion = 1       // the stream layout a connection's preamble opens
	maxAddr       = 1 << 10 // bounds the sender address a preamble carries
)

// Config configures a Transport.
type Config struct {
	// Listen is the TCP listen address, e.g. "127.0.0.1:0". The resolved
	// address becomes the instance's contact address.
	Listen string
	// Group is the UDP multicast group, e.g. "239.77.7.3:7703". Empty
	// disables multicast (StaticPeers then carries discovery).
	Group string
	// StaticPeers are contact addresses probed on Multicast in addition
	// to (or instead of) the multicast group.
	StaticPeers []string
	// SendAttempts bounds transmissions per Send call: the unicast path
	// redials with exponential backoff before reporting the peer
	// unreachable (default 3: one dial plus two retries).
	SendAttempts int
	// SendBackoff is the base pause before a redial; attempt k waits
	// SendBackoff·2^(k-1) plus up to SendBackoff of jitter (default 50ms,
	// jitter drawn from a per-transport splitmix64 source).
	SendBackoff time.Duration
	// FlushBytes caps how many queued bytes one batched write may carry;
	// a larger backlog splits into multiple writes at frame boundaries
	// (default 64 KiB).
	FlushBytes int
	// IdleTimeout is how long a per-peer session keeps its connection
	// after the last write before proactively redialing (default 15s; it
	// must stay under the receive side's 30s idle hangup).
	IdleTimeout time.Duration
	// Metrics receives transport counters (optional).
	Metrics *trace.Metrics
}

// Transport implements transport.Endpoint over TCP + UDP multicast.
type Transport struct {
	cfg   Config
	addr  wire.Addr
	ln    net.Listener
	udp   *net.UDPConn // multicast listener (nil if disabled)
	mcast *net.UDPConn // multicast send socket, one for every datagram
	group *net.UDPAddr
	ctr   counters // handles on cfg.Metrics
	inbox chan *wire.Message
	rng   splitmix.Source // backoff jitter source
	start time.Time       // sessions stamp lastUse as an offset from it

	// closed is set once, before Close tears anything down. Readers test
	// it without a lock: inbox is closed only after wg has seen every
	// goroutine that can call enqueue exit.
	closed atomic.Bool

	mu       sync.RWMutex // sessions (read-mostly: one lookup per Send), accepted
	sessions map[wire.Addr]*session
	accepted map[net.Conn]struct{}
	wg       sync.WaitGroup
}

var _ transport.Endpoint = (*Transport)(nil)

// counters are the transport's counter handles (trace.Metrics.Counter).
type counters struct {
	batchFlushes  *trace.Counter
	batchedFrames *trace.Counter
	bytesSent     *trace.Counter
	corruptFrames *trace.Counter
	iOTimeouts    *trace.Counter
	inboxOverflow *trace.Counter
	msgsDropped   *trace.Counter
	msgsSent      *trace.Counter
	multicasts    *trace.Counter
	panics        *trace.Counter
	readErrors    *trace.Counter
	retries       *trace.Counter
	sendErrors    *trace.Counter
	unicasts      *trace.Counter
}

func newCounters(m *trace.Metrics) counters {
	return counters{
		batchFlushes:  m.Counter(trace.CtrBatchFlushes),
		batchedFrames: m.Counter(trace.CtrBatchedFrames),
		bytesSent:     m.Counter(trace.CtrBytesSent),
		corruptFrames: m.Counter(trace.CtrCorruptFrames),
		iOTimeouts:    m.Counter(trace.CtrIOTimeouts),
		inboxOverflow: m.Counter(trace.CtrInboxOverflow),
		msgsDropped:   m.Counter(trace.CtrMsgsDropped),
		msgsSent:      m.Counter(trace.CtrMsgsSent),
		multicasts:    m.Counter(trace.CtrMulticasts),
		panics:        m.Counter(trace.CtrPanics),
		readErrors:    m.Counter(trace.CtrReadErrors),
		retries:       m.Counter(trace.CtrRetries),
		sendErrors:    m.Counter(trace.CtrSendErrors),
		unicasts:      m.Counter(trace.CtrUnicasts),
	}
}

// New starts the transport: the TCP listener and, if configured, the
// multicast receiver.
func New(cfg Config) (*Transport, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &trace.Metrics{}
	}
	if cfg.SendAttempts <= 0 {
		cfg.SendAttempts = 3
	}
	if cfg.SendBackoff <= 0 {
		cfg.SendBackoff = 50 * time.Millisecond
	}
	if cfg.FlushBytes <= 0 {
		cfg.FlushBytes = 64 << 10
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 15 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("netudp: listen %s: %w", cfg.Listen, err)
	}
	t := &Transport{
		cfg:      cfg,
		addr:     wire.Addr(ln.Addr().String()),
		ln:       ln,
		ctr:      newCounters(cfg.Metrics),
		inbox:    make(chan *wire.Message, 4096),
		start:    time.Now(),
		sessions: make(map[wire.Addr]*session),
		accepted: make(map[net.Conn]struct{}),
	}
	seed := uint64(time.Now().UnixNano())
	for _, c := range t.addr {
		seed = seed*131 + uint64(c)
	}
	t.rng.Seed(seed)
	if cfg.Group != "" {
		group, err := net.ResolveUDPAddr("udp", cfg.Group)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("netudp: group %s: %w", cfg.Group, err)
		}
		udp, err := net.ListenMulticastUDP("udp", nil, group)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("netudp: join %s: %w", cfg.Group, err)
		}
		mcast, err := net.DialUDP("udp", nil, group)
		if err != nil {
			udp.Close()
			ln.Close()
			return nil, fmt.Errorf("netudp: dial %s: %w", cfg.Group, err)
		}
		t.udp, t.mcast = udp, mcast
		t.group = group
		t.wg.Add(1)
		go t.udpLoop()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements transport.Endpoint.
func (t *Transport) Addr() wire.Addr { return t.addr }

// Recv implements transport.Endpoint.
func (t *Transport) Recv() <-chan *wire.Message { return t.inbox }

// Close implements transport.Endpoint.
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	t.mu.Lock()
	sessions := make([]*session, 0, len(t.sessions))
	for _, s := range t.sessions {
		sessions = append(sessions, s)
	}
	t.mu.Unlock()
	for _, s := range sessions {
		s.closeSession()
	}
	// Hang up accepted connections too: with persistent peer sessions they
	// would otherwise hold the accept loop open until the remote side
	// idles out.
	t.mu.Lock()
	for c := range t.accepted {
		c.Close()
	}
	t.mu.Unlock()
	t.ln.Close()
	if t.udp != nil {
		t.udp.Close()
		t.mcast.Close()
	}
	t.wg.Wait()
	close(t.inbox)
	return nil
}

func (t *Transport) isClosed() bool { return t.closed.Load() }

// Send implements transport.Endpoint via the peer's persistent session
// (see session.go): the frame joins the session's current batch and Send
// returns once that batch has been written. Delivery failures are retried
// with exponential backoff up to SendAttempts times — transient
// listen-queue drops and route flaps are common on the networks §5
// targets — before the peer is reported ErrUnreachable so the
// communications manager evicts it.
func (t *Transport) Send(to wire.Addr, m *wire.Message) error {
	if t.isClosed() {
		return transport.ErrClosed
	}
	err := errReaped
	for err == errReaped {
		err = t.session(to).send(m)
	}
	if err == nil {
		return nil
	}
	if errors.Is(err, transport.ErrClosed) || t.isClosed() {
		return transport.ErrClosed
	}
	return fmt.Errorf("%s: %v: %w", to, err, transport.ErrUnreachable)
}

// session returns the persistent send session for a peer, creating it on
// first use. Creation is the one moment the set of peers is known to have
// changed, so it is also when sessions the changing world has left behind
// are reaped — no timer (DESIGN.md §12).
func (t *Transport) session(to wire.Addr) *session {
	t.mu.RLock()
	s := t.sessions[to]
	t.mu.RUnlock()
	if s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s = t.sessions[to]; s == nil {
		for addr, old := range t.sessions {
			if old.reap() {
				delete(t.sessions, addr)
			}
		}
		s = &session{t: t, to: to}
		t.sessions[to] = s
	}
	return s
}

// Multicast implements transport.Endpoint. With a multicast group the
// audience is unknown (-1); in pure static-peer mode it returns the
// number of peers successfully probed, none of them one m.Skip names.
func (t *Transport) Multicast(m *wire.Message) (int, error) {
	if t.isClosed() {
		return 0, transport.ErrClosed
	}
	t.ctr.multicasts.Inc()
	reached := 0
	for _, peer := range t.cfg.StaticPeers {
		if a := wire.Addr(peer); a == t.addr || slices.Contains(m.Skip, a) {
			continue
		}
		if err := t.Send(wire.Addr(peer), m); err == nil {
			reached++
		}
	}
	if t.group == nil {
		return reached, nil
	}
	pb := wire.GetBuf()
	defer pb.Release()
	pb.B = wire.AppendEncode(pb.B, m)
	frame := pb.B
	if len(frame) > maxDatagram {
		return -1, fmt.Errorf("netudp: frame too large for multicast (%d bytes)", len(frame))
	}
	if _, err := t.mcast.Write(frame); err != nil {
		return -1, err
	}
	t.ctr.bytesSent.Add(int64(len(frame)))
	return -1, nil // audience unknown on a real network
}

// acceptLoop receives unicast frames.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	var connWG sync.WaitGroup
	defer connWG.Wait()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.isClosed() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			defer func() {
				t.mu.Lock()
				delete(t.accepted, conn)
				t.mu.Unlock()
				conn.Close()
			}()
			defer t.recoverPanic()
			t.readFrames(conn)
		}()
	}
}

// recoverPanic contains a panic out of one connection's or datagram's
// frame handling: the connection (or datagram) is lost, the transport
// survives, and the event is visible on the panic counter.
func (t *Transport) recoverPanic() {
	if r := recover(); r != nil {
		t.ctr.panics.Inc()
	}
}

// readFrames decodes one connection's preamble and length-prefixed frames,
// stamping the preamble's sender on each frame that leaves From empty. The
// socket is read through one fixed buffer, so what the sender's group
// commit put on the wire with one write is drained with one read, and the
// idle deadline is re-armed only when its last arm is readIdle/4 old: one
// clock reading per socket read, and no deadline reset on a busy one.
// A frame that sits whole in the buffer is decoded from that window:
// wire.Decode copies it into the message's own object, so the next read
// may overwrite it. Only a frame larger than the buffer is assembled.
func (t *Transport) readFrames(conn net.Conn) {
	buf := make([]byte, readBufSize)
	r, w := 0, 0 // buf[r:w] has been read from the socket and not yet parsed
	// armed is when the idle deadline was last armed.
	var armed time.Time
	// read reads the socket once into p. An error that arrives with bytes
	// is left for the next read to report again.
	read := func(p []byte) (int, error) {
		if now := time.Now(); now.Sub(armed) > readIdle/4 {
			_ = conn.SetReadDeadline(now.Add(readIdle))
			armed = now
		}
		n, err := conn.Read(p)
		if n > 0 {
			err = nil
		}
		return n, err
	}
	var from wire.Addr // the sender, as the stream's preamble names it
	for {
		if from == "" {
			addr, size := parsePreamble(buf[r:w])
			if size < 0 {
				t.ctr.readErrors.Inc()
				return
			}
			from, r = addr, r+size
		}
		n, pn := binary.Uvarint(buf[r:w])
		if pn < 0 || pn > 0 && (n == 0 || n > maxFrame) {
			t.ctr.readErrors.Inc()
			return
		}
		var m *wire.Message
		var err error
		// Until the preamble is in, every path but the last reads on.
		switch size := pn + int(n); {
		case from != "" && pn > 0 && r+size <= w:
			m, err = wire.Decode(buf[r+pn : r+size])
			r += size
		case from != "" && pn > 0 && size > len(buf):
			// The frame gets a buffer of its own, which the message then
			// aliases. A remainder that would fill buf is read straight
			// into the frame; a shorter one through buf, so the same read
			// brings in the frames behind it.
			frame := make([]byte, n)
			have := copy(frame, buf[r+pn:w])
			r = w
			for have < len(frame) {
				rest := frame[have:]
				var k int
				if len(rest) >= len(buf) {
					k, err = read(rest)
				} else {
					w, err = read(buf)
					k = copy(rest, buf[:w])
					r = k
				}
				if err != nil {
					t.ctr.readErrors.Inc()
					return
				}
				have += k
			}
			m, err = wire.DecodeNoCopy(frame)
		default:
			// Not all of the prefix or body is here: keep what is and read
			// on.
			w = copy(buf, buf[r:w])
			r = 0
			k, err := read(buf[w:])
			if err != nil {
				// Clean ends: EOF between frames (the peer closed its session
				// normally), an idle timeout before any byte of a frame
				// arrived (the sender has gone quiet past our patience), or
				// our own shutdown hanging up the connection. Anything else —
				// reset, or EOF or timeout mid-frame — silently loses a frame
				// and must be visible.
				if !(w == 0 && (err == io.EOF || isTimeout(err))) && !t.isClosed() {
					t.ctr.readErrors.Inc()
				}
				return
			}
			w += k
			continue
		}
		if err != nil {
			// Corrupt frame (checksum or structure): drop it, keep the
			// connection — later frames are independent.
			t.ctr.corruptFrames.Inc()
			t.ctr.msgsDropped.Inc()
			continue
		}
		if m.From == "" {
			m.From = from
		}
		t.enqueue(m)
	}
}

// appendPreamble appends the stream preamble naming sender to b.
func appendPreamble(b []byte, sender wire.Addr) []byte {
	b = append(b, wire.MagicA, wire.MagicB, streamVersion)
	b = binary.AppendUvarint(b, uint64(len(sender)))
	return append(b, sender...)
}

// parsePreamble parses the stream preamble at the front of b: the sender
// it names and its length, 0 while b holds only part of one, or -1 when
// b opens with something else (another magic or stream version, an empty
// address or one over maxAddr).
func parsePreamble(b []byte) (wire.Addr, int) {
	n, pn := binary.Uvarint(b[min(3, len(b)):])
	end := 3 + pn + int(n)
	switch {
	case len(b) >= 3 && [3]byte(b) != [3]byte{wire.MagicA, wire.MagicB, streamVersion},
		pn < 0, pn > 0 && (n == 0 || n > maxAddr):
		return "", -1
	case len(b) < 3 || pn == 0 || len(b) < end:
		return "", 0
	}
	return wire.Addr(b[3+pn : end]), end
}

// udpLoop receives multicast probes.
func (t *Transport) udpLoop() {
	defer t.wg.Done()
	buf := make([]byte, maxDatagram)
	for !t.udpRecvOne(buf) {
	}
}

// udpRecvOne handles one datagram and reports whether the loop should
// stop. A panic out of one datagram's handling drops that datagram and
// keeps the loop alive (stop stays false when recovery fires).
func (t *Transport) udpRecvOne(buf []byte) (stop bool) {
	defer t.recoverPanic()
	n, _, err := t.udp.ReadFromUDP(buf)
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return true
		}
		if t.isClosed() {
			return true
		}
		t.ctr.readErrors.Inc()
		return false
	}
	m, err := wire.Decode(buf[:n])
	if err != nil {
		t.ctr.corruptFrames.Inc()
		t.ctr.msgsDropped.Inc()
		return false
	}
	if m.From == t.addr {
		return false // our own probe echoed back
	}
	t.enqueue(m)
	return false
}

// enqueue hands a received message to the inbox without blocking. It runs
// only on reader goroutines, all of which Close waits for before it closes
// the inbox, so no lock orders it against Close.
func (t *Transport) enqueue(m *wire.Message) {
	if t.isClosed() {
		return
	}
	select {
	case t.inbox <- m:
	default:
		t.ctr.inboxOverflow.Inc()
		t.ctr.msgsDropped.Inc()
	}
}

// isTimeout reports whether err is a connection deadline expiry.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
