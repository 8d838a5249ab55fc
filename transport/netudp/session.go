package netudp

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/trace"
	"tiamat/transport"
	"tiamat/wire"
)

// This file is the batched unicast send path (DESIGN.md §12): one
// persistent session per peer, group-commit coalescing of concurrent
// frames into a single write, and pipelining (the next batch accumulates
// while the current one is on the wire). Every message is one frame,
// whatever its type, and every connection opens with the preamble.
//
// Send stays synchronous: a caller returns when its frame has been
// written (or delivery failed), exactly as the one-connection-per-frame
// path behaved, so the communications manager's ErrUnreachable eviction
// semantics are unchanged. Batching needs no timers under that contract:
// a frame is never delayed for company — whenever the session is idle the
// frame flushes immediately, and whenever a write is already in flight
// every frame that arrives meanwhile shares the next write. The byte
// watermark (Config.FlushBytes) only caps how much of the backlog one
// write may carry.

// session is the persistent batched send path to one peer. The first
// sender to find the session idle becomes its flusher and drains the
// queue inline; senders that arrive while a flush is in flight enqueue
// and block until the flusher writes their batch. Invariant: waiters are
// only ever queued while a flusher is active, so every waiter is
// guaranteed an answer — exactly one, from the flush that wrote its frame
// or from failLocked, which is what lets a sender hand its drained waiter
// back for the next frame instead of allocating one per Send.
type session struct {
	t  *Transport
	to wire.Addr

	// lastUse is when the last successful write began, as an offset from
	// t.start (stale-conn detection).
	lastUse atomic.Int64

	mu       sync.Mutex
	flushing bool
	reaped   bool     // dropped from t.sessions: senders look the peer up again
	conn     net.Conn // persistent connection, nil when down

	// pending holds length-prefixed encoded frames awaiting flush;
	// bounds[i] is the end offset of frame i, waiters[i] its blocked
	// sender. The queue is double-buffered: out and batch are the bytes
	// and waiters of the write in flight, the flusher's alone until its
	// next take swaps them back in as the (emptied) queue. free holds
	// answered waiters awaiting reuse.
	pending, out   []byte
	bounds         []int
	waiters, batch []chan error
	free           []chan error
}

// errReaped tells Transport.Send that it looked the session up just before
// a sweep dropped it.
var errReaped = errors.New("netudp: session reaped")

// send enqueues the frame and blocks until it is written or delivery
// fails. If no flush is in flight the calling goroutine becomes the
// flusher and drains the session before returning.
func (s *session) send(m *wire.Message) error {
	s.mu.Lock()
	if s.t.isClosed() {
		s.mu.Unlock()
		return transport.ErrClosed
	}
	if s.reaped {
		s.mu.Unlock()
		return errReaped
	}
	var ch chan error
	if n := len(s.free); n > 0 {
		ch, s.free = s.free[n-1], s.free[:n-1]
	} else {
		ch = make(chan error, 1)
	}
	s.appendFrameLocked(m)
	s.waiters = append(s.waiters, ch)
	flusher := !s.flushing
	s.flushing = true
	s.mu.Unlock()
	if flusher {
		s.flushLoop()
	}
	err := <-ch
	s.mu.Lock()
	s.free = append(s.free, ch)
	s.mu.Unlock()
	return err
}

// appendFrameLocked encodes m as a length-prefixed frame at the end of
// the pending buffer. The prefix width is unknown until the frame is
// encoded, so the widest possible uvarint is reserved up front and the
// frame slid back over the surplus.
func (s *session) appendFrameLocked(m *wire.Message) {
	mark := len(s.pending)
	b := s.pending
	var pad [binary.MaxVarintLen64]byte
	b = append(b, pad[:]...)
	b = wire.AppendEncodeBy(b, m, s.t.addr)
	flen := len(b) - mark - binary.MaxVarintLen64
	pn := binary.PutUvarint(b[mark:], uint64(flen))
	copy(b[mark+pn:], b[mark+binary.MaxVarintLen64:])
	s.pending = b[:mark+pn+flen]
	s.bounds = append(s.bounds, len(s.pending))
}

// flushLoop drains the session: take a batch, write it, answer its
// waiters, repeat until nothing is queued. Runs on the goroutine of the
// sender that found the session idle; the lock is dropped around I/O so
// later senders enqueue into the next batch while this one is on the
// wire.
func (s *session) flushLoop() {
	for {
		s.mu.Lock()
		if len(s.waiters) == 0 {
			s.flushing = false
			s.mu.Unlock()
			return
		}
		if s.t.isClosed() {
			s.failLocked(transport.ErrClosed)
			s.flushing = false
			s.mu.Unlock()
			return
		}
		buf, wtrs := s.takeBatchLocked()
		s.mu.Unlock()

		n, err := s.writeBatch(buf)
		frames := int64(len(wtrs))
		if err == nil {
			s.t.met.Add(trace.CtrMsgsSent, frames)
			s.t.met.Add(trace.CtrUnicasts, frames)
			s.t.met.Add(trace.CtrBytesSent, n)
			if frames > 1 {
				s.t.met.Inc(trace.CtrBatchFlushes)
				s.t.met.Add(trace.CtrBatchedFrames, frames)
			}
		} else {
			s.t.met.Inc(trace.CtrSendErrors)
			s.t.met.Add(trace.CtrMsgsDropped, frames)
		}
		for _, ch := range wtrs {
			ch <- err
		}
	}
}

// takeBatchLocked removes one write's worth of queued work: leading
// frames up to the FlushBytes watermark (always at least one). Returns
// the bytes to write and the waiters answered by this write, one per
// frame; both are the flusher's (s.out, s.batch) until its next take.
func (s *session) takeBatchLocked() ([]byte, []chan error) {
	cut := len(s.bounds)
	for i, end := range s.bounds {
		if i > 0 && end > s.t.cfg.FlushBytes {
			cut = i
			break
		}
	}
	if cap(s.out) > 2*s.t.cfg.FlushBytes {
		// Grown well past one write's worth (append may double) by a
		// backlog or one huge frame: do not pin that for the session's life.
		s.out = nil
	}
	if cut == len(s.bounds) {
		s.out, s.pending = s.pending, s.out[:0]
		s.batch, s.waiters = s.waiters, s.batch[:0]
		s.bounds = s.bounds[:0]
	} else {
		// Split at a frame boundary: flush the prefix, slide the rest of
		// the backlog (and its bookkeeping) to the front.
		cutOff := s.bounds[cut-1]
		s.out = append(s.out[:0], s.pending[:cutOff]...)
		n := copy(s.pending, s.pending[cutOff:])
		s.pending = s.pending[:n]
		for i := cut; i < len(s.bounds); i++ {
			s.bounds[i-cut] = s.bounds[i] - cutOff
		}
		s.bounds = s.bounds[:len(s.bounds)-cut]
		s.batch = append(s.batch[:0], s.waiters[:cut]...)
		k := copy(s.waiters, s.waiters[cut:])
		s.waiters = s.waiters[:k]
	}
	return s.out, s.batch
}

// failLocked answers every queued waiter with err and drops the backlog.
func (s *session) failLocked(err error) {
	for _, ch := range s.waiters {
		ch <- err
	}
	s.waiters = s.waiters[:0]
	s.bounds = s.bounds[:0]
	s.pending = s.pending[:0]
}

// writeBatch delivers one batch over the persistent connection, redialing
// with exponential backoff (per-transport splitmix64 jitter) up to
// SendAttempts times, and returns the bytes the delivering write carried:
// a connection dialed just now gets the preamble in the same writev. A
// write failure on a reused connection usually means the peer idled it
// out since the last batch, so the first such failure earns one immediate
// uncounted redial before the attempt/backoff cycle charges for it. A
// write or dial that ran out its deadline is counted (net.io_timeouts)
// even when a redial then delivers the batch.
func (s *session) writeBatch(buf []byte) (int64, error) {
	var lastErr error
	staleRetry := true
	for attempt := 1; ; attempt++ {
		conn, fresh, err := s.ensureConn()
		if err == nil {
			now := time.Now()
			_ = conn.SetWriteDeadline(now.Add(writeTimeout))
			n := int64(len(buf))
			if fresh {
				bufs := net.Buffers{appendPreamble(nil, s.t.addr), buf}
				n, err = bufs.WriteTo(conn)
			} else {
				_, err = conn.Write(buf)
			}
			if err == nil {
				s.lastUse.Store(int64(now.Sub(s.t.start)))
				return n, nil
			}
			s.dropConn(conn)
		}
		if isTimeout(err) {
			s.t.met.Inc(trace.CtrIOTimeouts)
		}
		if !fresh && staleRetry {
			staleRetry = false
			attempt--
			continue
		}
		lastErr = err
		if attempt >= s.t.cfg.SendAttempts || s.t.isClosed() {
			return 0, lastErr
		}
		wait := s.t.cfg.SendBackoff << (attempt - 1)
		wait += time.Duration(s.t.rng.Int63n(int64(s.t.cfg.SendBackoff)))
		s.t.met.Inc(trace.CtrRetries)
		time.Sleep(wait)
	}
}

// ensureConn returns the session's connection, dialing if it is down or
// has sat idle past IdleTimeout (receivers hang up idle connections; a
// proactive redial beats writing into a half-closed socket and losing
// the batch). fresh reports whether the connection was dialed just now.
func (s *session) ensureConn() (net.Conn, bool, error) {
	s.mu.Lock()
	conn := s.conn
	stale := conn != nil && s.idle()
	if stale {
		s.conn = nil
	}
	s.mu.Unlock()
	if stale {
		conn.Close()
		conn = nil
	}
	if conn != nil {
		return conn, false, nil
	}
	c, err := net.DialTimeout("tcp", string(s.to), dialTimeout)
	if err != nil {
		return nil, true, err
	}
	s.mu.Lock()
	if s.t.isClosed() {
		s.mu.Unlock()
		c.Close()
		return nil, true, transport.ErrClosed
	}
	s.conn = c
	s.lastUse.Store(int64(time.Since(s.t.start)))
	s.mu.Unlock()
	return c, true, nil
}

// idle reports whether the connection has gone unwritten past IdleTimeout.
func (s *session) idle() bool {
	return time.Since(s.t.start)-time.Duration(s.lastUse.Load()) > s.t.cfg.IdleTimeout
}

// reap marks the session dropped if nothing would be lost with it: no
// flush in flight, nothing queued, and a connection that is down or idle
// past IdleTimeout (closed here; the peer's reader sees a clean EOF). The
// caller, holding t.mu, then deletes it. A sender that looked it up before
// the sweep finds it reaped and looks the peer up again.
func (s *session) reap() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushing || len(s.waiters) > 0 || (s.conn != nil && !s.idle()) {
		return false
	}
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.reaped = true
	return true
}

// dropConn closes a failed connection and clears it from the session if
// still current.
func (s *session) dropConn(conn net.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
	}
	s.mu.Unlock()
	conn.Close()
}

// closeSession tears the session down on transport close: the connection
// is closed (unblocking any in-flight write) and, when no flusher is
// active, queued state is cleared. An active flusher observes the closed
// transport at its next loop iteration and fails its waiters itself.
func (s *session) closeSession() {
	s.mu.Lock()
	conn := s.conn
	s.conn = nil
	if !s.flushing {
		s.failLocked(transport.ErrClosed)
	}
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}
