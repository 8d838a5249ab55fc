package netudp

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"tiamat/trace"
	"tiamat/transport"
	"tiamat/wire"
)

// This file is the batched unicast send path (DESIGN.md §12): one
// persistent session per peer, group-commit coalescing of concurrent
// frames into a single write, and pipelining (the next batch accumulates
// while the current one is on the wire). Every message is one frame,
// whatever its type.
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
// guaranteed an answer.
type session struct {
	t  *Transport
	to wire.Addr

	mu       sync.Mutex
	flushing bool
	conn     net.Conn  // persistent connection, nil when down
	lastUse  time.Time // last successful write (stale-conn detection)

	// pending holds length-prefixed encoded frames awaiting flush;
	// bounds[i] is the end offset of frame i, waiters[i] its blocked
	// sender.
	pending *wire.Buf
	bounds  []int
	waiters []chan error
}

// send enqueues the frame and blocks until it is written or delivery
// fails. If no flush is in flight the calling goroutine becomes the
// flusher and drains the session before returning.
func (s *session) send(m *wire.Message) error {
	s.mu.Lock()
	if s.t.isClosed() {
		s.mu.Unlock()
		return transport.ErrClosed
	}
	ch := make(chan error, 1)
	s.appendFrameLocked(m)
	s.waiters = append(s.waiters, ch)
	if s.flushing {
		s.mu.Unlock()
		return <-ch
	}
	s.flushing = true
	s.mu.Unlock()
	s.flushLoop()
	return <-ch
}

// appendFrameLocked encodes m as a length-prefixed frame at the end of
// the pending buffer. The prefix width is unknown until the frame is
// encoded, so the widest possible uvarint is reserved up front and the
// frame slid back over the surplus.
func (s *session) appendFrameLocked(m *wire.Message) {
	if s.pending == nil {
		s.pending = wire.GetBuf()
	}
	mark := len(s.pending.B)
	b := s.pending.B
	var pad [binary.MaxVarintLen64]byte
	b = append(b, pad[:]...)
	b = wire.AppendEncode(b, m)
	flen := len(b) - mark - binary.MaxVarintLen64
	pn := binary.PutUvarint(b[mark:], uint64(flen))
	copy(b[mark+pn:], b[mark+binary.MaxVarintLen64:])
	s.pending.B = b[:mark+pn+flen]
	s.bounds = append(s.bounds, len(s.pending.B))
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

		err := s.writeBatch(buf.B)
		frames := int64(len(wtrs))
		if err == nil {
			s.t.met.Add(trace.CtrMsgsSent, frames)
			s.t.met.Add(trace.CtrUnicasts, frames)
			s.t.met.Add(trace.CtrBytesSent, int64(len(buf.B)))
			if frames > 1 {
				s.t.met.Inc(trace.CtrBatchFlushes)
				s.t.met.Add(trace.CtrBatchedFrames, frames)
			}
		} else {
			s.t.met.Inc(trace.CtrSendErrors)
			s.t.met.Add(trace.CtrMsgsDropped, frames)
		}
		buf.Release()
		for _, ch := range wtrs {
			ch <- err
		}
	}
}

// takeBatchLocked removes one write's worth of queued work: leading
// frames up to the FlushBytes watermark (always at least one). Returns
// the wire buffer and the waiters answered by this write, one per frame.
func (s *session) takeBatchLocked() (*wire.Buf, []chan error) {
	cut := len(s.bounds)
	for i, end := range s.bounds {
		if i > 0 && end > s.t.cfg.FlushBytes {
			cut = i
			break
		}
	}
	var out *wire.Buf
	wtrs := make([]chan error, 0, cut)
	if cut == len(s.bounds) {
		out = s.pending
		s.pending = nil
		s.bounds = s.bounds[:0]
		wtrs = append(wtrs, s.waiters...)
		s.waiters = s.waiters[:0]
	} else {
		// Split at a frame boundary: flush the prefix, slide the rest of
		// the backlog (and its bookkeeping) to the front.
		out = wire.GetBuf()
		cutOff := s.bounds[cut-1]
		out.B = append(out.B, s.pending.B[:cutOff]...)
		n := copy(s.pending.B, s.pending.B[cutOff:])
		s.pending.B = s.pending.B[:n]
		for i := cut; i < len(s.bounds); i++ {
			s.bounds[i-cut] = s.bounds[i] - cutOff
		}
		s.bounds = s.bounds[:len(s.bounds)-cut]
		wtrs = append(wtrs, s.waiters[:cut]...)
		k := copy(s.waiters, s.waiters[cut:])
		s.waiters = s.waiters[:k]
	}
	return out, wtrs
}

// failLocked answers every queued waiter with err and drops the backlog.
func (s *session) failLocked(err error) {
	for _, ch := range s.waiters {
		ch <- err
	}
	s.waiters = s.waiters[:0]
	s.bounds = s.bounds[:0]
	if s.pending != nil {
		s.pending.Release()
		s.pending = nil
	}
}

// writeBatch delivers one batch over the persistent connection, redialing
// with exponential backoff (per-transport splitmix64 jitter) up to
// SendAttempts times. A write failure on a reused connection usually
// means the peer idled it out since the last batch, so the first such
// failure earns one immediate uncounted redial before the attempt/backoff
// cycle charges for it.
func (s *session) writeBatch(buf []byte) error {
	var lastErr error
	staleRetry := true
	for attempt := 1; ; attempt++ {
		conn, fresh, err := s.ensureConn()
		if err == nil {
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			_, err = conn.Write(buf)
			if err == nil {
				s.mu.Lock()
				s.lastUse = time.Now()
				s.mu.Unlock()
				return nil
			}
			s.dropConn(conn)
			if !fresh && staleRetry {
				staleRetry = false
				attempt--
				continue
			}
		}
		lastErr = err
		if attempt >= s.t.cfg.SendAttempts || s.t.isClosed() {
			return lastErr
		}
		wait := s.t.cfg.SendBackoff << (attempt - 1)
		wait += time.Duration(s.t.rng.Int63n(int64(s.t.cfg.SendBackoff)))
		time.Sleep(wait)
		s.t.met.Inc(trace.CtrRetries)
	}
}

// ensureConn returns the session's connection, dialing if it is down or
// has sat idle past IdleTimeout (receivers hang up idle connections; a
// proactive redial beats writing into a half-closed socket and losing
// the batch). fresh reports whether the connection was dialed just now.
func (s *session) ensureConn() (net.Conn, bool, error) {
	s.mu.Lock()
	conn := s.conn
	stale := conn != nil && s.t.cfg.IdleTimeout > 0 && time.Since(s.lastUse) > s.t.cfg.IdleTimeout
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
	s.lastUse = time.Now()
	s.mu.Unlock()
	return c, true, nil
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
