package core

import (
	"hash/maphash"
	"time"

	"tiamat/tuple"
	"tiamat/wire"
)

// servedCacheMax bounds the finished records (answered and cancelled
// requests); the oldest are evicted first. It is meant to outlast a
// requester's retransmission window, which on a busy node it does not:
// DESIGN.md §7, "Bounded request records", gives the window in time.
const servedCacheMax = 4096

// dedupTTL is how long an answered or cancelled request is remembered for
// duplicate suppression. It only has to outlast a requester's
// retransmission window (seconds). The replicator borrows it for how long
// a consumed identity stays fenced and an unacked replicate flight is
// remembered (replica.go).
const dedupTTL = 30 * time.Second

// servedMinSlots is the ring's size at its first use; it doubles as it
// fills, up to servedCacheMax.
const servedMinSlots = 16

// servedKeepSent is how many of the newest records keep the reply they
// sent: a copy that follows at once, as the not-found re-probe multicast
// does (DESIGN.md §6), is sent that reply again instead of one built
// anew. Older records keep their answer by kind alone.
const servedKeepSent = 64

// answer is how a finished request was answered: all a later copy of it
// is owed, by kind. A reply is kept as a message past the newest
// servedKeepSent records only where its kind cannot rebuild it.
type answer uint8

const (
	ansNone      answer = iota // a vacated ring slot
	ansNotFound                // a plain not-found TResult
	ansRead                    // a found TResult with no hold: tuple is the reply's
	ansAckOK                   // an OK TAck
	ansAckErr                  // a refusing TAck: err is its text
	ansMsg                     // msg is the reply: a take whose hold is pending, or one carrying a replica identity
	ansAccepted                // a take whose hold was accepted: a copy gets silence
	ansCancelled               // withdrawn by the requester: a copy gets silence
)

// finished is one finished request: its key, when it finished (since the
// store's base) and its answer. A value in the ring, it holds a pointer
// only for what its kind needs, and, while it is among the newest
// servedKeepSent, the reply it sent.
type finished struct {
	key   waitKey
	at    time.Duration
	kind  answer
	msg   *wire.Message
	tuple tuple.Tuple
	err   string
}

// finishedAs files reply, the answer sent for the request key names, with
// the smallest answer that rebuilds it byte for byte: nil is an accepted
// take's tombstone. self is the responder's address, the From of every
// reply it sends.
func finishedAs(key waitKey, reply *wire.Message, self wire.Addr) finished {
	f := finished{key: key, kind: ansMsg, msg: reply}
	switch {
	case reply == nil:
		f.kind = ansAccepted
	case reply.ID != key.id || reply.From != self || reply.Busy || reply.HoldID != 0 ||
		reply.ReplSeq != 0 || reply.ReplOrigin != "":
		// Kept as sent.
	case reply.Type == wire.TResult && !reply.Found:
		f.kind = ansNotFound
	case reply.Type == wire.TResult:
		f.kind, f.tuple = ansRead, reply.Tuple
	case reply.Type == wire.TAck && reply.OK && reply.Err == "":
		f.kind = ansAckOK
	case reply.Type == wire.TAck && !reply.OK:
		f.kind, f.err = ansAckErr, reply.Err
	}
	return f
}

// reply returns the reply f was answered with, the one sent or one built
// identical to it on the wire, or nil for a request whose copies get
// silence.
func (f *finished) reply(self wire.Addr) *wire.Message {
	if f.msg != nil {
		return f.msg
	}
	switch f.kind {
	case ansNotFound:
		return &wire.Message{Type: wire.TResult, ID: f.key.id, From: self}
	case ansRead:
		return &wire.Message{Type: wire.TResult, ID: f.key.id, From: self, Found: true, Tuple: f.tuple}
	case ansAckOK:
		return &wire.Message{Type: wire.TAck, ID: f.key.id, From: self, OK: true}
	case ansAckErr:
		return &wire.Message{Type: wire.TAck, ID: f.key.id, From: self, Err: f.err}
	}
	return nil
}

// servedStore holds the finished requests: a ring in the order they
// finished, whose tail is evicted first, by size or by age, and an
// open-addressed index of ring slots (linear probing; a delete shifts its
// run back, so there are no tombstones). Both are allocated on first use
// and double as the ring fills, up to servedCacheMax records and twice as
// many index slots, and never shrink: a long-lived responder's dedup
// memory is the cap's, whatever its uptime. A slot vacated out of order
// (a release, a re-recording, a hello) stays in the ring as ansNone until
// the tail passes it. Guarded by Instance.mu.
type servedStore struct {
	ring  []finished
	tail  int      // the oldest slot
	n     int      // slots from tail on in use, vacated ones included
	index []uint32 // ring slot + 1; 0 is empty
	seed  maphash.Seed
	base  time.Time // what the records' at counts from
}

// hash returns k's home position in the index.
func (s *servedStore) hash(k waitKey) int {
	h := maphash.String(s.seed, string(k.from)) ^ k.id*0x9e3779b97f4a7c15
	h ^= h >> 29
	return int(h & uint64(len(s.index)-1))
}

// slot returns the index position and ring slot of key's record, or
// ok false.
func (s *servedStore) slot(key waitKey) (pos, slot int, ok bool) {
	if s.n == 0 {
		return 0, 0, false
	}
	mask := len(s.index) - 1
	for pos = s.hash(key); s.index[pos] != 0; pos = (pos + 1) & mask {
		if slot = int(s.index[pos] - 1); s.ring[slot].key == key {
			return pos, slot, true
		}
	}
	return 0, 0, false
}

// get returns key's record, or nil.
func (s *servedStore) get(key waitKey) *finished {
	if _, slot, ok := s.slot(key); ok {
		return &s.ring[slot]
	}
	return nil
}

// cancelled reports whether key's request is finished as cancelled.
func (s *servedStore) cancelled(key waitKey) bool {
	f := s.get(key)
	return f != nil && f.kind == ansCancelled
}

// stale reports whether f, a record of s, is older than dedupTTL at now.
func (s *servedStore) stale(f *finished, now time.Time) bool {
	return now.Sub(s.base)-f.at > dedupTTL
}

// drop forgets key's record, if it has one.
func (s *servedStore) drop(key waitKey) {
	if pos, slot, ok := s.slot(key); ok {
		s.vacate(pos, slot)
	}
}

// vacate empties ring slot slot, found at index position pos, and closes
// the gap its index entry leaves: each later entry of the probe run whose
// home is not between the gap and itself moves back into the gap.
func (s *servedStore) vacate(pos, slot int) {
	s.ring[slot] = finished{}
	mask := len(s.index) - 1
	for next := (pos + 1) & mask; s.index[next] != 0; next = (next + 1) & mask {
		home := s.hash(s.ring[s.index[next]-1].key)
		if (next-home)&mask >= (next-pos)&mask {
			s.index[pos] = s.index[next]
			pos = next
		}
	}
	s.index[pos] = 0
}

// add files f as the newest record at now, replacing any record under its
// key. It first evicts from the tail every vacated slot and every record
// older than dedupTTL, then grows the ring if it is full below the cap,
// or evicts the oldest record if it is full at it.
func (s *servedStore) add(f finished, now time.Time) {
	if s.ring == nil {
		s.seed, s.base = maphash.MakeSeed(), now
		s.resize(servedMinSlots)
	}
	s.drop(f.key)
	f.at = now.Sub(s.base)
	for s.n > 0 {
		t := &s.ring[s.tail]
		kept := t.kind != ansNone && f.at-t.at <= dedupTTL
		if kept && s.n < len(s.ring) {
			break // the oldest record is live and fresh; the rest are fresher
		}
		if kept && len(s.ring) < servedCacheMax {
			s.resize(2 * len(s.ring))
			continue
		}
		if t.kind != ansNone {
			s.drop(t.key)
		}
		s.tail = (s.tail + 1) % len(s.ring)
		s.n--
	}
	slot := (s.tail + s.n) % len(s.ring)
	s.ring[slot] = f
	s.n++
	s.insert(slot)
	if s.n > servedKeepSent {
		if old := &s.ring[(slot+len(s.ring)-servedKeepSent)%len(s.ring)]; old.kind != ansMsg {
			old.msg = nil
		}
	}
}

// insert indexes ring slot slot.
func (s *servedStore) insert(slot int) {
	mask := len(s.index) - 1
	pos := s.hash(s.ring[slot].key)
	for s.index[pos] != 0 {
		pos = (pos + 1) & mask
	}
	s.index[pos] = uint32(slot + 1)
}

// resize moves the records into a ring of size slots, oldest first, and
// rebuilds the index at twice that.
func (s *servedStore) resize(size int) {
	if size > servedCacheMax {
		size = servedCacheMax
	}
	old, tail, n := s.ring, s.tail, s.n
	s.ring, s.tail, s.n = make([]finished, size), 0, 0
	idx := 1
	for idx < 2*size {
		idx <<= 1
	}
	s.index = make([]uint32, idx)
	for k := 0; k < n; k++ {
		if f := old[(tail+k)%len(old)]; f.kind != ansNone {
			s.ring[s.n] = f
			s.insert(s.n)
			s.n++
		}
	}
}

// dropPeer forgets every record of requests from peer.
func (s *servedStore) dropPeer(peer wire.Addr) {
	for k := 0; k < s.n; k++ {
		if f := &s.ring[(s.tail+k)%len(s.ring)]; f.kind != ansNone && f.key.from == peer {
			s.drop(f.key)
		}
	}
}
