// Package wire defines Tiamat's protocol messages and their binary
// encoding. Every exchange between instances — multicast discovery,
// operation propagation, the first-responder-wins take protocol, direct
// remote out/eval, and backbone relaying — is one of these messages.
//
// Frame layout (version 2):
//
//	frame  := magic:2 version:1 type:1 id:uvarint from:str body crc:4
//	str    := len:uvarint bytes
//	body   := type-specific fields (see each message's doc)
//	crc    := IEEE CRC-32 of everything before it, little-endian
//
// from is the sender's contact address, empty when the channel the frame
// travels on names the sender (AppendEncodeBy); the receiving transport
// then stamps it. A frame sent on another node's behalf keeps its from.
//
// The trailing checksum lets every receiver reject corrupted frames
// instead of propagating garbage: a frame that decodes is a frame that
// was received exactly as sent. Version 2 added the checksum; version 1
// frames are rejected with ErrVersion.
//
// Some types carry optional trailing fields (budget, busy, degraded,
// failover, replica identity, caps). They are positional: a field that
// is present forces every earlier one onto the wire as filler, a field
// that is absent costs no byte, and bytes past the last known field are
// ErrFrame. There is one wire generation. Every peer a node lists
// announced the whole of CapsCurrent (the wire floor), so every frame
// goes out whole; the Caps trailer on TAnnounce is where a later
// feature adds its bit.
//
// The encoding is deliberately self-contained so the real UDP/TCP
// transport and the simulated network share one codec.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
	"unsafe"

	"tiamat/tuple"
)

// Addr identifies a Tiamat instance on the network. For the simulated
// transport it is a node name; for the real transport "host:port".
type Addr string

// version is the wire protocol version carried in every frame.
const version = 2

// Type discriminates protocol messages.
type Type uint8

// The protocol message set.
const (
	TInvalid Type = iota
	// TDiscover is the multicast visibility probe sent when an operation
	// needs more responders (paper §3.1.3).
	TDiscover
	// TAnnounce is the unicast reply to a discover, carrying the
	// responder's contact address and space info.
	TAnnounce
	// TOp propagates a rd/rdp/in/inp to a visible instance. TTL bounds
	// how long the responder may hold a waiter for blocking forms.
	TOp
	// TResult returns a match for a TOp. For removing ops the tuple is
	// tentatively held under HoldID pending TAccept/TRelease.
	TResult
	// TAccept finalises a tentative removal (first responder wins).
	TAccept
	// TRelease reinstates a tentative removal (a later responder lost).
	TRelease
	// TCancel withdraws an outstanding TOp (requester lease expired).
	TCancel
	// TOut performs a remote out on a specific instance (paper §2.4).
	TOut
	// TEval performs a remote eval on a specific instance.
	TEval
	// TAck acknowledges TOut/TEval, reporting acceptance or refusal.
	TAck
	// TRelay carries an encapsulated frame via a backbone node (§6).
	TRelay
	// TGoodbye is the multicast departure announcement of a gracefully
	// shutting-down instance: peers drop it from their responder lists
	// immediately instead of waiting for failures to accumulate.
	TGoodbye
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case TDiscover:
		return "discover"
	case TAnnounce:
		return "announce"
	case TOp:
		return "op"
	case TResult:
		return "result"
	case TAccept:
		return "accept"
	case TRelease:
		return "release"
	case TCancel:
		return "cancel"
	case TOut:
		return "out"
	case TEval:
		return "eval"
	case TAck:
		return "ack"
	case TRelay:
		return "relay"
	case TGoodbye:
		return "goodbye"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// OpCode mirrors the subset of Linda operations that propagate (paper
// §2.2: out/eval act locally by default; rd/rdp/in/inp propagate).
type OpCode uint8

// Propagating operations.
const (
	OpRd OpCode = iota + 1
	OpRdp
	OpIn
	OpInp
)

// Capability bits advertised by an instance on its announces (the
// optional trailing Caps field of TAnnounce). Each bit names a wire
// feature added after the version-2 frame layout. Every bit of
// CapsCurrent is the wire floor: a peer whose announce lacks one is not
// listed as a responder (internal/discovery), so every frame this build
// sends toward a listed peer goes out whole, with every field it needs.
// A future feature that must be switched on per peer takes a new bit and
// its gate then.
const (
	// CapBudget: optional TOp budget trailer (requester lease budget).
	CapBudget uint64 = 1 << iota
	// CapBusy: optional busy marker on TResult/TAck (governor refusals).
	CapBusy
	// CapCoalescedAcks is reserved and never reused: it named the
	// coalesced-ack ID list on TAck, which is no longer encoded or
	// decoded (a TAck carrying one is ErrFrame).
	CapCoalescedAcks
	// CapDegraded: optional degraded marker on TAnnounce (gray health).
	CapDegraded
	// CapGoodbye: the TGoodbye departure announcement.
	CapGoodbye
	// CapReplicaIdentity: optional replica identity on TOut/TCancel/
	// TResult and the failover marker on TOp (replication protocol).
	CapReplicaIdentity
	// CapCapsExchange: the optional Caps trailer on TAnnounce itself.
	CapCapsExchange
)

// CapsCurrent is this build's capability set and the wire floor: every
// feature bit the local codec encodes and decodes, and every bit a peer
// must announce to be listed.
const CapsCurrent = CapBudget | CapBusy | CapDegraded | CapGoodbye |
	CapReplicaIdentity | CapCapsExchange

// Removes reports whether the operation removes its match.
func (o OpCode) Removes() bool { return o == OpIn || o == OpInp }

// Blocking reports whether the operation may wait for a match.
func (o OpCode) Blocking() bool { return o == OpRd || o == OpIn }

// String names the op.
func (o OpCode) String() string {
	switch o {
	case OpRd:
		return "rd"
	case OpRdp:
		return "rdp"
	case OpIn:
		return "in"
	case OpInp:
		return "inp"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Message is a decoded protocol frame. Fields beyond Type/ID/From are
// populated according to the type, as documented on each constant. The
// one-byte fields lead, where they pack into two words instead of taking
// a padded word each: Decode makes one object per frame around a Message.
type Message struct {
	Type Type
	// Op is the propagated operation (TOp).
	Op OpCode
	// Hops is the remaining flood radius (used by flooding protocols;
	// Tiamat proper does not re-flood).
	Hops uint8
	// Found reports whether TResult carries a match.
	Found bool
	// Busy marks a not-found TResult or a refusing TAck as an explicit
	// admission refusal (the responder's governor shed the operation)
	// rather than a genuine miss or failure: the requester should fail
	// over, not retry here. Only encoded when true, or as filler ahead of
	// a TResult's replica identity.
	Busy bool
	// OK reports a TAck outcome, with Err.
	OK bool
	// Persistent is the space-info flag carried by TAnnounce.
	Persistent bool
	// Degraded is the self-reported gray-failure flag carried by
	// TAnnounce: the announcer is serving but slow (WAL fsync stalls,
	// governor queue delay), so requesters should deprioritize it. Only
	// encoded when true, or as filler ahead of Caps.
	Degraded bool
	// Failover marks a destructive TOp that may be served from the
	// responder's replica store when the copy's origin is provably dead
	// (the failover take, DESIGN.md §13). Optional trailing field,
	// encoded only when true.
	Failover bool

	// ID correlates requests with responses; unique per sender.
	ID uint64
	// From is the sender's contact address.
	From Addr

	// Op fields (TOp), with Op, Hops and Failover above.
	Template tuple.Template
	// TTL bounds responder-side effort (blocking hold time, out expiry).
	TTL time.Duration
	// Budget is the requester's remaining operation budget (TOp), when it
	// is tighter than TTL: a responder must not hold a waiter or a
	// tentative removal past the point the requester's lease or context
	// can still use the answer. Zero means "same as TTL" — the field is
	// only encoded when it carries new information (see AppendEncode).
	Budget time.Duration

	// Tuple payload (TResult, TOut, TEval args).
	Tuple tuple.Tuple
	// HoldID identifies a tentative removal on the responder.
	HoldID uint64

	// Err reports a TAck refusal.
	Err string
	// AckIDs is never encoded or decoded: a TAck that carries an ID list
	// on the wire is ErrFrame. It stays only because the frozen benchmark
	// module still reads it.
	AckIDs []uint64
	// Skip is never encoded or decoded either: the instances Multicast
	// neither offers the frame to nor counts (DESIGN.md §6).
	Skip []Addr

	// Caps is the announcer's capability set (TAnnounce): the Cap* bits
	// naming which wire features its decoder accepts. Optional trailing
	// field and the extension point of the wire format: zero is never
	// encoded, and an announce without every bit of CapsCurrent does not
	// list its sender (internal/discovery).
	Caps uint64

	// Func is the registered eval function name (TEval).
	Func string

	// Replication extension (DESIGN.md §13), riding existing frame types
	// as optional trailing fields. ReplSeq != 0 marks the frame as part
	// of the replica protocol and identifies a replicated tuple as
	// (ReplOrigin, ReplSeq) — the address of the instance whose out
	// created it plus that origin's write sequence number:
	//
	//   - TOut: a replicate/repair write-through — store a soft-state
	//     replica copy under this identity instead of an authoritative
	//     out. Acked like any remote out.
	//   - TCancel: a replica invalidation — the identified tuple was
	//     consumed (or its origin withdrew it); drop the copy and fence
	//     the identity against late replicates.
	//   - TResult: the found tuple is replicated under this identity, so
	//     the taker can invalidate the surviving copies itself on accept.
	//
	// Absent fields mean an ordinary frame; R=1 nodes never set them.
	ReplOrigin Addr
	ReplSeq    uint64

	// Target is the final destination of a TRelay frame.
	Target Addr
	// Payload is the encapsulated frame carried by TRelay.
	Payload []byte
}

// Codec errors.
var (
	// ErrFrame reports a malformed or truncated frame.
	ErrFrame = errors.New("wire: malformed frame")
	// ErrVersion reports an unsupported protocol version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrChecksum reports a frame whose CRC trailer does not match its
	// contents: the frame was corrupted in transit.
	ErrChecksum = errors.New("wire: checksum mismatch")
)

// MagicA and MagicB open every frame, and netudp's stream preamble.
const (
	MagicA = 0x7A // 'z'-ish arbitrary magic
	MagicB = 0x03 // protocol family
	maxStr = 1 << 20
)

// Buf is a pooled encode buffer. Transports obtain one with GetBuf,
// append a frame with AppendEncode, hand B to the network, and Release
// it once the bytes are no longer referenced (after the write syscall,
// or after the simulated network has taken its own copy).
type Buf struct {
	B []byte
}

// bufPool recycles encode buffers across sends. Oversized buffers are
// dropped on Release so one huge frame does not pin its capacity forever.
var bufPool = sync.Pool{
	New: func() any { return &Buf{B: make([]byte, 0, 512)} },
}

// maxPooledBuf bounds the capacity retained by the pool.
const maxPooledBuf = 64 << 10

// GetBuf returns an empty pooled buffer.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// Release returns the buffer to the pool. The caller must not touch B
// afterwards.
func (b *Buf) Release() {
	if b == nil || cap(b.B) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// Encode serialises the message to a fresh buffer. Hot paths should
// prefer AppendEncode with a pooled Buf; Encode remains for callers
// whose frame escapes (e.g. a relay payload embedded in another frame).
func Encode(m *Message) []byte {
	return AppendEncode(make([]byte, 0, 64), m)
}

// AppendEncode appends the message's frame to dst and returns the
// extended slice. The checksum covers only the appended frame, so dst
// may already hold transport framing (e.g. a length prefix).
func AppendEncode(dst []byte, m *Message) []byte {
	return AppendEncodeBy(dst, m, "")
}

// AppendEncodeBy is AppendEncode for a frame sender puts on a channel that
// names it: when m.From is sender, from is left empty for the receiving
// transport to stamp. m is only read, so one message may go to several
// peers at once.
func AppendEncodeBy(dst []byte, m *Message, sender Addr) []byte {
	from := m.From
	if from == sender {
		from = ""
	}
	mark := len(dst)
	b := dst
	b = append(b, MagicA, MagicB, version, byte(m.Type))
	b = binary.AppendUvarint(b, m.ID)
	b = appendStr(b, string(from))
	switch m.Type {
	case TDiscover:
		// header only
	case TAnnounce:
		b = appendBool(b, m.Persistent)
		// Optional trailing fields are positional: a later one forces
		// every earlier one onto the wire as filler, so degraded is
		// encoded even if false when the capability set follows.
		if m.Degraded || m.Caps != 0 {
			b = appendBool(b, m.Degraded)
		}
		// Optional capability set: the announcer's Cap* bits. Zero is
		// never encoded.
		if m.Caps != 0 {
			b = binary.AppendUvarint(b, m.Caps)
		}
	case TOp:
		b = append(b, byte(m.Op), m.Hops)
		b = binary.AppendUvarint(b, uint64(m.TTL/time.Millisecond))
		b = m.Template.AppendBinary(b)
		// Optional trailing budget: only when it differs from TTL. When
		// the failover marker follows, the budget is encoded even if zero
		// so the decoder can tell the two optional fields apart.
		if m.Budget > 0 || m.Failover {
			b = binary.AppendUvarint(b, uint64(m.Budget/time.Millisecond))
		}
		if m.Failover {
			b = appendBool(b, true)
		}
	case TResult:
		b = appendBool(b, m.Found)
		b = binary.AppendUvarint(b, m.HoldID)
		if m.Found {
			b = m.Tuple.AppendBinary(b)
		}
		// Optional trailing busy marker (admission refusal). When the
		// replica identity follows, busy is encoded even if false so the
		// decoder can tell the optional fields apart.
		if m.Busy || m.ReplSeq != 0 {
			b = appendBool(b, m.Busy)
		}
		if m.ReplSeq != 0 {
			b = appendStr(b, string(m.ReplOrigin))
			b = binary.AppendUvarint(b, m.ReplSeq)
		}
	case TAccept, TRelease:
		b = binary.AppendUvarint(b, m.HoldID)
	case TCancel:
		b = binary.AppendUvarint(b, m.HoldID)
		// Optional replica identity: a cancel carrying one is an
		// invalidation of that replicated tuple, not an op withdrawal.
		if m.ReplSeq != 0 {
			b = appendStr(b, string(m.ReplOrigin))
			b = binary.AppendUvarint(b, m.ReplSeq)
		}
	case TOut:
		b = binary.AppendUvarint(b, uint64(m.TTL/time.Millisecond))
		b = m.Tuple.AppendBinary(b)
		// Optional replica identity: marks the frame as a replicate/repair
		// write-through rather than an authoritative remote out.
		if m.ReplSeq != 0 {
			b = appendStr(b, string(m.ReplOrigin))
			b = binary.AppendUvarint(b, m.ReplSeq)
		}
	case TEval:
		b = appendStr(b, m.Func)
		b = binary.AppendUvarint(b, uint64(m.TTL/time.Millisecond))
		b = m.Tuple.AppendBinary(b)
	case TAck:
		b = appendBool(b, m.OK)
		b = appendStr(b, m.Err)
		// Optional trailing busy marker, encoded only when true.
		if m.Busy {
			b = appendBool(b, true)
		}
	case TRelay:
		b = appendStr(b, string(m.Target))
		b = binary.AppendUvarint(b, uint64(len(m.Payload)))
		b = append(b, m.Payload...)
	case TGoodbye:
		// header only
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[mark:]))
}

// Decode parses a frame, verifying its checksum. The entire buffer must
// be consumed. The result shares no memory with data: it is one object
// that holds the message, the top-level fields of its tuple or template
// and its own copy of the frame, which everything variable-length in the
// message aliases except the strings of its header and trailers (From,
// Err, Func, ReplOrigin, Target), which are copied. A frame longer than
// the object's inline bytes costs one buffer more. A tuple taken from the
// message keeps that object alive; Tuple.Copy detaches it.
func Decode(data []byte) (*Message, error) {
	var (
		m      *Message
		own    []byte
		fields []tuple.Field
	)
	if len(data) > 3 && carriesTuple(Type(data[3])) {
		f := new(tupleFrame)
		m, own, fields = &f.m, f.data[:0], f.fields[:0]
	} else {
		f := new(bareFrame)
		m, own = &f.m, f.data[:0]
	}
	own = append(own, data...) // past the inline bytes: the one buffer more
	return decode(m, own, fields)
}

// DecodeNoCopy parses a frame whose variable-length contents (relay
// Payload, tuple/template bytes fields) alias data instead of being
// copied. The caller must keep data alive and unmodified for the
// message's lifetime, or detach the parts it retains (Tuple.Copy,
// Template.Copy, or cloning Payload). It serves a caller whose buffer is
// already the message's alone, such as a relay payload.
func DecodeNoCopy(data []byte) (*Message, error) {
	return decode(new(Message), data, nil)
}

// tupleFrame and bareFrame are the object Decode makes per frame: the
// message, storage for the top-level fields of a tuple or template (the
// first shape only), and inline bytes for the frame itself. Each fills a
// malloc size class exactly, so the inline bytes are what rounding up
// would otherwise waste: 168 of them hold a take's op or result over TCP,
// and 56 an accept or ack. The runtime prefixes an object with pointers
// over 512 B with an 8-byte header, so the first shape is 8 B short of
// its 704 B class.
type tupleFrame struct {
	m      Message
	fields [3]tuple.Field
	data   [704 - 8 - unsafe.Sizeof(Message{}) - 3*unsafe.Sizeof(tuple.Field{})]byte
}

type bareFrame struct {
	m    Message
	data [320 - unsafe.Sizeof(Message{})]byte
}

// carriesTuple reports whether frames of type t carry a tuple or template.
func carriesTuple(t Type) bool {
	return t == TOp || t == TResult || t == TOut || t == TEval
}

// decode fills m from data, which variable-length contents alias, and
// returns it. fields is the message's own field storage when data is the
// message's own copy (Decode), and then tuple and template strings alias
// data too; nil means data is borrowed (DecodeNoCopy) and the tuple
// decoders' no-copy contract holds.
func decode(m *Message, data []byte, fields []tuple.Field) (*Message, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("short frame (%d bytes): %w", len(data), ErrFrame)
	}
	if data[0] != MagicA || data[1] != MagicB {
		return nil, fmt.Errorf("bad magic %x%x: %w", data[0], data[1], ErrFrame)
	}
	if data[2] != version {
		return nil, fmt.Errorf("version %d: %w", data[2], ErrVersion)
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("short frame (%d bytes): %w", len(data), ErrFrame)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	m.Type = Type(data[3])
	if m.Type == TInvalid || m.Type > TGoodbye {
		return nil, fmt.Errorf("type %d: %w", data[3], ErrFrame)
	}
	src := body[4:]
	var err error
	if m.ID, src, err = readUvarint(src); err != nil {
		return nil, fmt.Errorf("id: %w", err)
	}
	var from string
	if from, src, err = readStr(src); err != nil {
		return nil, fmt.Errorf("from: %w", err)
	}
	m.From = Addr(from)

	switch m.Type {
	case TDiscover:
	case TAnnounce:
		if m.Persistent, src, err = readBool(src); err != nil {
			return nil, err
		}
		// Optional degraded marker: absent means a healthy announcer.
		// The encoder omits a false marker unless a caps field follows,
		// so a bare explicit false is malformed — rejecting it keeps
		// every frame's canonical encoding unique.
		if len(src) > 0 {
			if m.Degraded, src, err = readBool(src); err != nil {
				return nil, err
			}
			if !m.Degraded && len(src) == 0 {
				return nil, fmt.Errorf("non-canonical degraded marker: %w", ErrFrame)
			}
		}
		// Optional capability set. A zero value is never encoded, so
		// decode it as malformed rather than let a truncated trailer
		// alias an absent one.
		if len(src) > 0 {
			if m.Caps, src, err = readUvarint(src); err != nil {
				return nil, fmt.Errorf("caps: %w", err)
			}
			if m.Caps == 0 {
				return nil, fmt.Errorf("caps 0: %w", ErrFrame)
			}
		}
	case TOp:
		if len(src) < 1 {
			return nil, fmt.Errorf("op code: %w", ErrFrame)
		}
		m.Op = OpCode(src[0])
		src = src[1:]
		if m.Op < OpRd || m.Op > OpInp {
			return nil, fmt.Errorf("op %d: %w", m.Op, ErrFrame)
		}
		if len(src) < 1 {
			return nil, fmt.Errorf("hops: %w", ErrFrame)
		}
		m.Hops = src[0]
		src = src[1:]
		var ttl uint64
		if ttl, src, err = readUvarint(src); err != nil {
			return nil, err
		}
		m.TTL = time.Duration(ttl) * time.Millisecond
		if m.Template, src, err = decodeTemplate(src, fields); err != nil {
			return nil, fmt.Errorf("template: %w", err)
		}
		// Optional budget field: absent (budget==TTL) means the TTL is
		// the whole story.
		if len(src) > 0 {
			var budget uint64
			if budget, src, err = readUvarint(src); err != nil {
				return nil, fmt.Errorf("budget: %w", err)
			}
			m.Budget = time.Duration(budget) * time.Millisecond
			// A zero budget is only encoded as filler ahead of a failover
			// marker; bare it is malformed (absent means budget==TTL).
			if m.Budget == 0 && len(src) == 0 {
				return nil, fmt.Errorf("non-canonical budget: %w", ErrFrame)
			}
		}
		// Optional failover marker: absent means an ordinary op, and an
		// explicit false is never encoded.
		if len(src) > 0 {
			if m.Failover, src, err = readBool(src); err != nil {
				return nil, fmt.Errorf("failover: %w", err)
			}
			if !m.Failover {
				return nil, fmt.Errorf("non-canonical failover marker: %w", ErrFrame)
			}
		}
	case TResult:
		if m.Found, src, err = readBool(src); err != nil {
			return nil, err
		}
		if m.HoldID, src, err = readUvarint(src); err != nil {
			return nil, err
		}
		if m.Found {
			if m.Tuple, src, err = decodeTuple(src, fields); err != nil {
				return nil, fmt.Errorf("tuple: %w", err)
			}
		}
		// Optional busy marker: absent means a normal result. A false
		// marker is only encoded as filler ahead of a replica identity.
		if len(src) > 0 {
			if m.Busy, src, err = readBool(src); err != nil {
				return nil, err
			}
			if !m.Busy && len(src) == 0 {
				return nil, fmt.Errorf("non-canonical busy marker: %w", ErrFrame)
			}
		}
		// Optional replica identity: absent means a single-holder tuple.
		if len(src) > 0 {
			if m.ReplOrigin, m.ReplSeq, src, err = readRepl(src); err != nil {
				return nil, err
			}
		}
	case TAccept, TRelease:
		if m.HoldID, src, err = readUvarint(src); err != nil {
			return nil, err
		}
	case TCancel:
		if m.HoldID, src, err = readUvarint(src); err != nil {
			return nil, err
		}
		// Optional replica identity: present means an invalidation.
		if len(src) > 0 {
			if m.ReplOrigin, m.ReplSeq, src, err = readRepl(src); err != nil {
				return nil, err
			}
		}
	case TOut:
		var ttl uint64
		if ttl, src, err = readUvarint(src); err != nil {
			return nil, err
		}
		m.TTL = time.Duration(ttl) * time.Millisecond
		if m.Tuple, src, err = decodeTuple(src, fields); err != nil {
			return nil, fmt.Errorf("tuple: %w", err)
		}
		// Optional replica identity: present means a replicate/repair
		// write-through, not an authoritative remote out.
		if len(src) > 0 {
			if m.ReplOrigin, m.ReplSeq, src, err = readRepl(src); err != nil {
				return nil, err
			}
		}
	case TEval:
		if m.Func, src, err = readStr(src); err != nil {
			return nil, err
		}
		var ttl uint64
		if ttl, src, err = readUvarint(src); err != nil {
			return nil, err
		}
		m.TTL = time.Duration(ttl) * time.Millisecond
		if m.Tuple, src, err = decodeTuple(src, fields); err != nil {
			return nil, fmt.Errorf("args: %w", err)
		}
	case TAck:
		if m.OK, src, err = readBool(src); err != nil {
			return nil, err
		}
		if m.Err, src, err = readStr(src); err != nil {
			return nil, err
		}
		// Optional busy marker: absent means a normal ack, and an
		// explicit false is never encoded. Nothing follows it: an older
		// build's coalesced-ack ID list is trailing garbage.
		if len(src) > 0 {
			if m.Busy, src, err = readBool(src); err != nil {
				return nil, err
			}
			if !m.Busy {
				return nil, fmt.Errorf("non-canonical busy marker: %w", ErrFrame)
			}
		}
	case TRelay:
		var target string
		if target, src, err = readStr(src); err != nil {
			return nil, err
		}
		m.Target = Addr(target)
		var n uint64
		if n, src, err = readUvarint(src); err != nil {
			return nil, err
		}
		if n > maxStr || uint64(len(src)) < n {
			return nil, fmt.Errorf("payload %d: %w", n, ErrFrame)
		}
		m.Payload = src[:n:n]
		src = src[n:]
	case TGoodbye:
		// header only
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(src), ErrFrame)
	}
	return m, nil
}

func decodeTuple(src []byte, fields []tuple.Field) (tuple.Tuple, []byte, error) {
	if fields == nil {
		return tuple.DecodeTupleNoCopy(src)
	}
	return tuple.DecodeTupleInto(src, fields)
}

func decodeTemplate(src []byte, fields []tuple.Field) (tuple.Template, []byte, error) {
	if fields == nil {
		return tuple.DecodeTemplateNoCopy(src)
	}
	return tuple.DecodeTemplateInto(src, fields)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func readUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, ErrFrame
	}
	return v, src[n:], nil
}

// readRaw reads a length-prefixed string's bytes, aliasing src.
func readRaw(src []byte) ([]byte, []byte, error) {
	n, src, err := readUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n > maxStr || uint64(len(src)) < n {
		return nil, nil, ErrFrame
	}
	return src[:n], src[n:], nil
}

func readStr(src []byte) (string, []byte, error) {
	raw, src, err := readRaw(src)
	return string(raw), src, err
}

// readRepl reads a replica identity (origin address + sequence). The
// identity is only ever encoded with a nonzero sequence, so a zero here
// is a malformed frame, not "no replication" — fail closed rather than
// let a truncated or crafted trailer decode to a different meaning.
func readRepl(src []byte) (Addr, uint64, []byte, error) {
	origin, src, err := readStr(src)
	if err != nil {
		return "", 0, nil, fmt.Errorf("repl origin: %w", err)
	}
	seq, src, err := readUvarint(src)
	if err != nil {
		return "", 0, nil, fmt.Errorf("repl seq: %w", err)
	}
	if seq == 0 {
		return "", 0, nil, fmt.Errorf("repl seq 0: %w", ErrFrame)
	}
	return Addr(origin), seq, src, nil
}

func readBool(src []byte) (bool, []byte, error) {
	if len(src) < 1 {
		return false, nil, ErrFrame
	}
	if src[0] > 1 {
		return false, nil, fmt.Errorf("bool %d: %w", src[0], ErrFrame)
	}
	return src[0] == 1, src[1:], nil
}
