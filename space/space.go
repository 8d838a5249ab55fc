// Package space defines the storage-level contract of a local tuple space.
//
// The paper notes (§3.1.2) that "the tuple space could be replaced with any
// system which implements the six standard Linda operations". This package
// is that replacement seam: the Tiamat instance consumes only the Space
// interface, and tiamat/internal/store provides the default implementation.
//
// The six Linda operations map onto Space as follows:
//
//	out  → Out (with the expiry instant of the operation's lease)
//	rdp  → Rdp
//	inp  → Inp
//	rd   → Rdp, then Wait(p, false) until a match or lease expiry
//	in   → Inp, then Wait(p, true) until a match or lease expiry
//	eval → executed by the instance; the result tuple enters via Out
//
// Hold supports Tiamat's distributed take protocol (§3.1.3): a remote in
// tentatively removes a match; the winning responder's hold is accepted and
// all others are released, reinstating their tuples. Served for a peer,
// the two destructive operations therefore map differently:
//
//	inp served for a peer → Hold
//	in  served for a peer → Hold, then Park(p, true, sink) until a match,
//	                        lease expiry or the peer's cancel
//	rd  served for a peer → Rdp, then Park(p, false, sink) likewise
//
// Park is the blocking form of Hold that blocks nobody: the Out that
// produces the match calls the sink, on its own goroutine, with the tuple
// already held. N peers blocked in in on one template cost one call per
// tuple and no parked goroutine (DESIGN.md §6).
package space

import (
	"time"

	"tiamat/tuple"
)

// Space is a local tuple space. Implementations must be safe for
// concurrent use.
type Space interface {
	// Out stores the tuple until expiry (the zero time means no expiry)
	// and returns its storage id. Matching waiters are satisfied first.
	Out(t tuple.Tuple, expiry time.Time) (uint64, error)

	// Rdp returns a copy of a nondeterministically chosen matching tuple.
	Rdp(p tuple.Template) (tuple.Tuple, bool)

	// Inp removes and returns a nondeterministically chosen matching tuple.
	Inp(p tuple.Template) (tuple.Tuple, bool)

	// Wait blocks (via the returned Waiter) until a tuple matching p is
	// available. If a match is already present it is delivered
	// immediately; otherwise interest is registered for the next
	// matching Out. If remove is true the tuple is removed upon delivery
	// (in semantics); otherwise a copy is delivered (rd semantics). The
	// check-then-register step is atomic, so rd/in built on Wait cannot
	// miss a concurrent Out. The caller must either receive from
	// Waiter.Chan or call Waiter.Cancel.
	Wait(p tuple.Template, remove bool) Waiter

	// Hold removes a matching tuple tentatively. Accept finalises the
	// removal; Release reinstates the tuple (used when another responder
	// won the distributed take).
	Hold(p tuple.Template) (Hold, bool)

	// Park is Wait with the match delivered by a call instead of a
	// channel: the space calls sink.Deliver exactly once — unless the
	// registration is cancelled first or the space closes — holding none
	// of its locks, on the goroutine of the Out that produced the match
	// and before that Out returns, or inside Park itself when a match is
	// already present. The sink may therefore call back into the space.
	//
	// With take false the sink gets a copy (rd served for a peer). With
	// take true it gets a tentative removal (in served for a peer): a
	// resident match is held at once, otherwise the next matching Out is
	// handed to the oldest parked taker as a Hold with the entry's id and
	// expiry intact. That Out still returns the tuple's non-zero id — the
	// tuple was stored and is tentatively removed, exactly as if Hold had
	// run right behind the Out — where an Out consumed by a Wait(p, true)
	// returns 0 because nothing was ever stored. Parked takers rank
	// behind every other registration: each parked reader, channel or
	// call, still gets its copy, and a parked Wait(p, true) — a local in,
	// whose removal is final — takes the tuple ahead of any of them, whose
	// removal is only tentative. The check-then-register step is atomic,
	// as for Wait.
	Park(p tuple.Template, take bool, sink Sink) Parked

	// Remove deletes the tuple with the given storage id, reporting
	// whether it was present. Used for lease revocation.
	Remove(id uint64) bool

	// Count returns the number of live tuples.
	Count() int

	// Bytes returns the approximate storage footprint of live tuples.
	Bytes() int64

	// Snapshot returns copies of all live tuples (diagnostics, INFO).
	Snapshot() []tuple.Tuple

	// Close releases the space; pending waiters are cancelled.
	Close() error
}

// Syncer is optionally implemented by durable spaces: Sync flushes
// buffered state to stable storage. The instance calls it during a
// graceful shutdown so a persistent space under a relaxed fsync policy
// still lands everything before the process exits.
type Syncer interface {
	Sync() error
}

// Degrader is optionally implemented by spaces that can self-diagnose a
// gray failure: Degraded reports that the space is serving but slow
// (e.g. WAL fsyncs stalling on a limping disk). The instance folds this
// into the degraded state it advertises on announce frames so healthy
// requesters deprioritize the node before ever timing out on it.
type Degrader interface {
	Degraded() bool
}

// NonBlocking is optionally implemented by spaces that declare no call
// ever waits: no disk, no lock held across I/O or another caller's
// work, nothing another goroutine must do first. NeverBlocks reports
// whether that holds. The instance serves a peer's rd/rdp/in/inp on the
// goroutine that received the frame only when its space declares this;
// any other space is served from the governor's worker pool, so a slow
// store never stalls the node's receive loop (DESIGN.md §9).
type NonBlocking interface {
	NeverBlocks() bool
}

// Waiter is a registered blocking interest in a template match.
type Waiter interface {
	// Chan delivers exactly one matching tuple, then is closed. The
	// channel is closed without a value if the waiter is cancelled or
	// the space closes.
	Chan() <-chan tuple.Tuple
	// Cancel withdraws the interest and reports whether that prevented
	// the delivery, as Parked.Cancel does: false means a tuple was already
	// committed to this waiter and remains delivered on Chan.
	Cancel() bool
}

// Sink receives the one delivery of a Park registration.
type Sink interface {
	// Deliver hands over the match t. For a take registration h is the
	// tentative removal of t, which the sink must settle with Accept or
	// Release; for a copy registration h is nil.
	Deliver(t tuple.Tuple, h Hold)
}

// Parked is a Park registration.
type Parked interface {
	// Cancel withdraws the registration and reports whether that prevented
	// the delivery. True: the sink has not been and will never be called.
	// False: a match was committed to the registration first and the sink
	// is called exactly once — it may already have returned, be running,
	// or be about to run — so a hold committed before the cancel landed is
	// the sink's to settle. After the first call Cancel keeps returning
	// what that call returned.
	Cancel() bool
}

// Hold is a tentatively removed tuple awaiting accept/release.
type Hold interface {
	// Tuple returns the held tuple.
	Tuple() tuple.Tuple
	// ID returns the held entry's stable identifier within its space —
	// the same id Remove accepts — or 0 when the hold is not backed by a
	// space entry.
	ID() uint64
	// Accept finalises the removal. Idempotent; Accept after Release is
	// a no-op.
	Accept()
	// Release reinstates the tuple into the space, as the entry it was:
	// whoever holds or takes it next finds it under the same ID.
	// Idempotent; Release after Accept is a no-op.
	Release()
}
