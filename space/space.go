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
//	rd   → Park(p, Read, sink) until a match or lease expiry
//	in   → Park(p, Take, sink) likewise; the sink accepts the hold at once
//	eval → executed by the instance; the result tuple enters via Out
//
// Hold supports Tiamat's distributed take protocol (§3.1.3): a remote in
// tentatively removes a match; the winning responder's hold is accepted and
// all others are released, reinstating their tuples. Served for a peer,
// the two destructive operations therefore map differently:
//
//	inp served for a peer → Hold
//	in  served for a peer → Hold, then Park(p, Claim, sink) until a match,
//	                        lease expiry or the peer's cancel
//	rd  served for a peer → Rdp, then Park(p, Read, sink) likewise
//
// Park is the one blocking registration, and it blocks nobody: the Out
// that produces the match calls the sink, on its own goroutine, with the
// tuple already held when the registration takes. N peers blocked in in
// on one template cost one call per tuple and no parked goroutine
// (DESIGN.md §6).
package space

import (
	"time"

	"tiamat/tuple"
)

// Space is a local tuple space. Implementations must be safe for
// concurrent use.
type Space interface {
	// Out stores the tuple until expiry (the zero time means no expiry)
	// and returns its storage id. Matching registrations are served first.
	Out(t tuple.Tuple, expiry time.Time) (uint64, error)

	// Rdp returns a copy of a nondeterministically chosen matching tuple.
	Rdp(p tuple.Template) (tuple.Tuple, bool)

	// Inp removes and returns a nondeterministically chosen matching tuple.
	Inp(p tuple.Template) (tuple.Tuple, bool)

	// Hold removes a matching tuple tentatively. Accept finalises the
	// removal; Release reinstates the tuple (used when another responder
	// won the distributed take).
	Hold(p tuple.Template) (Hold, bool)

	// Park registers interest in a tuple matching p. The space calls
	// sink.Deliver exactly once — unless the registration is cancelled
	// first or the space closes — holding none of its locks, on the
	// goroutine of the Out that produced the match and before that Out
	// returns, or inside Park itself when a match is already present. The
	// sink may therefore call back into the space. The check-then-register
	// step is atomic, so rd/in built on Park cannot miss a concurrent Out.
	//
	// A Read gets a copy. A Take or a Claim gets a tentative removal: a
	// resident match is held at once, otherwise a matching Out hands the
	// tuple over as a Hold with the entry's id and expiry intact, and that
	// Out still returns the tuple's id — the tuple was stored and is
	// tentatively removed, exactly as if Hold had run right behind the
	// Out. An Out gives every matching Read and Take its due in
	// registration order until a Take has the tuple; only an Out that no
	// Take took hands it to the oldest matching Claim. A Take — a local in,
	// whose holder accepts at once — thus outranks every Claim, whose
	// removal stays tentative for a round trip. An Out calls its readers'
	// sinks before its taker's.
	Park(p tuple.Template, kind Kind, sink Sink) Parked

	// Remove deletes the tuple with the given storage id, reporting
	// whether it was present. Used for lease revocation.
	Remove(id uint64) bool

	// OnRemove sets the removal report: f is called once with the
	// storage id of every final removal — a take, an accepted hold,
	// Remove, the expiry reclaim. The instance ends a tuple's out lease
	// here (paper §2.5). f may run inside the space's own critical
	// section (persist holds its log lock for reading across an accept),
	// so it must not call back into the space. Set it before the space is
	// shared.
	OnRemove(f func(id uint64))

	// Count returns the number of live tuples.
	Count() int

	// Bytes returns the approximate storage footprint of live tuples.
	Bytes() int64

	// Snapshot returns copies of all live tuples (diagnostics, INFO).
	Snapshot() []tuple.Tuple

	// Close releases the space; parked registrations are cancelled and
	// no sink is called.
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
// whether that holds. The instance serves every peer frame it admits
// (rd, rdp, in, inp, out, eval) on its receive loop when its space
// declares this, and starts no serve worker; any other space is served
// from the governor's worker pool, so a slow store never stalls the
// loop (DESIGN.md §9). The declaration is a contract: a declaring space
// whose call parks stops the node's receive loop, settlement traffic
// included, until it returns.
type NonBlocking interface {
	NeverBlocks() bool
}

// Kind is what a Park registration is owed.
type Kind uint8

// Registration kinds.
const (
	// Read is owed a copy (rd, local or served for a peer).
	Read Kind = iota
	// Take is owed a removal its holder makes final at once (a local in).
	Take
	// Claim is owed a removal that stays tentative until the distributed
	// take settles it (in served for a peer).
	Claim
)

// Sink receives the one delivery of a Park registration.
type Sink interface {
	// Deliver hands over the match t. For a Take or a Claim h is the
	// tentative removal of t, which the sink must settle with Accept or
	// Release; for a Read h is nil. A durable space that cannot log a
	// Take's removal withdraws the Take instead, as Inp reports no match:
	// h is nil, t is the zero tuple, and the match is back in the space.
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
	// Release reinstates the tuple into the space under the same ID, for
	// whoever holds or takes it next through a handle of its own: this one
	// stays settled. Idempotent; Release after Accept is a no-op.
	Release()
}
