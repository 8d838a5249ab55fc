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
//	in  served for a peer → Hold, then WaitHold(p) until a match, lease
//	                        expiry or the peer's cancel
//
// WaitHold is the blocking form of Hold: one Out wakes exactly one parked
// taker and hands it the tuple already held, so N peers blocked in in on
// one template cost one wake-up per tuple, not N (DESIGN.md §6).
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

	// WaitHold is Wait for a tentative removal: if a match is present it
	// is held at once, otherwise the next matching Out is handed to the
	// oldest registered taker as a Hold with the entry's id and expiry
	// intact. That Out still returns the tuple's non-zero id — the tuple
	// was stored and is tentatively removed, exactly as if Hold had run
	// right behind the Out — where an Out consumed by a Wait(p, true)
	// returns 0 because nothing was ever stored. Hold-waiters rank
	// behind every other waiter: each parked reader still gets its copy,
	// and a parked Wait(p, true) — a local in, whose removal is final —
	// takes the tuple ahead of any hold-waiter, whose removal is only
	// tentative. The check-then-register step is atomic, as for Wait.
	WaitHold(p tuple.Template) HoldWaiter

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

// Waiter is a registered blocking interest in a template match.
type Waiter interface {
	// Chan delivers exactly one matching tuple, then is closed. The
	// channel is closed without a value if the waiter is cancelled or
	// the space closes.
	Chan() <-chan tuple.Tuple
	// Cancel withdraws the interest. If a tuple was already committed to
	// this waiter it remains delivered on Chan. Cancel is idempotent.
	Cancel()
}

// HoldWaiter is a registered blocking interest in holding a match.
type HoldWaiter interface {
	// Chan delivers exactly one Hold, then is closed. The channel is
	// closed without a value if the waiter is cancelled or the space
	// closes.
	Chan() <-chan Hold
	// Cancel withdraws the interest. A hold already committed to this
	// waiter survives Cancel: it remains on Chan and its tuple stays out
	// of the space until the caller settles it. A caller that gives up
	// must therefore Cancel, then receive from Chan, and Release the hold
	// if one arrives; after Cancel that receive never blocks for longer
	// than a delivery already under way. Cancel is idempotent.
	Cancel()
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
	// Release reinstates the tuple into the space. Idempotent; Release
	// after Accept is a no-op.
	Release()
}

// Abandon gives up on w without losing a tuple: it cancels the interest
// and releases a hold that was committed before the cancel landed.
func Abandon(w HoldWaiter) {
	w.Cancel()
	if h, ok := <-w.Chan(); ok {
		h.Release()
	}
}
