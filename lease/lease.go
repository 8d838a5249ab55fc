// Package lease implements Tiamat's fine-grained resource management model
// (paper §2.5, §3.1.1). Every tuple-space operation is leased: before any
// work is done the application negotiates a lease with the instance's lease
// manager, which represents the effort the instance is willing to dedicate
// to the operation. Leases bound time and other resources (remote instances
// contacted, bytes stored). They are best-effort, local to the granting
// instance, non-transferable, and revocable only as a last resort. A lease
// bounds what outlives the call granting it: a probe answered on the spot
// is admitted (Manager.Admit) or only negotiated (Manager.Negotiate), a
// holder embeds its lease (Manager.GrantOffer), and a stored tuple's out
// lease is a reservation whose live state is its space entry
// (Manager.Reserve).
package lease

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tiamat/clock"
)

// OpKind identifies which of the six Linda operations a lease covers.
type OpKind uint8

// The six Linda operations (paper §2.1).
const (
	OpOut OpKind = iota + 1
	OpEval
	OpRd
	OpRdp
	OpIn
	OpInp
)

// String returns the Linda name of the operation.
func (k OpKind) String() string {
	switch k {
	case OpOut:
		return "out"
	case OpEval:
		return "eval"
	case OpRd:
		return "rd"
	case OpRdp:
		return "rdp"
	case OpIn:
		return "in"
	case OpInp:
		return "inp"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Blocking reports whether the operation blocks awaiting a match.
func (k OpKind) Blocking() bool { return k == OpRd || k == OpIn }

// Removes reports whether the operation removes its match from the space.
func (k OpKind) Removes() bool { return k == OpIn || k == OpInp }

// Terms are the negotiable budgets of a lease. A zero budget grants nothing
// on that axis; the manager clamps requested terms to its capacity.
type Terms struct {
	// Duration is the time budget. After it elapses the lease expires:
	// out-tuples become reclaimable, computations may be halted, and
	// searches stop (paper §2.5).
	Duration time.Duration
	// MaxRemotes bounds how many remote instances may be contacted while
	// carrying out the operation (a non-time expiry measure, paper §2.5).
	MaxRemotes int
	// MaxBytes bounds the storage the operation may occupy (out/eval).
	MaxBytes int64
}

// Covers reports whether t grants at least the budgets of o on every axis.
func (t Terms) Covers(o Terms) bool {
	return t.Duration >= o.Duration && t.MaxRemotes >= o.MaxRemotes && t.MaxBytes >= o.MaxBytes
}

// String renders the terms compactly.
func (t Terms) String() string {
	return fmt.Sprintf("{dur=%v remotes=%d bytes=%d}", t.Duration, t.MaxRemotes, t.MaxBytes)
}

// State is the lifecycle state of a lease.
type State uint8

// Lease lifecycle states.
const (
	StateActive State = iota + 1
	StateExpired
	StateCancelled
	StateRevoked
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateExpired:
		return "expired"
	case StateCancelled:
		return "cancelled"
	case StateRevoked:
		return "revoked"
	default:
		return "unknown"
	}
}

// Errors reported by the lease package.
var (
	// ErrRefused reports that negotiation failed: either the manager could
	// not offer anything, or the requester rejected the offer. The
	// operation must not proceed (paper §3.1.1).
	ErrRefused = errors.New("lease: refused")
	// ErrExpired reports that the lease's budget ran out.
	ErrExpired = errors.New("lease: expired")
	// ErrRevoked reports a last-resort revocation by the manager.
	ErrRevoked = errors.New("lease: revoked")
	// ErrCancelled reports that the holder cancelled the lease.
	ErrCancelled = errors.New("lease: cancelled")
	// ErrBudget reports an attempt to consume beyond a granted budget.
	ErrBudget = errors.New("lease: budget exhausted")
	// ErrClosed reports use of a closed manager.
	ErrClosed = errors.New("lease: manager closed")
	// ErrUnknownResource reports acquisition of an unregistered resource.
	ErrUnknownResource = errors.New("lease: unknown resource kind")
	// ErrResourceExhausted reports a factory at capacity.
	ErrResourceExhausted = errors.New("lease: resource exhausted")
)

// Lease is a granted operation budget. All methods are safe for concurrent
// use. A lease transitions exactly once out of StateActive.
type Lease struct {
	mgr      *Manager
	op       OpKind
	terms    Terms
	deadline time.Time // written once, by GrantOffer: read without mu
	// skew is the grantor's clock-skew guard band (Capacity.SkewBand):
	// expiry is enforced this long after the nominal deadline.
	skew time.Duration
	id   uint64
	exp  leaseExpiry

	mu          sync.Mutex
	state       State
	remotesLeft int
	bytesUsed   int64
	// onEnd is the armed end hook, taken by whoever ends the lease.
	onEnd EndHook
}

// EndHook is told that a lease has left StateActive.
type EndHook interface {
	LeaseEnded()
}

// leaseExpiry is the lease's entry on its manager's deadline queue. It is
// a field rather than an embedding so that expiring a lease stays the
// manager's business and not a method of Lease.
type leaseExpiry struct {
	clock.Deadline
	l *Lease
}

func (e *leaseExpiry) Expire() { e.l.finish(StateExpired) }

// ID returns the manager-unique lease identifier.
func (l *Lease) ID() uint64 { return l.id }

// Op returns the operation the lease covers.
func (l *Lease) Op() OpKind { return l.op }

// Terms returns the granted terms (as shrunk, if budget was returned).
func (l *Lease) Terms() Terms {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.terms
}

// Deadline returns the instant the time budget expires. It is fixed at
// grant (GrantOffer), so it is read without the lease's lock.
func (l *Lease) Deadline() time.Time { return l.deadline }

// OnEnd arms the lease's one end hook: h.LeaseEnded is called exactly
// once when the lease leaves StateActive, on the goroutine that expired,
// cancelled or revoked it and with no lock of the lease or its manager
// held — or right here, if the lease has already ended. It is how a
// holder hears of the end, with no goroutine or channel of its own:
// arming allocates nothing. A second call replaces a hook that has not
// run.
func (l *Lease) OnEnd(h EndHook) {
	l.mu.Lock()
	if l.state == StateActive {
		l.onEnd = h
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	h.LeaseEnded()
}

// State returns the current lifecycle state.
func (l *Lease) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Err returns nil while active, and otherwise the terminal condition:
// ErrExpired, ErrCancelled, or ErrRevoked.
func (l *Lease) Err() error {
	switch l.State() {
	case StateActive:
		return nil
	case StateExpired:
		return ErrExpired
	case StateCancelled:
		return ErrCancelled
	case StateRevoked:
		return ErrRevoked
	default:
		return ErrExpired
	}
}

// ConsumeRemote spends one unit of the remote-contact budget. It returns
// ErrBudget when the budget is exhausted and the lease's terminal error if
// it is no longer active.
func (l *Lease) ConsumeRemote() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != StateActive {
		return l.errLocked()
	}
	if l.remotesLeft <= 0 {
		return fmt.Errorf("remotes: %w", ErrBudget)
	}
	l.remotesLeft--
	return nil
}

// RemotesLeft reports the remaining remote-contact budget.
func (l *Lease) RemotesLeft() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.remotesLeft
}

// ConsumeBytes spends n bytes of the storage budget.
func (l *Lease) ConsumeBytes(n int64) error {
	if n < 0 {
		return fmt.Errorf("negative byte count %d", n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != StateActive {
		return l.errLocked()
	}
	if l.bytesUsed+n > l.terms.MaxBytes {
		return fmt.Errorf("bytes (%d used + %d > %d): %w", l.bytesUsed, n, l.terms.MaxBytes, ErrBudget)
	}
	l.bytesUsed += n
	return nil
}

// ShrinkBytes releases the unused portion of the byte budget back to the
// manager's shared pool. Callers invoke it once the final footprint of an
// out/eval is known, so a small tuple does not reserve a large budget for
// its whole lifetime. It returns the number of bytes reclaimed.
//
// This is the lease system's re-negotiation path, and bytes are all it
// re-negotiates: the grantor claws back unused storage without revoking,
// the paper's escalation step before last-resort revocation (§2.5). A
// lease's deadline and remote-contact budget are fixed at grant.
// Already-consumed budget is never touched — shrink narrows a promise, it
// does not break one.
func (l *Lease) ShrinkBytes() int64 {
	l.mu.Lock()
	if l.state != StateActive {
		l.mu.Unlock()
		return 0
	}
	excess := l.terms.MaxBytes - l.bytesUsed
	if excess <= 0 {
		l.mu.Unlock()
		return 0
	}
	l.terms.MaxBytes = l.bytesUsed
	l.mu.Unlock()
	l.mgr.returnBytes(excess)
	return excess
}

// BytesUsed reports the consumed storage budget.
func (l *Lease) BytesUsed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytesUsed
}

func (l *Lease) errLocked() error {
	switch l.state {
	case StateExpired:
		return ErrExpired
	case StateCancelled:
		return ErrCancelled
	case StateRevoked:
		return ErrRevoked
	default:
		return nil
	}
}

// Cancel releases the lease early. It is idempotent.
func (l *Lease) Cancel() { l.finish(StateCancelled) }

func (l *Lease) finish(s State) {
	l.mu.Lock()
	if l.state != StateActive {
		l.mu.Unlock()
		return
	}
	l.state = s
	hook := l.onEnd
	l.onEnd = nil
	l.mu.Unlock()
	l.mgr.release(l, s)
	if hook != nil {
		hook.LeaseEnded()
	}
}

// Requester negotiates with the Manager on behalf of an application (paper
// §3.1.1): it proposes terms, the manager responds with the terms it is
// willing to offer, and the requester accepts or refuses. Refusal fails the
// operation.
type Requester interface {
	// Propose returns the terms the application wants.
	Propose() Terms
	// Consider inspects the manager's offer and reports acceptance.
	Consider(offer Terms) bool
}

type funcRequester struct {
	propose  Terms
	consider func(Terms) bool
}

func (r funcRequester) Propose() Terms        { return r.propose }
func (r funcRequester) Consider(o Terms) bool { return r.consider(o) }

// Flexible requests the given terms and accepts whatever is offered. It is
// the common choice for adaptive pervasive applications.
func Flexible(want Terms) Requester {
	return funcRequester{propose: want, consider: func(Terms) bool { return true }}
}

// Exactly requests the given terms and refuses any offer that does not
// cover them in full.
func Exactly(want Terms) Requester {
	return funcRequester{propose: want, consider: func(o Terms) bool { return o.Covers(want) }}
}

// AtLeast requests want but accepts any offer covering min.
func AtLeast(min, want Terms) Requester {
	return funcRequester{propose: want, consider: func(o Terms) bool { return o.Covers(min) }}
}
