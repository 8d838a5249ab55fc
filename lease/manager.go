package lease

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"tiamat/clock"
)

// Capacity bounds what a Manager will grant. The zero value is unusable;
// use DefaultCapacity as a starting point. A Tiamat instance on a
// resource-poor device configures small capacities; a workstation larger
// ones (paper §2.5: resource-by-resource control).
type Capacity struct {
	// MaxActive bounds concurrently active leases. <=0 refuses everything.
	MaxActive int
	// MaxDuration clamps any granted time budget.
	MaxDuration time.Duration
	// MaxRemotes clamps the per-operation remote-contact budget.
	MaxRemotes int
	// MaxBytes clamps the per-operation storage budget.
	MaxBytes int64
	// MaxTotalBytes bounds the sum of storage budgets across active
	// out/eval leases; offers shrink as the pool fills.
	MaxTotalBytes int64
	// SkewBand is a clock-skew guard band on expiry enforcement
	// (T-Lease-style): the manager fires expiry only SkewBand after the
	// nominal deadline, so a reconnecting peer whose grant is marginally
	// stale by at most the expected inter-node skew is not cut off at the
	// boundary. Deadline() still reports the nominal instant — holders
	// plan against the promise, only enforcement is lenient. 0 (the
	// default) enforces exactly at the deadline.
	SkewBand time.Duration
}

// DefaultCapacity is a workstation-class configuration.
func DefaultCapacity() Capacity {
	return Capacity{
		MaxActive:     1024,
		MaxDuration:   time.Hour,
		MaxRemotes:    64,
		MaxBytes:      1 << 20,  // 1 MiB per operation
		MaxTotalBytes: 64 << 20, // 64 MiB under lease
	}
}

// ConstrainedCapacity is a PDA-class configuration used in experiments.
func ConstrainedCapacity() Capacity {
	return Capacity{
		MaxActive:     32,
		MaxDuration:   30 * time.Second,
		MaxRemotes:    4,
		MaxBytes:      32 << 10,
		MaxTotalBytes: 256 << 10,
	}
}

// Stats is a snapshot of manager activity counters. A reservation counts
// as a lease does; its end counts in Cancelled (a revoked one in Revoked
// as well).
type Stats struct {
	Active    int
	Granted   uint64
	Refused   uint64
	Expired   uint64
	Cancelled uint64
	Revoked   uint64
	BytesHeld int64
}

// ReclaimFunc revokes the reservation that ends soonest if it ends no
// later than by (any, when by is zero), reporting whether it did.
type ReclaimFunc func(by time.Time) bool

// Manager negotiates, tracks, expires, and (as a last resort) revokes
// leases, and owns the resource factories through which the instance's
// managed resources are allocated (paper §3.1.1).
type Manager struct {
	mu        sync.Mutex
	cap       Capacity
	closed    bool
	nextID    uint64
	active    map[uint64]*Lease
	bytesHeld int64
	// reserved counts the reservations (Reserve): active slots with no
	// lease object and no deadline here; reclaim revokes them.
	reserved  int
	reclaim   ReclaimFunc
	stats     Stats
	factories map[ResourceKind]*factory

	// Every lease's enforcement instant (deadline + skew band) is an entry
	// on a deadline queue, which is also the manager's clock: a grant links
	// the lease itself in and a cancel unlinks it, so neither allocates,
	// arms or stops a runtime timer — grants are the hot path, at most one
	// per remote take. Scheduled under mu; never closed here.
	expiries *clock.Queue
}

// NewManager returns a Manager with the given capacity, using clk for all
// expiry timing. A clock.Queue handed as clk is scheduled on; any other
// clock gets a queue of the manager's own.
func NewManager(cap Capacity, clk clock.Clock) *Manager {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Manager{
		cap:       cap,
		active:    make(map[uint64]*Lease),
		factories: make(map[ResourceKind]*factory),
		expiries:  clock.QueueOf(clk),
	}
}

// OnReclaim registers how Revoke reaches the reservations. Without it
// Revoke reaches leases only, whose holders hear of it by their end hook.
func (m *Manager) OnReclaim(f ReclaimFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reclaim = f
}

// Capacity returns the current capacity configuration.
func (m *Manager) Capacity() Capacity {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cap
}

// SetCapacity replaces the capacity configuration; existing leases keep
// their granted terms (adaptation applies to future grants, paper §5.3).
func (m *Manager) SetCapacity(c Capacity) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cap = c
}

// Offer computes, without granting, the terms the manager would currently
// offer for the proposal. A zero-Duration offer means refusal.
func (m *Manager) Offer(op OpKind, proposed Terms) Terms {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.offerLocked(op, proposed)
}

func (m *Manager) offerLocked(op OpKind, p Terms) Terms {
	if m.closed || len(m.active)+m.reserved >= m.cap.MaxActive {
		return Terms{}
	}
	o := Terms{Duration: p.Duration, MaxRemotes: p.MaxRemotes, MaxBytes: p.MaxBytes}
	if o.Duration <= 0 || o.Duration > m.cap.MaxDuration {
		o.Duration = m.cap.MaxDuration
	}
	if o.MaxRemotes < 0 {
		o.MaxRemotes = 0
	}
	if o.MaxRemotes > m.cap.MaxRemotes {
		o.MaxRemotes = m.cap.MaxRemotes
	}
	if o.MaxBytes < 0 {
		o.MaxBytes = 0
	}
	if o.MaxBytes > m.cap.MaxBytes {
		o.MaxBytes = m.cap.MaxBytes
	}
	if op == OpOut || op == OpEval {
		free := m.cap.MaxTotalBytes - m.bytesHeld
		if free <= 0 {
			return Terms{} // storage pool exhausted: refuse
		}
		if o.MaxBytes > free {
			o.MaxBytes = free
		}
	} else {
		o.MaxBytes = 0 // read ops hold no storage
	}
	return o
}

// Grant runs the negotiation protocol (Negotiate, then GrantOffer into a
// new lease): the requester proposes, the manager offers, the requester
// accepts or refuses. On refusal (either side) it returns ErrRefused and
// no work may be performed (paper §3.1.1).
func (m *Manager) Grant(op OpKind, r Requester) (*Lease, error) {
	offer, err := m.Negotiate(op, r)
	if err != nil {
		return nil, err
	}
	l := new(Lease)
	if err := m.GrantOffer(l, op, offer, m.expiries.Now()); err != nil {
		return nil, err
	}
	return l, nil
}

// Negotiate decides for a requester: r proposes, the manager offers, r
// considers, and the accepted offer is returned, holding nothing; work
// that needs a lease mints it (GrantOffer, Reserve).
func (m *Manager) Negotiate(op OpKind, r Requester) (Terms, error) {
	proposed := r.Propose()
	m.mu.Lock()
	offer, err := m.admitLocked(op, proposed)
	m.mu.Unlock()
	if err != nil {
		return Terms{}, err
	}
	// Consider runs without the lock: requesters are application code.
	if !r.Consider(offer) {
		m.mu.Lock()
		m.stats.Refused++
		m.mu.Unlock()
		return Terms{}, fmt.Errorf("%s: requester rejected offer %v: %w", op, offer, ErrRefused)
	}
	return offer, nil
}

// Admit decides for a grantor that takes whatever is offered (the serve
// path: its requester negotiated on its own node): the offer for want,
// holding nothing and reading no clock. Closed is ErrClosed, uncounted;
// nothing to offer is ErrRefused, counted.
func (m *Manager) Admit(op OpKind, want Terms) (Terms, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admitLocked(op, want)
}

// GrantOffer mints offer, as Negotiate or Admit decided it, into l, a zero
// Lease the caller owns (a field of the holder it bounds), and schedules
// its expiry: its deadline is offer.Duration after now, the caller's
// reading of the manager's clock, which its event reuses. An offer no
// longer covered is ErrRefused, counted, with l untouched. The manager
// refers to l until it ends: it must not be copied or granted into again.
func (m *Manager) GrantOffer(l *Lease, op OpKind, offer Terms, now time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.revalidateLocked(op, offer); err != nil {
		return err
	}
	m.nextID++
	l.mgr = m
	l.op = op
	l.terms = offer
	l.deadline = now.Add(offer.Duration)
	l.skew = m.cap.SkewBand
	l.id = m.nextID
	l.state = StateActive
	l.remotesLeft = offer.MaxRemotes
	l.exp.l = l
	m.active[l.id] = l
	m.bytesHeld += offer.MaxBytes
	m.stats.Granted++
	// Enforcement runs SkewBand behind the promise (clock-skew guard).
	m.expiries.Schedule(&l.exp, l.deadline.Add(l.skew))
	return nil
}

// Reserve mints an out's offer as a reservation of bytes, its tuple's
// size: an active slot and bytes of the pool, with no lease object and no
// deadline. The tuple's space entry is the lease's live state (paper §2.5)
// and its removal ends the reservation (Unreserve). bytes past
// offer.MaxBytes is ErrBudget; a refusal is as GrantOffer's.
func (m *Manager) Reserve(offer Terms, bytes int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.revalidateLocked(OpOut, offer); err != nil {
		return err
	}
	if bytes > offer.MaxBytes {
		return fmt.Errorf("out: bytes (%d > %d): %w", bytes, offer.MaxBytes, ErrBudget)
	}
	m.reserved++
	m.bytesHeld += bytes
	m.stats.Granted++
	return nil
}

// Adopt counts n reservations of bytes past admission: tuples a space
// opened over a replayed log already holds, or the result an admitted
// eval's lease hands its slot to.
func (m *Manager) Adopt(n int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reserved += n
	m.bytesHeld += bytes
	m.stats.Granted += uint64(n)
}

// Unreserve ends a reservation of bytes: its tuple left the space, taken,
// reclaimed, removed or revoked.
func (m *Manager) Unreserve(bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reserved--
	m.bytesHeld -= bytes
	m.stats.Cancelled++
}

// revalidateLocked re-offers for an accepted offer, which is its proposal
// clamped on every axis, so it is re-offered whole exactly when the
// proposal's would be. Holds m.mu.
func (m *Manager) revalidateLocked(op OpKind, offer Terms) error {
	if m.closed {
		return ErrClosed
	}
	if again := m.offerLocked(op, offer); again.Duration <= 0 || !again.Covers(offer) {
		m.stats.Refused++
		return fmt.Errorf("%s: offer withdrawn under contention: %w", op, ErrRefused)
	}
	return nil
}

// admitLocked is the one offer check, shared by Negotiate and Admit:
// the offer for want, ErrClosed, or a refusal it counts. Holds m.mu.
func (m *Manager) admitLocked(op OpKind, want Terms) (Terms, error) {
	if m.closed {
		return Terms{}, ErrClosed
	}
	offer := m.offerLocked(op, want)
	if offer.Duration <= 0 {
		m.stats.Refused++
		return Terms{}, fmt.Errorf("%s: manager has nothing to offer: %w", op, ErrRefused)
	}
	return offer, nil
}

// release is called exactly once per lease when it leaves StateActive.
func (m *Manager) release(l *Lease, s State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.active[l.id]; !ok {
		return
	}
	delete(m.active, l.id)
	m.bytesHeld -= l.terms.MaxBytes
	m.expiries.Cancel(&l.exp)
	switch s {
	case StateExpired:
		m.stats.Expired++
	case StateCancelled:
		m.stats.Cancelled++
	case StateRevoked:
		m.stats.Revoked++
	}
}

// returnBytes gives excess byte budget back to the shared pool.
func (m *Manager) returnBytes(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytesHeld -= n
}

// Stats returns a snapshot of activity counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Active = len(m.active) + m.reserved
	s.BytesHeld = m.bytesHeld
	return s
}

// ActiveLeases returns the active leases ordered by deadline (soonest
// first, ties by id). Used by revocation and by monitoring.
func (m *Manager) ActiveLeases() []*Lease {
	m.mu.Lock()
	ls := make([]*Lease, 0, len(m.active))
	for _, l := range m.active {
		ls = append(ls, l)
	}
	m.mu.Unlock()
	slices.SortFunc(ls, func(a, b *Lease) int {
		return cmp.Or(a.deadline.Compare(b.deadline), cmp.Compare(a.id, b.id))
	})
	return ls
}

// Shrink reclaims up to n bytes of promised-but-unconsumed storage budget
// from active leases, oldest deadline first, without terminating any of
// them. It is the re-negotiation rung of the escalation ladder (paper
// §2.5), and it re-negotiates bytes alone (ShrinkBytes): a grantor under
// pressure first narrows its outstanding storage promises, and only if
// that is not enough does it resort to Revoke. Returns the
// number of bytes actually reclaimed, which may fall short of n when the
// active set has little slack.
func (m *Manager) Shrink(n int64) int64 {
	if n <= 0 {
		return 0
	}
	var reclaimed int64
	for _, l := range m.ActiveLeases() {
		if reclaimed >= n {
			break
		}
		reclaimed += l.ShrinkBytes()
	}
	return reclaimed
}

// Revoke forcibly ends up to n active leases and reservations, soonest
// deadline first: a lease's end hook tells its holder, and a reservation's
// holder reclaims it (OnReclaim). The paper stresses this is a last resort
// "to avoid undermining the leasing system altogether" (§2.5).
func (m *Manager) Revoke(n int) int {
	if n <= 0 {
		return 0
	}
	m.mu.Lock()
	reclaim := m.reclaim
	m.mu.Unlock()
	revoked := 0
	ls := m.ActiveLeases()
	for revoked < n {
		var by time.Time // no lease left: any reservation
		if len(ls) > 0 {
			by = ls[0].Deadline()
		}
		if reclaim != nil && reclaim(by) {
			m.mu.Lock()
			m.stats.Revoked++
			m.mu.Unlock()
			revoked++
			continue
		}
		if len(ls) == 0 {
			break
		}
		l := ls[0]
		ls = ls[1:]
		l.finish(StateRevoked)
		if l.State() == StateRevoked {
			revoked++
		}
	}
	return revoked
}

// Close refuses all future grants and cancels active leases.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	ls := make([]*Lease, 0, len(m.active))
	for _, l := range m.active {
		m.expiries.Cancel(&l.exp)
		ls = append(ls, l)
	}
	m.mu.Unlock()
	for _, l := range ls {
		l.finish(StateCancelled)
	}
}

// ResourceKind names a factory-managed resource class (paper §3.1.1:
// "all resources that an instance wishes to manage (e.g., threads,
// sockets) are allocated through factory objects controlled by the lease
// manager").
type ResourceKind string

// Conventional resource kinds used by the Tiamat instance.
const (
	ResThreads ResourceKind = "threads"
	ResSockets ResourceKind = "sockets"
	ResBuffers ResourceKind = "buffers"
)

type factory struct {
	capacity int64
	inUse    int64
}

// RegisterResource declares (or resizes) a factory for the given kind.
func (m *Manager) RegisterResource(kind ResourceKind, capacity int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.factories[kind]
	if f == nil {
		f = &factory{}
		m.factories[kind] = f
	}
	f.capacity = capacity
}

// Acquire allocates n units of the resource, returning a release function.
// It fails with ErrResourceExhausted when the factory is at capacity, and
// ErrUnknownResource for unregistered kinds.
func (m *Manager) Acquire(kind ResourceKind, n int64) (release func(), err error) {
	if n <= 0 {
		return nil, fmt.Errorf("acquire %q: non-positive count %d", kind, n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	f, ok := m.factories[kind]
	if !ok {
		return nil, fmt.Errorf("acquire %q: %w", kind, ErrUnknownResource)
	}
	if f.inUse+n > f.capacity {
		return nil, fmt.Errorf("acquire %q (%d in use + %d > %d): %w",
			kind, f.inUse, n, f.capacity, ErrResourceExhausted)
	}
	f.inUse += n
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			f.inUse -= n
		})
	}, nil
}

// InUse reports current usage and capacity for the resource kind.
func (m *Manager) InUse(kind ResourceKind) (used, capacity int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.factories[kind]
	if !ok {
		return 0, 0
	}
	return f.inUse, f.capacity
}
