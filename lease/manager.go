package lease

import (
	"fmt"
	"sort"
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

// Stats is a snapshot of manager activity counters.
type Stats struct {
	Active    int
	Granted   uint64
	Refused   uint64
	Expired   uint64
	Cancelled uint64
	Revoked   uint64
	BytesHeld int64
}

// RevokeFunc observes a last-resort revocation so the holder can unwind
// (e.g. the store drops the tuple, a search aborts).
type RevokeFunc func(*Lease)

// Manager negotiates, tracks, expires, and (as a last resort) revokes
// leases, and owns the resource factories through which the instance's
// managed resources are allocated (paper §3.1.1).
type Manager struct {
	clk clock.Clock

	mu        sync.Mutex
	cap       Capacity
	closed    bool
	nextID    uint64
	active    map[uint64]*Lease
	bytesHeld int64
	onRevoke  RevokeFunc
	stats     Stats
	factories map[ResourceKind]*factory

	// Every lease's enforcement instant (deadline + skew band) is an entry
	// on one deadline queue: a grant links the lease itself in and a cancel
	// unlinks it, so neither allocates, arms or stops a runtime timer —
	// grants are the hot path, two per remote take. Scheduled under mu.
	expiries *clock.Queue
}

// NewManager returns a Manager with the given capacity, using clk for all
// expiry timing.
func NewManager(cap Capacity, clk clock.Clock) *Manager {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Manager{
		clk:       clk,
		cap:       cap,
		active:    make(map[uint64]*Lease),
		factories: make(map[ResourceKind]*factory),
		expiries:  clock.NewQueue(clk),
	}
}

// OnRevoke registers the revocation observer. It must be set before leases
// are granted.
func (m *Manager) OnRevoke(f RevokeFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onRevoke = f
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
	if m.closed || len(m.active) >= m.cap.MaxActive {
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

// Grant runs the negotiation protocol: the requester proposes, the manager
// offers, the requester accepts or refuses. On refusal (either side) it
// returns ErrRefused and no work may be performed (paper §3.1.1).
func (m *Manager) Grant(op OpKind, r Requester) (*Lease, error) {
	proposed := r.Propose()
	m.mu.Lock()
	offer, err := m.admitLocked(op, proposed)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}

	// Consider runs without the lock: requesters are application code.
	if !r.Consider(offer) {
		m.mu.Lock()
		m.stats.Refused++
		m.mu.Unlock()
		return nil, fmt.Errorf("%s: requester rejected offer %v: %w", op, offer, ErrRefused)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	// Re-validate under the lock; conditions may have changed since the
	// offer was computed.
	offer2 := m.offerLocked(op, proposed)
	if offer2.Duration <= 0 || !offer2.Covers(offer) {
		m.stats.Refused++
		return nil, fmt.Errorf("%s: offer withdrawn under contention: %w", op, ErrRefused)
	}
	return m.grantLocked(nil, op, offer), nil
}

// GrantTerms is the negotiation fast path for grantors that accept
// whatever the manager offers (the serve path grants on behalf of remote
// requesters whose negotiation already happened on their own node). It is
// equivalent to Grant(op, Flexible(want)) but runs in one lock round and
// allocates nothing beyond the lease itself.
func (m *Manager) GrantTerms(op OpKind, want Terms) (*Lease, error) {
	return m.grantTerms(nil, op, want)
}

// GrantInto is GrantTerms into l, a zero Lease the caller owns (a field of
// the holder it bounds), so the grant allocates nothing. The manager refers
// to l until it ends: it must not be copied or granted into again.
func (m *Manager) GrantInto(l *Lease, op OpKind, want Terms) error {
	_, err := m.grantTerms(l, op, want)
	return err
}

func (m *Manager) grantTerms(l *Lease, op OpKind, want Terms) (*Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	offer, err := m.admitLocked(op, want)
	if err != nil {
		return nil, err
	}
	return m.grantLocked(l, op, offer), nil
}

// Admit is GrantTerms's verdict for work answered before it returns: no
// lease is left to bound it, so admitting makes no object, reads no clock.
func (m *Manager) Admit(op OpKind, want Terms) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.admitLocked(op, want)
	return err
}

// admitLocked is the one offer check, shared by every grant and Admit:
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

// grantLocked, the one mint path, grants an accepted offer into l, or a
// new lease when l is nil, and schedules its expiry. Caller holds m.mu.
func (m *Manager) grantLocked(l *Lease, op OpKind, offer Terms) *Lease {
	if l == nil {
		l = new(Lease)
	}
	m.nextID++
	l.mgr = m
	l.op = op
	l.terms = offer
	l.deadline = m.clk.Now().Add(offer.Duration)
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
	return l
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
	s.Active = len(m.active)
	s.BytesHeld = m.bytesHeld
	return s
}

// ActiveLeases returns the active leases ordered by deadline (soonest
// first). Used by revocation and by monitoring. Deadlines are snapshotted
// under each lease's lock — ShrinkDuration may move them concurrently.
func (m *Manager) ActiveLeases() []*Lease {
	m.mu.Lock()
	ls := make([]*Lease, 0, len(m.active))
	for _, l := range m.active {
		ls = append(ls, l)
	}
	m.mu.Unlock()
	deadlines := make([]time.Time, len(ls))
	for i, l := range ls {
		deadlines[i] = l.Deadline()
	}
	sort.Sort(&byDeadline{ls: ls, at: deadlines})
	return ls
}

// byDeadline sorts leases by a snapshotted deadline, ties by id.
type byDeadline struct {
	ls []*Lease
	at []time.Time
}

func (s *byDeadline) Len() int { return len(s.ls) }
func (s *byDeadline) Less(i, j int) bool {
	if s.at[i].Equal(s.at[j]) {
		return s.ls[i].id < s.ls[j].id
	}
	return s.at[i].Before(s.at[j])
}
func (s *byDeadline) Swap(i, j int) {
	s.ls[i], s.ls[j] = s.ls[j], s.ls[i]
	s.at[i], s.at[j] = s.at[j], s.at[i]
}

// Shrink reclaims up to n bytes of promised-but-unconsumed storage budget
// from active leases, oldest deadline first, without terminating any of
// them. It is the re-negotiation rung of the escalation ladder (paper
// §2.5): a grantor under pressure first narrows its outstanding promises,
// and only if that is not enough does it resort to Revoke. Returns the
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

// Revoke forcibly terminates up to n active leases, oldest deadline first,
// notifying the revocation observer. The paper stresses this is a last
// resort "to avoid undermining the leasing system altogether" (§2.5); it is
// exercised only under severe resource pressure.
func (m *Manager) Revoke(n int) int {
	if n <= 0 {
		return 0
	}
	m.mu.Lock()
	cb := m.onRevoke
	m.mu.Unlock()
	revoked := 0
	for _, l := range m.ActiveLeases() {
		if revoked >= n {
			break
		}
		l.finish(StateRevoked)
		if l.State() == StateRevoked {
			revoked++
			if cb != nil {
				cb(l)
			}
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
	m.expiries.Close()
	ls := make([]*Lease, 0, len(m.active))
	for _, l := range m.active {
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
