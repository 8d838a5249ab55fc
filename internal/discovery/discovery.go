// Package discovery implements the communications manager's visibility
// bookkeeping (paper §3.1.3): the cached responder list that makes
// repeated operations cheap. The policy is exactly the paper's:
//
//   - operation propagation always starts from the top of the list;
//   - instances that fail to respond are removed;
//   - instances responding to a multicast are appended at the bottom
//     (if not already present);
//   - consequently, consistently visible instances migrate toward the
//     top by attrition and are contacted first.
//
// One refinement sharpens the migration: the list is ranked by each
// responder's recent share of satisfied operations. Every found reply
// (Promote) decays every entry's share by 7/8 and adds 1/8 to the
// finder's, and the finder moves ahead of every entry with a strictly
// lower share; not-found acknowledgements only append. Arrival order says
// nothing about usefulness — an empty peer can answer faster than the
// holder — so ranking by satisfaction is what keeps repeated lookups at a
// couple of unicasts (E8). Ranking by share rather than moving the last
// finder to the top is the frequency-count rule of self-organizing lists
// (Rivest, 1976): when several peers hold tuples in steady proportions,
// an occasional find at a minor holder no longer puts it ahead of the
// major one. Ties keep their order, so entries that never satisfied an
// operation stay in the paper's append-at-bottom attrition order, a lone
// holder reaches the top on its first find, and a holder whose tuples
// moved elsewhere for good is overtaken on the new holder's sixth find.
//
// On top of the paper's hard evict-on-unreachable rule, each entry
// carries a health score: consecutive soft failures (timeouts after
// retries) raise suspicion, and a suspected responder is temporarily
// skipped by Snapshot — a circuit breaker for flapping nodes. Suspicion
// decays: after a cooldown the entry becomes eligible again (half-open),
// and a single further failure re-suspends it with a doubled cooldown,
// capped. Any successful response fully restores the entry's health.
// The list order itself never changes on suspicion, preserving the
// paper's top-down / append-at-bottom structure.
//
// A third health dimension covers gray failures (DESIGN.md §11): peers
// that answer — so suspicion never fires — but orders of magnitude
// slower than their neighbors. Each entry keeps an EWMA of observed
// reply latency plus mean deviation; an entry sustaining at least
// DemoteFactor× the list's median EWMA is *demoted*, as is one that
// accumulates hedge slow-strikes or self-reports degradation on its
// announce frames. Demotion is deliberately weaker than suspicion: a
// demoted peer still serves (Snapshot keeps it, moved to the back) and
// a found reply does not raise its rank. Demotion lifts when
// its latency returns under the recovery threshold or the cooldown
// lapses, whichever comes first.
package discovery

import (
	"slices"
	"sort"
	"sync"
	"time"

	"tiamat/clock"
	"tiamat/trace"
	"tiamat/wire"
)

// Health policy defaults.
const (
	// DefaultSuspectThreshold is how many consecutive soft failures put
	// an entry under suspicion.
	DefaultSuspectThreshold = 3
	// DefaultSuspectCooldown is the first suspension length; it doubles
	// on each re-suspension up to DefaultSuspectMax.
	DefaultSuspectCooldown = 2 * time.Second
	// DefaultSuspectMax caps the doubling cooldown.
	DefaultSuspectMax = 30 * time.Second

	// DefaultDemoteFactor demotes an entry whose latency EWMA reaches
	// this multiple of the list median; recovery needs it back under
	// half the multiple (hysteresis, so the boundary doesn't flap).
	DefaultDemoteFactor = 4.0
	// DefaultDemoteMinSamples is how many latency samples an entry needs
	// before it participates in outlier detection, on either side.
	DefaultDemoteMinSamples = 3
	// DefaultSlowStrikeLimit is how many hedge slow-strikes demote an
	// entry even before its EWMA crosses the outlier line (hedge losers'
	// late replies are never sampled, so strikes are the signal there).
	DefaultSlowStrikeLimit = 3
	// DefaultDemoteCooldown is the first demotion length; it doubles on
	// re-demotion up to DefaultDemoteMax.
	DefaultDemoteCooldown = 2 * time.Second
	// DefaultDemoteMax caps the doubling demotion cooldown.
	DefaultDemoteMax = 30 * time.Second
	// DefaultDegradedTTL bounds how long a self-reported degraded flag
	// sticks without a refreshing announce.
	DefaultDegradedTTL = 10 * time.Second

	// demoteMedianFloor keeps the outlier line meaningful on very fast
	// networks: the demotion threshold is DemoteFactor × max(median,
	// this floor), so sub-millisecond jitter alone cannot demote.
	demoteMedianFloor = 500 * time.Microsecond

	// ewmaShift and devShift are the smoothing constants (RFC 6298
	// shape): srtt += (s-srtt)/8, dev += (|s-srtt|-dev)/4.
	ewmaShift = 3
	devShift  = 2

	// shareDecay is the weight of one found reply in an entry's share:
	// each Promote moves the finder's share 1/8 of the way to 1 and every
	// other share 1/8 of the way to 0, so a share is an EWMA of "this
	// entry satisfied the operation" over about the last eight finds.
	shareDecay = 1.0 / 8
)

// entry is one cached responder plus its health state.
type entry struct {
	addr         wire.Addr
	fails        int           // consecutive soft failures
	cooldown     time.Duration // next suspension length
	suspectUntil time.Time     // zero when not suspected

	// Gray-failure state: latency EWMA + mean deviation, demotion
	// bookkeeping, hedge slow-strikes, and self-reported degradation.
	ewma           time.Duration
	ewmaDev        time.Duration
	samples        int
	slowStrikes    int
	demotedUntil   time.Time     // zero when not demoted
	demoteCooldown time.Duration // next demotion length
	degradedUntil  time.Time     // self-reported degradation TTL

	// announced is set by the entry's first announce at or above the wire
	// floor (ObserveAnnounce).
	announced bool

	// share is the entry's recent share of found replies (Promote): the
	// list is ordered by it, highest first, ties in arrival order.
	share float64
}

// EventKind classifies a visibility event.
type EventKind uint8

// Visibility event kinds.
const (
	// EventJoin reports an address entering the responder list: the
	// instance became visible (or visible again).
	EventJoin EventKind = iota + 1
	// EventLeave reports an address leaving the responder list, whether
	// by eviction, graceful departure, attrition, or Clear.
	EventLeave
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	default:
		return "unknown"
	}
}

// Event is one visibility transition observed by the responder list. The
// paper's model (§2.2) makes the logical space track *current*
// visibility; the event stream is how an operation in flight (wait
// re-arming) reacts to the world changing mid-operation instead of working
// from a start-of-op snapshot.
type Event struct {
	Kind EventKind
	Addr wire.Addr
	// Epoch is the peer's monotonic visibility epoch: it increments on
	// every join, so a subscriber can tell a stale leave (epoch < the
	// join it already acted on) from a fresh one, and can recognise a
	// rejoin of the same address as a new life of the peer.
	Epoch uint64
}

// subBuf is the per-subscriber event buffer. Events are best-effort: a
// subscriber that falls this far behind loses events (counted), and the
// machinery above (retries, rediscovery multicasts) covers the gap.
const subBuf = 64

// ResponderList is the ordered cache of known-visible instances. It is
// safe for concurrent use.
type ResponderList struct {
	mu    sync.Mutex
	addrs []*entry
	index map[wire.Addr]*entry
	ctr   counters
	clk   clock.Clock
	max   int

	threshold   int
	cooldown    time.Duration
	maxCooldown time.Duration

	// Latency/demotion policy (gray failures).
	demoteFactor   float64
	minSamples     int
	strikeLimit    int
	demoteCooldown time.Duration
	demoteMax      time.Duration
	degradedTTL    time.Duration
	// ewmaScratch is the outlier check's sort buffer: the check runs on
	// every latency sample, under mu, and must not allocate there.
	ewmaScratch []time.Duration

	// Visibility event stream state: per-address join epochs (kept after
	// removal so a rejoin gets the next epoch), subscriber channels, and
	// the lifetime join/leave tallies Revision() is built on (monitoring
	// reads disc.vis_joins/disc.vis_leaves from the registry).
	epochs map[wire.Addr]uint64
	subs   map[*Subscription]struct{}
	joins  uint64
	leaves uint64
}

// Option configures a ResponderList.
type Option func(*ResponderList)

// WithClock sets the time source used for suspicion decay (default:
// wall clock).
func WithClock(clk clock.Clock) Option {
	return func(l *ResponderList) { l.clk = clk }
}

// WithHealthPolicy overrides the suspicion thresholds. threshold <= 0
// disables suspicion entirely.
func WithHealthPolicy(threshold int, cooldown, maxCooldown time.Duration) Option {
	return func(l *ResponderList) {
		l.threshold = threshold
		l.cooldown = cooldown
		l.maxCooldown = maxCooldown
	}
}

// WithLatencyPolicy overrides the latency-outlier demotion policy.
// factor <= 0 disables latency-based demotion (slow-strikes and
// self-reported degradation still demote).
func WithLatencyPolicy(factor float64, minSamples, strikeLimit int, cooldown, maxCooldown time.Duration) Option {
	return func(l *ResponderList) {
		l.demoteFactor = factor
		if minSamples > 0 {
			l.minSamples = minSamples
		}
		if strikeLimit > 0 {
			l.strikeLimit = strikeLimit
		}
		if cooldown > 0 {
			l.demoteCooldown = cooldown
		}
		if maxCooldown > 0 {
			l.demoteMax = maxCooldown
		}
	}
}

// counters are the list's counter handles (trace.Metrics.Counter).
type counters struct {
	belowFloor     *trace.Counter
	demoteRestores *trace.Counter
	demotions      *trace.Counter
	goodbyes       *trace.Counter
	listEvictions  *trace.Counter
	peerDegraded   *trace.Counter
	promoteHolds   *trace.Counter
	slowStrikes    *trace.Counter
	suspectSkips   *trace.Counter
	suspicions     *trace.Counter
	visEventDrops  *trace.Counter
	visJoins       *trace.Counter
	visLeaves      *trace.Counter
}

func newCounters(m *trace.Metrics) counters {
	return counters{
		belowFloor:     m.Counter(trace.CtrBelowFloor),
		demoteRestores: m.Counter(trace.CtrDemoteRestores),
		demotions:      m.Counter(trace.CtrDemotions),
		goodbyes:       m.Counter(trace.CtrGoodbyes),
		listEvictions:  m.Counter(trace.CtrListEvictions),
		peerDegraded:   m.Counter(trace.CtrPeerDegraded),
		promoteHolds:   m.Counter(trace.CtrPromoteHolds),
		slowStrikes:    m.Counter(trace.CtrSlowStrikes),
		suspectSkips:   m.Counter(trace.CtrSuspectSkips),
		suspicions:     m.Counter(trace.CtrSuspicions),
		visEventDrops:  m.Counter(trace.CtrVisEventDrops),
		visJoins:       m.Counter(trace.CtrVisJoins),
		visLeaves:      m.Counter(trace.CtrVisLeaves),
	}
}

// NewResponderList returns an empty list. max bounds the number of cached
// responders (0 means unbounded); met may be nil.
func NewResponderList(max int, met *trace.Metrics, opts ...Option) *ResponderList {
	if met == nil {
		met = &trace.Metrics{}
	}
	l := &ResponderList{
		index:          make(map[wire.Addr]*entry),
		ctr:            newCounters(met),
		clk:            clock.Real{},
		max:            max,
		threshold:      DefaultSuspectThreshold,
		cooldown:       DefaultSuspectCooldown,
		maxCooldown:    DefaultSuspectMax,
		demoteFactor:   DefaultDemoteFactor,
		minSamples:     DefaultDemoteMinSamples,
		strikeLimit:    DefaultSlowStrikeLimit,
		demoteCooldown: DefaultDemoteCooldown,
		demoteMax:      DefaultDemoteMax,
		degradedTTL:    DefaultDegradedTTL,
		epochs:         make(map[wire.Addr]uint64),
		subs:           make(map[*Subscription]struct{}),
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Subscription is a reusable receiver of a list's visibility events: its
// owner (a pooled operation state) makes it once and
// attaches it for as long as it wants to hear, so a blocking operation
// pays for no channel of its own.
type Subscription struct {
	ch chan Event
}

// NewSubscription returns a detached subscription.
func NewSubscription() *Subscription {
	return &Subscription{ch: make(chan Event, subBuf)}
}

// Events is where an attached subscription's events arrive. Delivery is
// best-effort and non-blocking: a subscriber that falls behind by more
// than the buffer loses events (counted under disc.vis_event_drops). The
// channel is never closed; a detached subscription simply stops
// receiving.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Attach starts delivering the list's events to s, first discarding any
// left unread from an earlier attachment: they are some other wait's
// news.
func (l *ResponderList) Attach(s *Subscription) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(s.ch) > 0 {
		<-s.ch
	}
	l.subs[s] = struct{}{}
}

// Detach stops delivery to s; no event is sent to it after Detach returns.
func (l *ResponderList) Detach(s *Subscription) {
	l.mu.Lock()
	delete(l.subs, s)
	l.mu.Unlock()
}

// Epoch returns addr's current visibility epoch: 0 if it has never
// joined, otherwise the epoch assigned at its most recent join.
func (l *ResponderList) Epoch(addr wire.Addr) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epochs[addr]
}

// Revision returns a monotonic membership revision: it advances on every
// join and leave. Consumers that derive state from the membership set —
// the replica placement ring (DESIGN.md §13) rebuilds from Members() —
// use it as a cheap change detector, and the Subscription event stream as
// the push-side signal that replica ranks shifted.
func (l *ResponderList) Revision() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.joins + l.leaves
}

// Members returns the current membership in sorted order: every known
// peer, including suspected and demoted entries (a slow or briefly
// unreachable peer still holds its replicas — health affects contact
// order, not placement). Sorting makes the snapshot canonical, so two
// nodes holding the same set derive identical replica rankings from it.
func (l *ResponderList) Members() []wire.Addr {
	out := l.All()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// joinLocked assigns addr its next epoch and emits a join event. Caller
// holds l.mu and has just inserted the entry.
func (l *ResponderList) joinLocked(addr wire.Addr) {
	l.epochs[addr]++
	l.joins++
	l.ctr.visJoins.Inc()
	l.emitLocked(Event{Kind: EventJoin, Addr: addr, Epoch: l.epochs[addr]})
}

// leaveLocked emits a leave event for addr at its current epoch. Caller
// holds l.mu and has just removed the entry.
func (l *ResponderList) leaveLocked(addr wire.Addr) {
	l.leaves++
	l.ctr.visLeaves.Inc()
	l.emitLocked(Event{Kind: EventLeave, Addr: addr, Epoch: l.epochs[addr]})
}

// emitLocked fans an event out to every subscriber without blocking.
func (l *ResponderList) emitLocked(ev Event) {
	for s := range l.subs {
		select {
		case s.ch <- ev:
		default:
			l.ctr.visEventDrops.Inc()
		}
	}
}

// Snapshot returns the current contact order, top first, skipping
// responders under active suspicion. Demoted and self-degraded
// responders stay in the snapshot — they still serve — but are moved to
// the back so they are no longer anyone's first contact.
func (l *ResponderList) Snapshot() []wire.Addr {
	return l.SnapshotAppend(nil)
}

// SnapshotAppend appends the current contact order to dst and returns
// the extended slice, with the same skip/demote policy as Snapshot.
func (l *ResponderList) SnapshotAppend(dst []wire.Addr) []wire.Addr {
	return l.SnapshotAt(dst, l.clk.Now())
}

// SnapshotAt is SnapshotAppend with suspicion and demotion judged at now,
// a reading of the list's clock that the caller's event already took. The
// hot propagation path passes its walk's start reading and a reused
// per-operation buffer, so an op neither reads the clock nor allocates
// for its snapshot.
func (l *ResponderList) SnapshotAt(dst []wire.Addr, now time.Time) []wire.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := dst
	var demoted []wire.Addr
	for _, e := range l.addrs {
		if l.suspectedLocked(e, now) {
			l.ctr.suspectSkips.Inc()
			continue
		}
		if l.demotedLocked(e, now) {
			demoted = append(demoted, e.addr)
			continue
		}
		out = append(out, e.addr)
	}
	return append(out, demoted...)
}

// All returns the full contact order including suspected entries, for
// monitoring.
func (l *ResponderList) All() []wire.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.allLocked()
}

func (l *ResponderList) allLocked() []wire.Addr {
	out := make([]wire.Addr, len(l.addrs))
	for i, e := range l.addrs {
		out[i] = e.addr
	}
	return out
}

// suspectedLocked reports whether e is under active suspicion at now.
func (l *ResponderList) suspectedLocked(e *entry, now time.Time) bool {
	return !e.suspectUntil.IsZero() && now.Before(e.suspectUntil)
}

// Suspected reports whether addr is currently suspected.
func (l *ResponderList) Suspected(addr wire.Addr) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.index[addr]
	return ok && l.suspectedLocked(e, l.clk.Now())
}

// demotedLocked reports whether e is demoted at now, by outlier latency,
// slow-strikes, or an unexpired self-reported degradation.
func (l *ResponderList) demotedLocked(e *entry, now time.Time) bool {
	if !e.demotedUntil.IsZero() && now.Before(e.demotedUntil) {
		return true
	}
	return !e.degradedUntil.IsZero() && now.Before(e.degradedUntil)
}

// Demoted reports whether addr is currently demoted (including by
// self-reported degradation).
func (l *ResponderList) Demoted(addr wire.Addr) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.index[addr]
	return ok && l.demotedLocked(e, l.clk.Now())
}

// Latency returns addr's smoothed reply latency and sample count (zero
// values if the entry is unknown or unsampled).
func (l *ResponderList) Latency(addr wire.Addr) (ewma time.Duration, samples int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.index[addr]; e != nil {
		return e.ewma, e.samples
	}
	return 0, 0
}

// ObserveLatency feeds one reply-latency sample for addr into its EWMA
// and runs the relative-outlier check: an entry sustaining at least
// demoteFactor× the median EWMA of its peers is demoted; a demoted
// entry back under half that line is restored early.
func (l *ResponderList) ObserveLatency(addr wire.Addr, d time.Duration) {
	if d <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[addr]
	if e == nil {
		return
	}
	if e.samples == 0 {
		e.ewma = d
		e.ewmaDev = d / 2
	} else {
		dev := d - e.ewma
		if dev < 0 {
			dev = -dev
		}
		e.ewmaDev += (dev - e.ewmaDev) >> devShift
		e.ewma += (d - e.ewma) >> ewmaShift
	}
	e.samples++
	l.outlierCheckLocked(e)
}

// outlierCheckLocked demotes or restores e based on its EWMA relative
// to the median of sampled peers. Caller holds l.mu.
func (l *ResponderList) outlierCheckLocked(e *entry) {
	if l.demoteFactor <= 0 || e.samples < l.minSamples {
		return
	}
	// Lower median across sampled entries (including e): with two
	// sampled entries the baseline is the faster one, so a single slow
	// peer in a small cluster is still an outlier against it.
	ewmas := l.ewmaScratch[:0]
	for _, x := range l.addrs {
		if x.samples >= l.minSamples {
			ewmas = append(ewmas, x.ewma)
		}
	}
	l.ewmaScratch = ewmas
	if len(ewmas) < 2 {
		return // no peer baseline to be relative to
	}
	slices.Sort(ewmas)
	median := ewmas[(len(ewmas)-1)/2]
	if median < demoteMedianFloor {
		median = demoteMedianFloor
	}
	now := l.clk.Now()
	demoted := !e.demotedUntil.IsZero() && now.Before(e.demotedUntil)
	switch {
	case float64(e.ewma) >= l.demoteFactor*float64(median):
		l.demoteLocked(e, now)
	case demoted && float64(e.ewma) < l.demoteFactor/2*float64(median):
		// Hysteresis: recovery requires clearing half the demotion line.
		e.demotedUntil = time.Time{}
		e.demoteCooldown = l.demoteCooldown
		e.slowStrikes = 0
		l.ctr.demoteRestores.Inc()
	}
}

// demoteLocked demotes e from now with its current cooldown, then
// doubles the cooldown up to the cap (mirroring the suspicion breaker's
// half-open pattern: if the peer is still slow when the demotion lapses,
// the next sample re-demotes it for twice as long). While a demotion is
// already active, further evidence changes nothing — the cooldown is the
// decay. Caller holds l.mu.
func (l *ResponderList) demoteLocked(e *entry, now time.Time) {
	if !e.demotedUntil.IsZero() && now.Before(e.demotedUntil) {
		return
	}
	if e.demoteCooldown <= 0 {
		e.demoteCooldown = l.demoteCooldown
	}
	e.demotedUntil = now.Add(e.demoteCooldown)
	e.demoteCooldown *= 2
	if e.demoteCooldown > l.demoteMax {
		e.demoteCooldown = l.demoteMax
	}
	e.slowStrikes = 0
	l.ctr.demotions.Inc()
}

// Slow records a hedge slow-strike against addr: its reply to a blocking
// op outlived the hedge delay and a hedge had to fire. Strikes matter
// because hedge losers' late replies never produce latency samples — at
// the strike limit the entry is demoted without waiting for its EWMA to
// cross the outlier line.
func (l *ResponderList) Slow(addr wire.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[addr]
	if e == nil {
		return
	}
	l.ctr.slowStrikes.Inc()
	e.slowStrikes++
	if l.strikeLimit > 0 && e.slowStrikes >= l.strikeLimit {
		l.demoteLocked(e, l.clk.Now())
	}
}

// ObserveDegraded records a peer's self-reported degradation bit from an
// announce frame. A degraded report sticks for the degraded TTL (so one
// announce is enough to deprioritize the peer) and is refreshed by each
// further report; a healthy report clears it immediately.
func (l *ResponderList) ObserveDegraded(addr wire.Addr, degraded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[addr]
	if e == nil {
		return
	}
	l.observeDegradedLocked(e, degraded)
}

// observeDegradedLocked applies an announce's degradation self-report to
// e. Caller holds l.mu.
func (l *ResponderList) observeDegradedLocked(e *entry, degraded bool) {
	now := l.clk.Now()
	if !degraded {
		e.degradedUntil = time.Time{}
		return
	}
	if e.degradedUntil.IsZero() || !now.Before(e.degradedUntil) {
		l.ctr.peerDegraded.Inc()
	}
	e.degradedUntil = now.Add(l.degradedTTL)
}

// ObserveAnnounce records an announce from addr — presence and
// degradation self-report — in one critical section, so the join event a
// first announce emits is never deliverable before the entry's health is
// set. An announce whose caps lack a bit of the wire floor
// (wire.CapsCurrent), a caps-less one included, comes from a build that
// cannot decode every frame this one sends: it changes nothing and is
// counted (discovery.below_floor). It reports whether this is addr's
// first announce since it joined the list — the join itself, or the
// announce that followed a join by any other frame — which is when a
// replica cancel toward a rejoined peer can first go out (fence
// reconciliation in the replicator).
func (l *ResponderList) ObserveAnnounce(addr wire.Addr, caps uint64, degraded bool) (first bool) {
	if addr == "" {
		return false
	}
	if caps&wire.CapsCurrent != wire.CapsCurrent {
		l.ctr.belowFloor.Inc()
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[addr]
	isNew := e == nil
	if isNew {
		e = l.appendLocked(addr)
	} else {
		l.restoreLocked(e)
	}
	first = !e.announced
	e.announced = true
	l.observeDegradedLocked(e, degraded)
	if isNew {
		l.joinLocked(addr)
	}
	return first
}

// Len returns the number of cached responders.
func (l *ResponderList) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.addrs)
}

// Contains reports whether addr is cached.
func (l *ResponderList) Contains(addr wire.Addr) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.index[addr] != nil
}

// Position returns addr's 0-based position from the top, or -1.
func (l *ResponderList) Position(addr wire.Addr) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, e := range l.addrs {
		if e.addr == addr {
			return i
		}
	}
	return -1
}

// Observe records a responder discovered via multicast: appended at the
// bottom if not already present (paper: "responding instances are added
// to the bottom of the list"). An observation is evidence of life, so it
// also restores the entry's health.
func (l *ResponderList) Observe(addr wire.Addr) {
	if addr == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.index[addr]; e != nil {
		l.restoreLocked(e)
		return
	}
	l.appendLocked(addr)
	l.joinLocked(addr)
}

// appendLocked adds addr at the bottom of the list, first evicting the
// bottom entry — the least-proven responder — when the list is full. The
// caller emits the join once the entry is set up. Caller holds l.mu.
func (l *ResponderList) appendLocked(addr wire.Addr) *entry {
	if l.max > 0 && len(l.addrs) >= l.max {
		victim := l.addrs[len(l.addrs)-1].addr
		l.removeLocked(victim)
		l.ctr.listEvictions.Inc()
		l.leaveLocked(victim)
	}
	e := &entry{addr: addr, cooldown: l.cooldown, demoteCooldown: l.demoteCooldown}
	l.addrs = append(l.addrs, e)
	l.index[addr] = e
	return e
}

// Success records a response from addr, fully restoring its health.
func (l *ResponderList) Success(addr wire.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.index[addr]; e != nil {
		l.restoreLocked(e)
	}
}

// Promote records that addr satisfied an operation (a found reply, not a
// mere not-found acknowledgement), adding it first if absent: every
// entry's share decays by shareDecay, addr's grows by it, and addr moves
// ahead of every entry with a strictly lower share. Propagation starts
// from the top (paper §3.1.3), so ranking by recent share of finds is
// what lets repeated lookups reach the likeliest holder in one unicast
// instead of walking past peers that only proved they were empty.
// Satisfying an operation is also the strongest evidence of life, so
// Promote restores the entry's failure health — but a demoted or
// suspected responder does not rise over healthy peers on one found
// reply: slowness (and flappiness) is measured across many exchanges,
// and one useful answer does not unmeasure it. The rise, and the decay
// with it, is withheld (counted) until the entry's health state clears.
func (l *ResponderList) Promote(addr wire.Addr) {
	l.PromoteAt(addr, l.clk.Now())
}

// PromoteAt is Promote with demotion and suspicion judged at now, a
// reading of the list's clock that the caller's event already took: a
// walk promotes the finder of its found reply at that reply's wake-up.
func (l *ResponderList) PromoteAt(addr wire.Addr, now time.Time) {
	if addr == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[addr]
	if e == nil {
		e = l.appendLocked(addr)
		l.joinLocked(addr)
	}
	hold := l.demotedLocked(e, now) || l.suspectedLocked(e, now)
	l.restoreLocked(e)
	if hold {
		l.ctr.promoteHolds.Inc()
		return
	}
	for _, x := range l.addrs {
		x.share *= 1 - shareDecay
	}
	e.share += shareDecay
	// The list is ordered by share, so the entries e now overtakes are the
	// run just above it: e moves to the first position with a lower share.
	at := -1
	for k, x := range l.addrs {
		if x == e {
			if at >= 0 {
				copy(l.addrs[at+1:k+1], l.addrs[at:k])
				l.addrs[at] = e
			}
			return
		}
		if at < 0 && x.share < e.share {
			at = k
		}
	}
}

func (l *ResponderList) restoreLocked(e *entry) {
	e.fails = 0
	e.cooldown = l.cooldown
	e.suspectUntil = time.Time{}
}

// Fail records a soft failure for addr: the responder was contacted (with
// retries) and never answered, but the transport did not prove it
// unreachable. At the threshold the entry is suspended; a failure while
// half-open re-suspends with a doubled cooldown.
func (l *ResponderList) Fail(addr wire.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[addr]
	if e == nil || l.threshold <= 0 {
		return
	}
	e.fails++
	if e.fails < l.threshold {
		return
	}
	e.suspectUntil = l.clk.Now().Add(e.cooldown)
	e.cooldown *= 2
	if e.cooldown > l.maxCooldown {
		e.cooldown = l.maxCooldown
	}
	l.ctr.suspicions.Inc()
}

// Evict removes an instance that failed to respond (paper: "removing any
// which do not respond").
func (l *ResponderList) Evict(addr wire.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removeLocked(addr) {
		l.ctr.listEvictions.Inc()
		l.leaveLocked(addr)
	}
}

// Depart removes a responder that multicast a graceful goodbye. Unlike
// Evict this reflects cooperation, not failure: the node told us it is
// leaving, so it is dropped immediately — no retries wasted on it, no
// suspicion machinery engaged — and counted separately.
func (l *ResponderList) Depart(addr wire.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removeLocked(addr) {
		l.ctr.goodbyes.Inc()
		l.leaveLocked(addr)
	}
}

// removeLocked deletes addr from the list, reporting whether it was
// present. Caller holds l.mu.
func (l *ResponderList) removeLocked(addr wire.Addr) bool {
	if l.index[addr] == nil {
		return false
	}
	delete(l.index, addr)
	for i, x := range l.addrs {
		if x.addr == addr {
			l.addrs = append(l.addrs[:i], l.addrs[i+1:]...)
			break
		}
	}
	return true
}

// Clear empties the list (used when the instance knows its own context
// changed completely, e.g. network interface switch).
func (l *ResponderList) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	gone := l.allLocked()
	l.addrs = l.addrs[:0]
	l.index = make(map[wire.Addr]*entry)
	for _, a := range gone {
		l.leaveLocked(a)
	}
}
