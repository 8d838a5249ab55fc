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
// demoteFactor× the list's median EWMA is *demoted*, as is one that
// accumulates hedge slow-strikes or self-reports degradation on its
// announce frames. The same samples are the node's only latency
// estimate: the median of the entries' retransmission timeouts paces
// hedged lookups (HedgeDelay). Demotion is deliberately weaker than
// suspicion: a demoted peer still serves (Snapshot keeps it, moved to
// the back) and a found reply does not raise its rank. Demotion lifts
// when its latency returns under the recovery threshold or the cooldown
// lapses, whichever comes first.
package discovery

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/trace"
	"tiamat/wire"
)

// Health policy.
const (
	// SuspectThreshold is how many consecutive soft failures put an entry
	// under suspicion.
	SuspectThreshold = 3

	// cooldownFirst is the first suspension or demotion length; each
	// re-trip doubles it up to cooldownMax (a backoff).
	cooldownFirst = 2 * time.Second
	cooldownMax   = 30 * time.Second

	// demoteFactor demotes an entry whose latency EWMA reaches this
	// multiple of the list median; recovery needs it back under half the
	// multiple (hysteresis, so the boundary doesn't flap).
	demoteFactor = 4.0
	// demoteMinSamples is how many latency samples an entry needs before
	// it counts toward the median (outlier detection and the hedge delay),
	// on either side.
	demoteMinSamples = 3
	// slowStrikeLimit is how many hedge slow-strikes demote an entry even
	// before its EWMA crosses the outlier line (hedge losers' late replies
	// are never sampled, so strikes are the signal there).
	slowStrikeLimit = 3
	// degradedTTL bounds how long a self-reported degraded flag sticks
	// without a refreshing announce.
	degradedTTL = 10 * time.Second

	// demoteMedianFloor keeps the outlier line meaningful on very fast
	// networks: the demotion threshold is demoteFactor × max(median,
	// this floor), so sub-millisecond jitter alone cannot demote.
	demoteMedianFloor = 500 * time.Microsecond

	// ewmaShift and devShift are the smoothing constants (RFC 6298
	// shape): srtt += (s-srtt)/8, dev += (|s-srtt|-dev)/4; an entry's
	// retransmission timeout is srtt + rtoDevs·dev.
	ewmaShift = 3
	devShift  = 2
	rtoDevs   = 4

	// shareDecay is the weight of one found reply in an entry's share:
	// each Promote moves the finder's share 1/8 of the way to 1 and every
	// other share 1/8 of the way to 0, so a share is an EWMA of "this
	// entry satisfied the operation" over about the last eight finds.
	shareDecay = 1.0 / 8
)

// backoff is a half-open circuit breaker's timer: a trip holds it open
// for the current cooldown, which then doubles up to cooldownMax, so a
// peer that trips again as soon as it is let back in is held out twice as
// long. Suspicion and demotion each keep one per entry; the zero value is
// closed, with its first trip at cooldownFirst.
type backoff struct {
	until time.Time
	next  time.Duration
}

func (b *backoff) open(now time.Time) bool { return now.Before(b.until) }

func (b *backoff) trip(now time.Time) {
	if b.next == 0 {
		b.next = cooldownFirst
	}
	b.until = now.Add(b.next)
	b.next = min(2*b.next, cooldownMax)
}

func (b *backoff) reset() { *b = backoff{} }

// entry is one cached responder plus its health state.
type entry struct {
	addr    wire.Addr
	fails   int     // consecutive soft failures
	suspect backoff // open while suspected

	// Gray-failure state: latency EWMA + mean deviation, demotion,
	// hedge slow-strikes, and self-reported degradation.
	ewma          time.Duration
	ewmaDev       time.Duration
	samples       int
	slowStrikes   int
	demoted       backoff
	degradedUntil time.Time // self-reported degradation TTL

	// announced is set by the entry's first announce at or above the wire
	// floor (ObserveAnnounce).
	announced bool

	// share is the entry's recent share of found replies (Promote): the
	// list is ordered by it, highest first, ties in arrival order.
	share float64
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

	// ewmaScratch and rtoScratch are the median's sort buffers: it is
	// taken on every latency sample, under mu, and must not allocate
	// there.
	ewmaScratch []time.Duration
	rtoScratch  []time.Duration
	// hedge is the lower median RTO over sampled entries (HedgeDelay),
	// 0 while none is sampled; written under mu, read without it.
	hedge atomic.Int64

	// subs are the attached subscriptions; rev counts joins and removals
	// (Revision).
	subs map[*Subscription]struct{}
	rev  uint64
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
// responders (0 means unbounded); met may be nil. clk, at most one, is
// the time source for suspicion, demotion and degradation (default: the
// wall clock).
func NewResponderList(max int, met *trace.Metrics, clk ...clock.Clock) *ResponderList {
	if met == nil {
		met = &trace.Metrics{}
	}
	l := &ResponderList{
		index: make(map[wire.Addr]*entry),
		ctr:   newCounters(met),
		clk:   clock.Real{},
		max:   max,
		subs:  make(map[*Subscription]struct{}),
	}
	if len(clk) > 0 {
		l.clk = clk[0]
	}
	return l
}

// Subscription is a reusable receiver of a list's joins: its owner (a
// pooled operation state) makes it once and attaches it for as long as it
// wants to hear, so a blocking operation pays for no channel of its own.
type Subscription struct {
	ch chan wire.Addr
}

// NewSubscription returns a detached subscription.
func NewSubscription() *Subscription {
	return &Subscription{ch: make(chan wire.Addr, subBuf)}
}

// Joins is where an attached subscription receives the address of each
// peer that enters the list: the instance became visible (or visible
// again). Delivery is best-effort and non-blocking: a subscriber that
// falls behind by more than the buffer loses joins (counted under
// disc.vis_event_drops). The channel is never closed; a detached
// subscription simply stops receiving.
func (s *Subscription) Joins() <-chan wire.Addr { return s.ch }

// Attach starts delivering the list's joins to s, first discarding any
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

// Detach stops delivery to s; nothing is sent to it after Detach returns.
func (l *ResponderList) Detach(s *Subscription) {
	l.mu.Lock()
	delete(l.subs, s)
	l.mu.Unlock()
}

// Revision returns a monotonic membership revision: it advances on every
// join and removal. Consumers that derive state from the membership set —
// the replica placement ring (DESIGN.md §13) rebuilds from Members() —
// use it as a cheap change detector.
func (l *ResponderList) Revision() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rev
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

// joinLocked counts addr's join and hands it to every subscriber without
// blocking. Caller holds l.mu and has just inserted the entry.
func (l *ResponderList) joinLocked(addr wire.Addr) {
	l.rev++
	l.ctr.visJoins.Inc()
	for s := range l.subs {
		select {
		case s.ch <- addr:
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
	for _, e := range l.addrs {
		switch {
		case e.suspect.open(now):
			l.ctr.suspectSkips.Inc()
		case !l.demotedLocked(e, now):
			dst = append(dst, e.addr)
		}
	}
	for _, e := range l.addrs {
		if !e.suspect.open(now) && l.demotedLocked(e, now) {
			dst = append(dst, e.addr)
		}
	}
	return dst
}

// All returns the full contact order including suspected entries, for
// monitoring.
func (l *ResponderList) All() []wire.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]wire.Addr, len(l.addrs))
	for i, e := range l.addrs {
		out[i] = e.addr
	}
	return out
}

// Suspected reports whether addr is currently suspected.
func (l *ResponderList) Suspected(addr wire.Addr) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.index[addr]
	return ok && e.suspect.open(l.clk.Now())
}

// demotedLocked reports whether e is demoted at now, by outlier latency,
// slow-strikes, or an unexpired self-reported degradation.
func (l *ResponderList) demotedLocked(e *entry, now time.Time) bool {
	return e.demoted.open(now) || now.Before(e.degradedUntil)
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

// HedgeDelay returns how long a reply may take before a blocking walk
// should hedge (DESIGN.md §11): the lower median, over entries with at
// least demoteMinSamples samples, of each one's retransmission timeout
// ewma + rtoDevs·ewmaDev. A median resists one slow peer, and the
// deviation term keeps a jittery but healthy network from hedging on its
// own spread. It is 0 while no entry is sampled. It is refreshed on each
// sample of a sampled entry and on each removal of one.
func (l *ResponderList) HedgeDelay() time.Duration {
	return time.Duration(l.hedge.Load())
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

// mediansLocked refreshes the hedge delay and returns the lower median
// EWMA across sampled entries and how many there are. Caller holds l.mu.
func (l *ResponderList) mediansLocked() (ewma time.Duration, n int) {
	ewmas, rtos := l.ewmaScratch[:0], l.rtoScratch[:0]
	for _, x := range l.addrs {
		if x.samples >= demoteMinSamples {
			ewmas = append(ewmas, x.ewma)
			rtos = append(rtos, x.ewma+rtoDevs*x.ewmaDev)
		}
	}
	l.ewmaScratch, l.rtoScratch = ewmas, rtos
	l.hedge.Store(int64(lowerMedian(rtos)))
	return lowerMedian(ewmas), len(ewmas)
}

// lowerMedian sorts s and returns its lower median, 0 if s is empty: with
// two values it is the smaller one.
func lowerMedian(s []time.Duration) time.Duration {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// outlierCheckLocked demotes or restores e based on its EWMA relative
// to the median of sampled peers. Caller holds l.mu.
func (l *ResponderList) outlierCheckLocked(e *entry) {
	if e.samples < demoteMinSamples {
		return
	}
	// Lower median across sampled entries (including e): with two
	// sampled entries the baseline is the faster one, so a single slow
	// peer in a small cluster is still an outlier against it.
	median, n := l.mediansLocked()
	if n < 2 {
		return // no peer baseline to be relative to
	}
	median = max(median, demoteMedianFloor)
	now := l.clk.Now()
	switch {
	case float64(e.ewma) >= demoteFactor*float64(median):
		l.demoteLocked(e, now)
	case e.demoted.open(now) && float64(e.ewma) < demoteFactor/2*float64(median):
		// Hysteresis: recovery requires clearing half the demotion line.
		e.demoted.reset()
		e.slowStrikes = 0
		l.ctr.demoteRestores.Inc()
	}
}

// demoteLocked demotes e from now, unless a demotion is already active:
// further evidence then changes nothing, the cooldown is the decay. If
// the peer is still slow when the demotion lapses, the next sample
// re-demotes it for twice as long. Caller holds l.mu.
func (l *ResponderList) demoteLocked(e *entry, now time.Time) {
	if e.demoted.open(now) {
		return
	}
	e.demoted.trip(now)
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
	if e.slowStrikes >= slowStrikeLimit {
		l.demoteLocked(e, l.clk.Now())
	}
}

// ObserveAnnounce records an announce from addr — presence and
// degradation self-report — in one critical section, so the join a first
// announce emits is never deliverable before the entry's health is set.
// A degraded report sticks for degradedTTL (so one announce is enough to
// deprioritize the peer) and is refreshed by each further report; a
// healthy report clears it at once. An announce whose caps lack a bit of
// the wire floor (wire.CapsCurrent), a caps-less one included, comes from
// a build that cannot decode every frame this one sends: it changes
// nothing and is counted (discovery.below_floor). It reports whether this
// is addr's first announce since it joined the list — the join itself, or
// the announce that followed a join by any other frame — which is when a
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
	if now := l.clk.Now(); !degraded {
		e.degradedUntil = time.Time{}
	} else {
		if !now.Before(e.degradedUntil) {
			l.ctr.peerDegraded.Inc()
		}
		e.degradedUntil = now.Add(degradedTTL)
	}
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
		l.removeLocked(l.addrs[len(l.addrs)-1].addr)
		l.ctr.listEvictions.Inc()
	}
	e := &entry{addr: addr}
	l.addrs = append(l.addrs, e)
	l.index[addr] = e
	return e
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
	hold := l.demotedLocked(e, now) || e.suspect.open(now)
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
	e.suspect.reset()
}

// Fail records a soft failure for addr: the responder was contacted (with
// retries) and never answered, but the transport did not prove it
// unreachable. At the threshold the entry is suspended; a failure while
// half-open re-suspends with a doubled cooldown.
func (l *ResponderList) Fail(addr wire.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[addr]
	if e == nil {
		return
	}
	e.fails++
	if e.fails < SuspectThreshold {
		return
	}
	e.suspect.trip(l.clk.Now())
	l.ctr.suspicions.Inc()
}

// Evict removes an instance that failed to respond (paper: "removing any
// which do not respond").
func (l *ResponderList) Evict(addr wire.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removeLocked(addr) {
		l.ctr.listEvictions.Inc()
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
	}
}

// removeLocked deletes addr from the list, reporting whether it was
// present, and counts the leave; removing a sampled entry refreshes the
// hedge delay. Caller holds l.mu.
func (l *ResponderList) removeLocked(addr wire.Addr) bool {
	e := l.index[addr]
	if e == nil {
		return false
	}
	delete(l.index, addr)
	l.addrs = slices.DeleteFunc(l.addrs, func(x *entry) bool { return x == e })
	l.rev++
	l.ctr.visLeaves.Inc()
	if e.samples >= demoteMinSamples {
		l.mediansLocked()
	}
	return true
}
