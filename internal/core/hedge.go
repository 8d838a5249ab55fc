package core

import (
	"sort"
	"sync"
	"time"

	"tiamat/space"
	"tiamat/trace"
	"tiamat/wire"
)

// This file implements the requester side of gray-failure tolerance
// (DESIGN.md §11): an RTT digest whose upper percentile paces hedged
// blocking lookups, reply-driven latency feedback into the responder
// list's health layer, and the aggregation of the node's own degraded
// state as advertised on announce frames.

// rttSamples is the digest window. 128 first-attempt samples hold a
// stable upper percentile while still tracking a changing network within
// a few hundred operations.
const rttSamples = 128

// rttRefresh is how many new samples a cached quantile may be stale by
// before it is recomputed. Every blocking op asks for the hedge delay;
// copying and sorting the whole window per ask was a measurable slice of
// the hot path, and a percentile over a 128-sample window moves slowly
// enough that an 8-sample-stale answer paces hedges identically.
const rttRefresh = 8

// rttDigest is a fixed-size ring of recent first-attempt round-trip
// samples. Only unambiguous samples enter (Karn's rule: a reply that
// needed retransmissions is never attributed to any one transmission).
type rttDigest struct {
	mu      sync.Mutex
	samples [rttSamples]time.Duration
	n, next int
	sortBuf [rttSamples]time.Duration
	stale   int // samples added since the cached quantile was computed
	cachedQ float64
	cachedV time.Duration
	cached  bool
}

func (d *rttDigest) add(s time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.samples[d.next] = s
	d.next = (d.next + 1) % len(d.samples)
	if d.n < len(d.samples) {
		d.n++
	}
	d.stale++
}

func (d *rttDigest) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// durSlice sorts durations without the per-call closure sort.Slice costs.
type durSlice []time.Duration

func (s durSlice) Len() int           { return len(s) }
func (s durSlice) Less(i, j int) bool { return s[i] < s[j] }
func (s durSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// quantile returns the q-quantile of the windowed samples; ok is false
// while the digest is empty. The answer is cached and reused until
// rttRefresh new samples arrive (or a different q is asked for).
func (d *rttDigest) quantile(q float64) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		return 0, false
	}
	if d.cached && d.cachedQ == q && d.stale < rttRefresh {
		return d.cachedV, true
	}
	buf := d.sortBuf[:d.n]
	copy(buf, d.samples[:d.n])
	sort.Sort(durSlice(buf))
	idx := int(float64(len(buf)) * q)
	if idx >= len(buf) {
		idx = len(buf) - 1
	}
	d.cachedQ, d.cachedV, d.cached = q, buf[idx], true
	d.stale = 0
	return buf[idx], true
}

// GrayReport snapshots the instance's gray-failure tolerance activity,
// logged by tiamatd on drain and asserted by the C4 soak.
type GrayReport struct {
	Hedges          uint64        // hedged contacts fired
	HedgeWins       uint64        // found results settled by a hedged contact
	HedgeSuppressed uint64        // ops whose hedge pacing a busy reply stopped
	HedgeDelay      time.Duration // current adaptive hedge delay
	RTTSamples      int           // first-attempt samples in the digest
	Degraded        bool          // this node's own self-report, right now
}

// Gray snapshots hedge activity and the node's self-reported health.
func (i *Instance) Gray() GrayReport {
	return GrayReport{
		Hedges:          i.counted(trace.CtrHedges),
		HedgeWins:       i.counted(trace.CtrHedgeWins),
		HedgeSuppressed: i.counted(trace.CtrHedgeSuppressed),
		HedgeDelay:      i.hedgeDelay(),
		RTTSamples:      i.rtt.size(),
		Degraded:        i.Degraded(),
	}
}

const (
	// hedgePercentile is the quantile of recent first-attempt RTTs used as
	// the adaptive hedge delay: a hedge fires only when the first contact
	// is slower than almost all recent traffic.
	hedgePercentile = 0.95
	// hedgeMinDelay floors the adaptive hedge delay so a run of fast local
	// samples cannot make every op hedge immediately.
	hedgeMinDelay = 2 * time.Millisecond
	// hedgeMax bounds hedged contacts per blocking operation. Once spent,
	// the walk falls back to contacting every remaining cached responder
	// at once, so hedging bounds added latency without ever costing
	// completeness.
	hedgeMax = 2
)

// hedgeDelay is the adaptive pacing for hedged contacts: the
// hedgePercentile of recent first-attempt RTTs, floored at hedgeMinDelay
// and capped at ContactTimeout. With no samples yet the full contact
// timeout is used — hedge conservatively until the network has been
// measured.
func (i *Instance) hedgeDelay() time.Duration {
	d, ok := i.rtt.quantile(hedgePercentile)
	if !ok || d > i.cfg.ContactTimeout {
		return i.cfg.ContactTimeout
	}
	if d < hedgeMinDelay {
		return hedgeMinDelay
	}
	return d
}

// noteReply feeds the health layer from one in-operation reply.
// measurable reports whether the reply's timing means anything: busy
// refusals are admission control, and a blocking op's not-found is a
// serve-lease expiry notice, so neither qualifies. Karn's rule splits the
// measurable case: a first-attempt reply yields an unambiguous RTT
// sample; a found reply that needed retransmissions cannot be timed but
// is direct evidence the responder serves slowly — a slow strike.
func (i *Instance) noteReply(from wire.Addr, attempts int, sentAt time.Time, measurable bool) {
	if !measurable {
		return
	}
	if attempts == 1 {
		rtt := i.clk.Now().Sub(sentAt)
		i.rtt.add(rtt)
		i.list.ObserveLatency(from, rtt)
		return
	}
	i.list.Slow(from)
}

// Degraded reports this node's own gray-failure self-diagnosis: a
// durably-backed space whose fsyncs are stalling (space.Degrader), or a
// serve queue whose admitted work waits too long behind the worker pool
// (the governor's queue-delay probe). The flag rides announce frames
// (wire.Message.Degraded) so peers deprioritize this node before ever
// timing out on it.
func (i *Instance) Degraded() bool {
	if d, ok := i.local.(space.Degrader); ok && d.Degraded() {
		return true
	}
	return i.gov.degraded()
}
