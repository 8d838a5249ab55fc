package core

import (
	"time"

	"tiamat/space"
	"tiamat/trace"
	"tiamat/wire"
)

// This file implements the requester side of gray-failure tolerance
// (DESIGN.md §11): hedged blocking lookups paced by the responder list's
// latency estimate, reply-driven latency feedback into the list's health
// layer, and the aggregation of the node's own degraded state as
// advertised on announce frames.

// GrayReport snapshots the instance's gray-failure tolerance activity,
// logged by tiamatd on drain and asserted by the C4 soak.
type GrayReport struct {
	Hedges          uint64        // hedged contacts fired
	HedgeWins       uint64        // found results settled by a hedged contact
	HedgeSuppressed uint64        // ops whose hedge pacing a busy reply stopped
	HedgeDelay      time.Duration // current adaptive hedge delay
	Degraded        bool          // this node's own self-report, right now
}

// Gray snapshots hedge activity and the node's self-reported health.
func (i *Instance) Gray() GrayReport {
	return GrayReport{
		Hedges:          i.counted(trace.CtrHedges),
		HedgeWins:       i.counted(trace.CtrHedgeWins),
		HedgeSuppressed: i.counted(trace.CtrHedgeSuppressed),
		HedgeDelay:      i.hedgeDelay(),
		Degraded:        i.Degraded(),
	}
}

const (
	// hedgeMinDelay floors the adaptive hedge delay so a run of fast local
	// samples cannot make every op hedge immediately.
	hedgeMinDelay = 2 * time.Millisecond
	// hedgeMax bounds hedged contacts per blocking operation. Once spent,
	// the walk falls back to contacting every remaining cached responder
	// at once, so hedging bounds added latency without ever costing
	// completeness.
	hedgeMax = 2
)

// hedgeDelay is the adaptive pacing for hedged contacts: the responder
// list's hedge delay (the median of its sampled peers' retransmission
// timeouts), floored at hedgeMinDelay and capped at ContactTimeout. With
// no sampled peer yet the full contact timeout is used — hedge
// conservatively until the network has been measured. A sample runs from
// the reading of the event that sent the contact, taken before its send,
// to the reading of the reply's wake-up (DESIGN.md §7, "One reading per
// event"): it includes that send, and every send the same event made
// before it, which is also what the walk waits through before it can
// hedge.
func (i *Instance) hedgeDelay() time.Duration {
	d := i.list.HedgeDelay()
	if d == 0 || d > i.cfg.ContactTimeout {
		return i.cfg.ContactTimeout
	}
	return max(d, hedgeMinDelay)
}

// noteReply feeds the health layer from one in-operation reply.
// measurable reports whether the reply's timing means anything: busy
// refusals are admission control, and a blocking op's not-found is a
// serve-lease expiry notice, so neither qualifies. Karn's rule splits the
// measurable case: a first-attempt reply yields an unambiguous RTT
// sample; a found reply that needed retransmissions cannot be timed but
// is direct evidence the responder serves slowly — a slow strike. rtt is
// the contact's first-attempt round trip, from the walk's event readings.
func (i *Instance) noteReply(from wire.Addr, attempts int, rtt time.Duration, measurable bool) {
	if !measurable {
		return
	}
	if attempts == 1 {
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
