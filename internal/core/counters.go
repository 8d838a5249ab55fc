package core

import "tiamat/trace"

// counters are the node's counter handles, resolved once in New from its
// own registry (trace.Metrics.Counter): a bump on any path is an atomic
// add per registry up the chain, never a name lookup.
type counters struct {
	acceptRetransmits *trace.Counter
	busyReceived      *trace.Counter
	contactTimeouts   *trace.Counter
	dedupDrops        *trace.Counter
	discoverRounds    *trace.Counter
	goodbyes          *trace.Counter
	govClamps         *trace.Counter
	govDeadlineCuts   *trace.Counter
	govQueueSheds     *trace.Counter
	govQueueStalls    *trace.Counter
	govQueued         *trace.Counter
	govQuotaSheds     *trace.Counter
	govRevokes        *trace.Counter
	govShedOuts       *trace.Counter
	govShedProbes     *trace.Counter
	govShedWaits      *trace.Counter
	govShrinks        *trace.Counter
	govShrunkBytes    *trace.Counter
	hedgeSuppressed   *trace.Counter
	hedgeWins         *trace.Counter
	hedges            *trace.Counter
	holdGraceExpired  *trace.Counter
	opsEmpty          *trace.Counter
	opsEval           *trace.Counter
	opsExpired        *trace.Counter
	opsIn             *trace.Counter
	opsInp            *trace.Counter
	opsLocalHit       *trace.Counter
	opsOut            *trace.Counter
	opsRd             *trace.Counter
	opsRdp            *trace.Counter
	opsRemoteHit      *trace.Counter
	opsSatisfied      *trace.Counter
	orphanHolds       *trace.Counter
	orphanProbes      *trace.Counter
	orphanWaits       *trace.Counter
	panics            *trace.Counter
	rearms            *trace.Counter
	retries           *trace.Counter
}

func newCounters(m *trace.Metrics) counters {
	return counters{
		acceptRetransmits: m.Counter(trace.CtrAcceptRetransmits),
		busyReceived:      m.Counter(trace.CtrBusyReceived),
		contactTimeouts:   m.Counter(trace.CtrContactTimeouts),
		dedupDrops:        m.Counter(trace.CtrDedupDrops),
		discoverRounds:    m.Counter(trace.CtrDiscoverRounds),
		goodbyes:          m.Counter(trace.CtrGoodbyes),
		govClamps:         m.Counter(trace.CtrGovClamps),
		govDeadlineCuts:   m.Counter(trace.CtrGovDeadlineCuts),
		govQueueSheds:     m.Counter(trace.CtrGovQueueSheds),
		govQueueStalls:    m.Counter(trace.CtrGovQueueStalls),
		govQueued:         m.Counter(trace.CtrGovQueued),
		govQuotaSheds:     m.Counter(trace.CtrGovQuotaSheds),
		govRevokes:        m.Counter(trace.CtrGovRevokes),
		govShedOuts:       m.Counter(trace.CtrGovShedOuts),
		govShedProbes:     m.Counter(trace.CtrGovShedProbes),
		govShedWaits:      m.Counter(trace.CtrGovShedWaits),
		govShrinks:        m.Counter(trace.CtrGovShrinks),
		govShrunkBytes:    m.Counter(trace.CtrGovShrunkBytes),
		hedgeSuppressed:   m.Counter(trace.CtrHedgeSuppressed),
		hedgeWins:         m.Counter(trace.CtrHedgeWins),
		hedges:            m.Counter(trace.CtrHedges),
		holdGraceExpired:  m.Counter(trace.CtrHoldGraceExpired),
		opsEmpty:          m.Counter(trace.CtrOpsEmpty),
		opsEval:           m.Counter(trace.CtrOpsEval),
		opsExpired:        m.Counter(trace.CtrOpsExpired),
		opsIn:             m.Counter(trace.CtrOpsIn),
		opsInp:            m.Counter(trace.CtrOpsInp),
		opsLocalHit:       m.Counter(trace.CtrOpsLocalHit),
		opsOut:            m.Counter(trace.CtrOpsOut),
		opsRd:             m.Counter(trace.CtrOpsRd),
		opsRdp:            m.Counter(trace.CtrOpsRdp),
		opsRemoteHit:      m.Counter(trace.CtrOpsRemoteHit),
		opsSatisfied:      m.Counter(trace.CtrOpsSatisfied),
		orphanHolds:       m.Counter(trace.CtrOrphanHolds),
		orphanProbes:      m.Counter(trace.CtrOrphanProbes),
		orphanWaits:       m.Counter(trace.CtrOrphanWaits),
		panics:            m.Counter(trace.CtrPanics),
		rearms:            m.Counter(trace.CtrRearms),
		retries:           m.Counter(trace.CtrRetries),
	}
}
