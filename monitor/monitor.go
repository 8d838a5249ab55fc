// Package monitor implements the run-time-support monitoring and
// adaptation the paper identifies as challenges §5.2–§5.3 and names as
// Tiamat's future work (§6): observing the set of visible instances,
// quantifying its stability, tracking operation outcomes, and adapting
// policy — here, the discovery interval — to the observed churn.
package monitor

import (
	"sort"
	"sync"
	"time"

	"tiamat/wire"
)

// Sample is one observation of the visible set.
type Sample struct {
	At      time.Time
	Visible map[wire.Addr]bool
	// Departed holds the nodes that had announced a graceful goodbye as
	// of this sample and have not been seen since: their absence is
	// planned shrinkage, not churn.
	Departed map[wire.Addr]bool
}

// Monitor keeps a sliding window of visibility samples and operation
// outcomes. The zero value is not usable; call New.
type Monitor struct {
	mu      sync.Mutex
	window  int
	samples []Sample
	// departed accumulates goodbye announcements; an address is cleared
	// the moment it is observed visible again (it rejoined, so a later
	// disappearance counts as churn once more).
	departed map[wire.Addr]bool

	opWindow  int
	outcomes  []bool // success ring
	latencies []time.Duration
}

// New returns a Monitor with the given sliding-window lengths (samples
// for visibility, ops for outcomes). Non-positive values default to 16
// and 128.
func New(visWindow, opWindow int) *Monitor {
	if visWindow <= 0 {
		visWindow = 16
	}
	if opWindow <= 0 {
		opWindow = 128
	}
	return &Monitor{window: visWindow, opWindow: opWindow}
}

// ObserveVisible records the currently visible set.
func (m *Monitor) ObserveVisible(at time.Time, visible []wire.Addr) {
	set := make(map[wire.Addr]bool, len(visible))
	for _, a := range visible {
		set[a] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dep := make(map[wire.Addr]bool, len(m.departed))
	for a := range m.departed {
		if set[a] {
			delete(m.departed, a) // it came back: live again
			continue
		}
		dep[a] = true
	}
	m.samples = append(m.samples, Sample{At: at, Visible: set, Departed: dep})
	if len(m.samples) > m.window {
		m.samples = m.samples[len(m.samples)-m.window:]
	}
}

// ObserveGoodbye records a graceful departure announcement (wire
// TGoodbye): the node said it was leaving, so its subsequent absence
// from visibility samples is expected and Stability does not count it as
// churn. If the node is observed visible again later it is treated as
// live and a future unannounced disappearance counts normally.
func (m *Monitor) ObserveGoodbye(addr wire.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.departed == nil {
		m.departed = make(map[wire.Addr]bool)
	}
	m.departed[addr] = true
}

// Stability returns the mean Jaccard similarity between consecutive
// visibility samples in the window: 1.0 means the visible set never
// changed, 0.0 means it was replaced wholesale at every sample. Nodes
// that announced a graceful goodbye are excluded from the comparison —
// planned departures do not destabilise the environment the way
// unannounced disappearances do. With fewer than two samples it returns
// 1.0 (no evidence of change).
func (m *Monitor) Stability() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) < 2 {
		return 1.0
	}
	var sum float64
	for i := 1; i < len(m.samples); i++ {
		// A node counts as departed for this pair if it was marked in
		// either sample: both the goodbye-shrink and the planned
		// reappearance of the same node are lifecycle, not churn.
		skip := m.samples[i].Departed
		if prev := m.samples[i-1].Departed; len(prev) > 0 {
			skip = make(map[wire.Addr]bool, len(skip)+len(prev))
			for a := range m.samples[i].Departed {
				skip[a] = true
			}
			for a := range prev {
				skip[a] = true
			}
		}
		sum += jaccardExcluding(m.samples[i-1].Visible, m.samples[i].Visible, skip)
	}
	return sum / float64(len(m.samples)-1)
}

// Churn is 1 - Stability.
func (m *Monitor) Churn() float64 { return 1 - m.Stability() }

func jaccard(a, b map[wire.Addr]bool) float64 { return jaccardExcluding(a, b, nil) }

// jaccardExcluding is the Jaccard similarity of a and b with the skip
// set removed from both sides.
func jaccardExcluding(a, b, skip map[wire.Addr]bool) float64 {
	inter, union := 0, 0
	for k := range a {
		if skip[k] {
			continue
		}
		union++
		if b[k] {
			inter++
		}
	}
	for k := range b {
		if skip[k] || a[k] {
			continue
		}
		union++
	}
	if union == 0 {
		return 1.0
	}
	return float64(inter) / float64(union)
}

// Persistence reports, for each address seen in the window, the fraction
// of samples it appeared in — the "social characteristics" §6 proposes to
// exploit. Results are sorted by decreasing persistence, ties by address.
func (m *Monitor) Persistence() []AddrScore {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return nil
	}
	counts := make(map[wire.Addr]int)
	for _, s := range m.samples {
		for a := range s.Visible {
			counts[a]++
		}
	}
	out := make([]AddrScore, 0, len(counts))
	for a, c := range counts {
		out = append(out, AddrScore{Addr: a, Score: float64(c) / float64(len(m.samples))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score == out[j].Score {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Score > out[j].Score
	})
	return out
}

// AddrScore pairs an address with a persistence score in [0,1].
type AddrScore struct {
	Addr  wire.Addr
	Score float64
}

// ObserveOp records one operation outcome (challenge §5.4: modelling
// application behaviour by watching what operations do).
func (m *Monitor) ObserveOp(success bool, latency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outcomes = append(m.outcomes, success)
	m.latencies = append(m.latencies, latency)
	if len(m.outcomes) > m.opWindow {
		m.outcomes = m.outcomes[len(m.outcomes)-m.opWindow:]
		m.latencies = m.latencies[len(m.latencies)-m.opWindow:]
	}
}

// SuccessRate returns the windowed operation success fraction (1.0 with
// no observations).
func (m *Monitor) SuccessRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.outcomes) == 0 {
		return 1.0
	}
	ok := 0
	for _, s := range m.outcomes {
		if s {
			ok++
		}
	}
	return float64(ok) / float64(len(m.outcomes))
}

// MeanLatency returns the windowed mean operation latency.
func (m *Monitor) MeanLatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range m.latencies {
		sum += d
	}
	return sum / time.Duration(len(m.latencies))
}

// AdaptiveInterval adapts a period (e.g. the rediscovery interval) to
// observed stability: stable environments back off exponentially to save
// multicasts, churning environments snap back to the minimum so the
// responder list stays fresh (challenge §5.3).
type AdaptiveInterval struct {
	mu         sync.Mutex
	min, max   time.Duration
	cur        time.Duration
	loTh, hiTh float64
}

// NewAdaptiveInterval returns a controller bounded by [min, max],
// starting at min. Thresholds: stability below 0.5 resets to min,
// above 0.9 doubles toward max.
func NewAdaptiveInterval(min, max time.Duration) *AdaptiveInterval {
	if min <= 0 {
		min = 100 * time.Millisecond
	}
	if max < min {
		max = min
	}
	return &AdaptiveInterval{min: min, max: max, cur: min, loTh: 0.5, hiTh: 0.9}
}

// Current returns the present interval.
func (a *AdaptiveInterval) Current() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// Update feeds a stability reading and returns the adapted interval.
func (a *AdaptiveInterval) Update(stability float64) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case stability < a.loTh:
		a.cur = a.min
	case stability > a.hiTh:
		a.cur *= 2
		if a.cur > a.max {
			a.cur = a.max
		}
	}
	return a.cur
}
