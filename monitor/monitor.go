// Package monitor implements the run-time-support monitoring and
// adaptation the paper identifies as challenges §5.2–§5.3 and names as
// Tiamat's future work (§6): observing the set of visible instances,
// quantifying its stability, and adapting policy — here, the discovery
// interval — to the observed churn.
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
}

// Monitor keeps a sliding window of visibility samples. The zero value is
// not usable; call New.
type Monitor struct {
	mu      sync.Mutex
	window  int
	samples []Sample
}

// New returns a Monitor keeping the last window visibility samples.
// A non-positive window defaults to 16.
func New(window int) *Monitor {
	if window <= 0 {
		window = 16
	}
	return &Monitor{window: window}
}

// ObserveVisible records the currently visible set.
func (m *Monitor) ObserveVisible(at time.Time, visible []wire.Addr) {
	set := make(map[wire.Addr]bool, len(visible))
	for _, a := range visible {
		set[a] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = append(m.samples, Sample{At: at, Visible: set})
	if len(m.samples) > m.window {
		m.samples = m.samples[len(m.samples)-m.window:]
	}
}

// Stability returns the mean Jaccard similarity between consecutive
// visibility samples in the window: 1.0 means the visible set never
// changed, 0.0 means it was replaced wholesale at every sample. With fewer
// than two samples it returns 1.0 (no evidence of change).
func (m *Monitor) Stability() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) < 2 {
		return 1.0
	}
	var sum float64
	for i := 1; i < len(m.samples); i++ {
		sum += jaccard(m.samples[i-1].Visible, m.samples[i].Visible)
	}
	return sum / float64(len(m.samples)-1)
}

// Churn is 1 - Stability.
func (m *Monitor) Churn() float64 { return 1 - m.Stability() }

// jaccard is the Jaccard similarity of a and b.
func jaccard(a, b map[wire.Addr]bool) float64 {
	inter, union := 0, len(a)
	for k := range a {
		if b[k] {
			inter++
		}
	}
	for k := range b {
		if !a[k] {
			union++
		}
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
