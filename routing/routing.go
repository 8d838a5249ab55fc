// Package routing implements the paper's §6 future-work extension: using
// the "social characteristics" of instances — which nodes are persistently
// visible and well connected — to select a communication backbone, and
// routing tuples through it when direct visibility fails (via the
// protocol's TRelay frames, handled in the core).
package routing

import (
	"sort"
	"sync"
	"time"

	"tiamat/monitor"
	"tiamat/wire"
)

// Selector chooses backbone candidates from visibility observations.
// Feed it ObserveVisible from each sampling tick (typically the same
// samples given to a monitor.Monitor) and per-node degree estimates.
type Selector struct {
	mu sync.Mutex
	// mon tracks persistence of each neighbour.
	mon *monitor.Monitor
	// degree holds the latest known neighbour-count of each candidate
	// (learned from announcements or configuration).
	degree map[wire.Addr]int

	minPersistence float64
	minDegree      int
	maxBackbone    int
}

// Config tunes backbone selection.
type Config struct {
	// VisWindow is the persistence window (samples; default 16).
	VisWindow int
	// MinPersistence is the fraction of samples a node must appear in to
	// qualify (default 0.75).
	MinPersistence float64
	// MinDegree is the minimum neighbour count to qualify (default 2).
	MinDegree int
	// MaxBackbone bounds the selected set (default 4).
	MaxBackbone int
}

// NewSelector returns a Selector.
func NewSelector(cfg Config) *Selector {
	if cfg.MinPersistence <= 0 {
		cfg.MinPersistence = 0.75
	}
	if cfg.MinDegree <= 0 {
		cfg.MinDegree = 2
	}
	if cfg.MaxBackbone <= 0 {
		cfg.MaxBackbone = 4
	}
	return &Selector{
		mon:            monitor.New(cfg.VisWindow),
		degree:         make(map[wire.Addr]int),
		minPersistence: cfg.MinPersistence,
		minDegree:      cfg.MinDegree,
		maxBackbone:    cfg.MaxBackbone,
	}
}

// Observe records a visibility sample (the currently visible set).
func (s *Selector) Observe(visible []wire.Addr) {
	s.mon.ObserveVisible(time.Time{}, visible)
}

// SetDegree records a node's connectivity (e.g. gossiped neighbour count).
func (s *Selector) SetDegree(a wire.Addr, degree int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degree[a] = degree
}

// Backbone returns the current backbone: persistently visible nodes with
// sufficient degree, best first, at most MaxBackbone entries.
func (s *Selector) Backbone() []wire.Addr {
	scores := s.mon.Persistence()
	s.mu.Lock()
	defer s.mu.Unlock()
	type cand struct {
		addr  wire.Addr
		score float64
		deg   int
	}
	var cands []cand
	for _, as := range scores {
		if as.Score < s.minPersistence {
			continue
		}
		deg := s.degree[as.Addr]
		if deg < s.minDegree {
			continue
		}
		cands = append(cands, cand{as.Addr, as.Score, deg})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].deg != cands[j].deg {
			return cands[i].deg > cands[j].deg
		}
		return cands[i].addr < cands[j].addr
	})
	if len(cands) > s.maxBackbone {
		cands = cands[:s.maxBackbone]
	}
	out := make([]wire.Addr, len(cands))
	for i, c := range cands {
		out[i] = c.addr
	}
	return out
}
