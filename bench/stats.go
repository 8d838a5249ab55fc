package bench

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), so the
// spreads printed here are the ones the driver checks. With fewer than
// two values both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summary is one metric over the slices or repeats of a workload. Value is
// what the run reports and -compare compares: the median, or for a metric
// that is a time or a rate the quartile on its fast side (fastQuartile in
// run.go says which and why).
type summary struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// Which of its values a summary reports.
const (
	pickMedian = iota
	pickLow    // the first quartile: the fast side of a time
	pickHigh   // the third quartile: the fast side of a rate
)

func summarize(runs []float64, pick int) summary {
	q1, q3 := quartiles(runs)
	s := summary{Median: median(runs), Q1: q1, Q3: q3, Runs: runs}
	s.Value = [...]float64{pickMedian: s.Median, pickLow: q1, pickHigh: q3}[pick]
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
