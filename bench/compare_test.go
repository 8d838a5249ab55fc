package bench

import "testing"

func TestVerdict(t *testing.T) {
	// runs around a centre, each off by the given shares of it
	around := func(centre float64, offs ...float64) summary {
		runs := make([]float64, len(offs))
		for i, o := range offs {
			runs[i] = centre * (1 + o)
		}
		return summarize(runs, pickMedian)
	}
	tight := []float64{-0.02, -0.01, 0, 0.01, 0.02}
	wide := []float64{-0.3, -0.15, 0, 0.15, 0.3}
	cases := []struct {
		name         string
		a, b         summary
		higherBetter bool
		bound, floor float64
		want         string
	}{
		{"same", around(100, tight...), around(101, tight...), false, 0.25, 0, "ok"},
		{"worse within the bound", around(100, tight...), around(120, tight...), false, 0.25, 0, "ok"},
		{"worse beyond the bound", around(100, tight...), around(130, tight...), false, 0.25, 0, "REGRESSED"},
		{"higher is better, lower beyond the bound", around(100, tight...), around(70, tight...), true, 0.25, 0, "REGRESSED"},
		{"higher is better, higher", around(100, tight...), around(130, tight...), true, 0.25, 0, "ok"},
		{"wide spread, medians equal", around(100, wide...), around(100, wide...), false, 0.25, 0, "unresolved"},
		{"wide spread, b's median better, runs overlap", around(100, wide...), around(90, wide...), false, 0.25, 0, "unresolved"},
		{"wide spread, every run of b better", around(100, wide...), around(40, wide...), false, 0.25, 0, "ok"},
		{"wide spread, worse beyond the bound, runs overlap", around(100, wide...), around(135, wide...), false, 0.25, 0, "unresolved"},
		{"wide spread, every run of b worse", around(100, wide...), around(160, tight...), false, 0.25, 0, "REGRESSED"},
		{"wide spread, five times worse", around(100, wide...), around(500, wide...), false, 0.25, 0, "REGRESSED"},
		{"twice worse, under the floor", around(0.0002, tight...), around(0.0004, tight...), false, 0.25, 0.050, "ok"},
		{"twice worse, over the floor", around(0.2, tight...), around(0.4, tight...), false, 0.25, 0.050, "REGRESSED"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.higherBetter, c.bound, c.floor); got.word != c.want {
			t.Errorf("%s: %s (worse %.2f, spread %.2f), want %s", c.name, got.word, got.worse, got.spread, c.want)
		}
	}
}
