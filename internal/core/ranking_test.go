package core

import (
	"context"
	"math/rand"
	"testing"

	"tiamat/trace"
	"tiamat/tuple"
	"tiamat/wire"
)

// holderRig is four instances on one memnet: n0 takes by exact key what
// one of n1..n3 has just put out, as the benchmark's walk4 workload does.
// n0's responder list starts as n1, n2, n3.
type holderRig struct {
	*rig
	reader  *Instance
	holders []*Instance
	next    int64
}

func newHolderRig(t *testing.T) *holderRig {
	r := newRig(t, []wire.Addr{"n0", "n1", "n2", "n3"}, nil)
	r.net.ConnectAll()
	h := &holderRig{rig: r, reader: r.inst["n0"]}
	for _, a := range []wire.Addr{"n1", "n2", "n3"} {
		h.reader.list.Observe(a)
		h.holders = append(h.holders, r.inst[a])
	}
	return h
}

// take puts a fresh tuple out at holders[k] and takes it from the reader.
func (h *holderRig) take(k int) {
	h.t.Helper()
	h.next++
	if err := h.holders[k].Out(tuple.T(tuple.String("evt"), tuple.Int(h.next)), nil); err != nil {
		h.t.Fatal(err)
	}
	res, ok, err := h.reader.Inp(context.Background(), tuple.Tmpl(tuple.String("evt"), tuple.Int(h.next)), nil)
	if err != nil || !ok || res.From != h.holders[k].Addr() {
		h.t.Fatalf("take %d from holder %d: %+v ok=%v err=%v", h.next, k, res, ok, err)
	}
}

// TestSkewedHoldersWalkCost: with holders drawn 0.6/0.3/0.1, ranking the
// responder list by recent share of finds keeps the walk near the
// frequency-ordered cost. A take is op, result, accept and ack, plus an
// op and a not-found per holder walked past: moving the last finder to
// the top walks past 0.72 on average (5.44 messages), the share ranking
// about 0.55 (5.10).
func TestSkewedHoldersWalkCost(t *testing.T) {
	const (
		warm    = 200
		takes   = 3000
		ceiling = 5.25
	)
	h := newHolderRig(t)
	rnd := rand.New(rand.NewSource(1))
	draw := func() int {
		switch x := rnd.Float64(); {
		case x >= 0.9:
			return 2
		case x >= 0.6:
			return 1
		}
		return 0
	}
	for k := 0; k < warm; k++ {
		h.take(draw())
	}
	before := h.met.Get(trace.CtrMsgsSent)
	for k := 0; k < takes; k++ {
		h.take(draw())
	}
	if got := float64(h.met.Get(trace.CtrMsgsSent)-before) / takes; got > ceiling {
		t.Fatalf("%.3f messages per take, want at most %.2f", got, ceiling)
	}
}

// TestRelocatedHolderOvertakes: after 200 finds at n1 its tuples move to
// n2 for good. n1 keeps the top until n2's share passes its own, on n2's
// sixth find, so n2 is the first contact from the seventh take after the
// move on; one find never reorders a list with a settled leader.
func TestRelocatedHolderOvertakes(t *testing.T) {
	h := newHolderRig(t)
	for k := 0; k < 200; k++ {
		h.take(0)
	}
	for k := 1; k <= 12; k++ {
		want := wire.Addr("n1")
		if k >= 7 {
			want = "n2"
		}
		if first := h.reader.list.Snapshot()[0]; first != want {
			t.Fatalf("take %d after the move: first contact %s, want %s", k, first, want)
		}
		h.take(1)
	}
}
