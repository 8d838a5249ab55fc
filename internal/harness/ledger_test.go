package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"tiamat/internal/core"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/space"
	"tiamat/tuple"
)

func outEv(v int64, err error) event { return event{kind: evOut, token: v, node: "n00", err: err} }
func takeEv(v int64) event           { return event{kind: evTake, token: v, node: "n01", from: "n00"} }
func residentEv(v int64) event       { return event{kind: evResident, token: v, node: "n02"} }

// history is a ledger holding a kill and then events, in order.
func history(events ...event) *ledger {
	l := newLedger("t")
	l.fault("kill n09")
	for _, e := range events {
		l.add(e)
	}
	return l
}

func TestLedgerCleanHistory(t *testing.T) {
	l := history(
		outEv(1, nil), takeEv(1), // taken once
		outEv(2, nil), residentEv(2), // never taken, still resident
		outEv(3, core.ErrClosed),            // raced a kill: exempt from the loss clause
		outEv(4, core.ErrClosed), takeEv(4), // committed despite the error
	)
	if err := l.check(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerClauses: each clause, broken alone, is named with its token,
// and the token's timeline carries its events and the run's fault.
func TestLedgerClauses(t *testing.T) {
	for _, c := range []struct {
		name   string
		events []event
		clause string
		lines  []string
	}{
		{"duplicate take", []event{outEv(7, nil), takeEv(7), takeEv(7)},
			"1 taken more than once (tokens [7])", []string{"out at n00", "taken by n01 from n00"}},
		{"resident after its take", []event{outEv(7, nil), takeEv(7), residentEv(7)},
			"1 resident after its take (tokens [7])", []string{"taken by n01 from n00", "resident at n02"}},
		{"acknowledged out lost", []event{outEv(7, nil)},
			"1 acknowledged but neither taken nor resident (tokens [7])", []string{"out at n00"}},
		{"failed out is exempt from the loss clause only", []event{outEv(7, core.ErrClosed), takeEv(7), takeEv(7)},
			"1 taken more than once (tokens [7])", []string{"failed: " + core.ErrClosed.Error()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := history(c.events...).check()
			if err == nil {
				t.Fatal("check passed a broken history")
			}
			msg := err.Error()
			for _, want := range append([]string{c.clause, "token 7:", "fault: kill n09"}, c.lines...) {
				if !strings.Contains(msg, want) {
					t.Errorf("%q missing from:\n%s", want, msg)
				}
			}
			if n := strings.Count(msg, "contract violated"); n != 1 {
				t.Errorf("%d verdicts in:\n%s", n, msg)
			}
		})
	}
}

// TestLedgerDrainBound: an acknowledged out still untaken when drain gives
// up breaks the drain bound even though it is resident.
func TestLedgerDrainBound(t *testing.T) {
	l := history(outEv(7, nil))
	l.drain(10 * time.Millisecond)
	l.add(residentEv(7))
	err := l.check()
	if err == nil || !strings.Contains(err.Error(), "1 acknowledged but not taken within 10ms (tokens [7])") {
		t.Fatalf("want the drain bound broken by token 7, got %v", err)
	}
}

func TestLedgerPrintsAtMostTenTimelines(t *testing.T) {
	var events []event
	for v := int64(0); v < 13; v++ {
		events = append(events, outEv(v, nil))
	}
	msg := fmt.Sprint(history(events...).check())
	if !strings.Contains(msg, "13 acknowledged but neither taken nor resident") {
		t.Errorf("clause not named with all 13 tokens:\n%s", msg)
	}
	if n := strings.Count(msg, "\ntoken "); n != maxTimelines {
		t.Errorf("%d timelines printed, want %d:\n%s", n, maxTimelines, msg)
	}
	if !strings.Contains(msg, "(3 more tokens not shown)") {
		t.Errorf("the tokens left out are not counted:\n%s", msg)
	}
}

// acceptReleases is a space whose holds never finalise: Accept puts the
// tuple back, as Release does — a node that duplicates every remote take.
type acceptReleases struct{ space.Space }

type releasing struct{ space.Hold }

func (h releasing) Accept() { h.Release() }

type releasingSink struct{ space.Sink }

func (s releasingSink) Deliver(t tuple.Tuple, h space.Hold) {
	if h != nil {
		h = releasing{h}
	}
	s.Sink.Deliver(t, h)
}

func (s acceptReleases) Hold(p tuple.Template) (space.Hold, bool) {
	h, ok := s.Space.Hold(p)
	if !ok {
		return nil, false
	}
	return releasing{h}, true
}

func (s acceptReleases) Park(p tuple.Template, take bool, sink space.Sink) space.Parked {
	return s.Space.Park(p, take, releasingSink{sink})
}

// TestLedgerCatchesReleasedAccepts runs a real memnet cluster whose n00
// turns every Accept into a Release: the checker must report each token n01
// took as resident after its take, and print where it went.
func TestLedgerCatchesReleasedAccepts(t *testing.T) {
	c, err := newCluster(clusterOpts{n: 2, mutate: func(idx int, cfg *core.Config) {
		if idx == 0 {
			cfg.Space = acceptReleases{store.New()}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.net.ConnectAll()
	l := newLedger("m")
	const tokens = 5
	for v := int64(0); v < tokens; v++ {
		if err := l.out(c.inst[0], v, nil); err != nil {
			t.Fatal(err)
		}
	}
	terms := lease.Flexible(lease.Terms{Duration: 5 * time.Second, MaxRemotes: 4})
	for v := int64(0); v < tokens; v++ {
		if _, err := l.in(context.Background(), c.inst[1], l.one(v), terms); err != nil {
			t.Fatal(err)
		}
	}
	// Each accept reaches n00 after its In returned; wait for the last
	// release (the space-info tuple is resident too).
	for deadline := time.Now().Add(5 * time.Second); c.inst[0].LocalSpace().Count() < tokens+1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d tuples resident at n00, want %d", c.inst[0].LocalSpace().Count(), tokens+1)
		}
		time.Sleep(time.Millisecond)
	}
	l.sweep(c.inst)
	err = l.check()
	if err == nil {
		t.Fatal("check passed a node that releases what it accepted")
	}
	t.Log(err)
	for _, want := range []string{"5 resident after its take (tokens [0 1 2 3 4])", "token 4:", "out at n00", "taken by n01 from n00", "resident at n00"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q missing from the violation", want)
		}
	}
}
