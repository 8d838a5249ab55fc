package discovery

import (
	"testing"

	"tiamat/trace"
	"tiamat/wire"
)

// TestBelowFloorAnnounceNotListed pins the wire floor (DESIGN.md §14): an
// announce whose caps lack a bit of wire.CapsCurrent, a caps-less one
// included, lists nobody and changes nothing about a listed peer; it is
// counted as discovery.below_floor. A later announce at the floor from
// the same address lists it, as its first announce.
func TestBelowFloorAnnounceNotListed(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(0, met)
	l.Observe("b") // listed by another frame, never announced
	rev := l.Revision()

	for k, caps := range []uint64{0, wire.CapsCurrent &^ wire.CapBudget, wire.CapCoalescedAcks} {
		if l.ObserveAnnounce("a", caps, false) {
			t.Fatalf("announce with caps %#x reported a first announce", caps)
		}
		if l.ObserveAnnounce("b", caps, true) {
			t.Fatalf("announce with caps %#x from a listed peer reported a first announce", caps)
		}
		if got := met.Get(trace.CtrBelowFloor); got != int64(2*(k+1)) {
			t.Fatalf("%s = %d after %d below-floor announces, want %d", trace.CtrBelowFloor, got, 2*(k+1), 2*(k+1))
		}
	}
	if got := l.All(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("list after below-floor announces = %v, want [b]", got)
	}
	if l.Revision() != rev {
		t.Fatal("a below-floor announce moved the membership revision")
	}
	if l.Demoted("b") {
		t.Fatal("a below-floor announce's degraded marker reached the listed peer")
	}

	if !l.ObserveAnnounce("a", wire.CapsCurrent, false) {
		t.Fatal("first announce at the floor not reported first")
	}
	if !l.ObserveAnnounce("b", wire.CapsCurrent|1<<40, false) {
		t.Fatal("a listed peer's first announce at the floor, with a bit beyond it, not reported first")
	}
	if l.ObserveAnnounce("a", wire.CapsCurrent, false) {
		t.Fatal("a second announce reported first")
	}
	if !l.Contains("a") || l.Len() != 2 {
		t.Fatalf("list = %v, want b and a", l.All())
	}
	if got := met.Get(trace.CtrBelowFloor); got != 6 {
		t.Fatalf("%s = %d, want 6: announces at the floor are not counted", trace.CtrBelowFloor, got)
	}
}
