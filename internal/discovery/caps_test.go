package discovery

import (
	"testing"

	"tiamat/wire"
)

// TestCapsKnowledgeLifecycle walks a peer through the capability
// knowledge states: unknown on first contact (conservative zero),
// known baseline after a caps-less announce, aware after a caps-bearing
// one, and back to baseline on rollback — with the membership revision
// bumping on every transition so ring-derived state rebuilds.
func TestCapsKnowledgeLifecycle(t *testing.T) {
	l := NewResponderList(0, nil)
	l.Observe("a")

	if caps, st := l.CapsKnowledge("a"); st != CapsUnknown || caps != 0 {
		t.Fatalf("first contact: caps=%#x state=%v, want unknown/0", caps, st)
	}
	if l.Caps("a") != 0 {
		t.Fatal("unknown peer must report zero caps")
	}
	if l.BaselinePeers() != 0 {
		t.Fatal("unknown is not known-baseline")
	}

	rev := l.Revision()
	l.ObserveAnnounce("a", 0, false) // caps-less announce: pre-capability build
	if caps, st := l.CapsKnowledge("a"); st != CapsBaseline || caps != 0 {
		t.Fatalf("bare announce: caps=%#x state=%v, want baseline/0", caps, st)
	}
	if l.BaselinePeers() != 1 {
		t.Fatalf("BaselinePeers = %d, want 1", l.BaselinePeers())
	}
	if l.Revision() == rev {
		t.Fatal("learning baseline must bump the revision")
	}

	rev = l.Revision()
	l.ObserveAnnounce("a", wire.CapsCurrent, false) // upgraded mid-flight
	if caps, st := l.CapsKnowledge("a"); st != CapsAware || caps != wire.CapsCurrent {
		t.Fatalf("caps announce: caps=%#x state=%v, want aware/current", caps, st)
	}
	if l.Caps("a") != wire.CapsCurrent || l.BaselinePeers() != 0 {
		t.Fatal("aware peer must report its set and leave the baseline count")
	}
	if l.Revision() == rev {
		t.Fatal("upgrade transition must bump the revision")
	}

	rev = l.Revision()
	l.ObserveAnnounce("a", wire.CapsCurrent, false) // steady state: no churn
	if l.Revision() != rev {
		t.Fatal("unchanged caps must not bump the revision")
	}

	l.ObserveAnnounce("a", 0, false) // rollback re-learns baseline
	if caps, st := l.CapsKnowledge("a"); st != CapsBaseline || caps != 0 {
		t.Fatalf("rollback: caps=%#x state=%v, want baseline/0", caps, st)
	}
	if l.Revision() == rev {
		t.Fatal("rollback transition must bump the revision")
	}

	if caps, st := l.CapsKnowledge("stranger"); st != CapsUnknown || caps != 0 {
		t.Fatalf("unlisted peer: caps=%#x state=%v, want unknown/0", caps, st)
	}
}

// TestCommonCapsConservative pins the multicast audience: an empty list
// is vacuously capable, one unknown-build peer empties the set, and a
// partially-capable peer removes exactly the bits it lacks.
func TestCommonCapsConservative(t *testing.T) {
	l := NewResponderList(0, nil)
	if got := l.CommonCaps(); got&wire.CapsCurrent != wire.CapsCurrent {
		t.Fatalf("empty list: common caps %#x, want every bit", got)
	}
	l.ObserveAnnounce("a", wire.CapsCurrent, false)
	if got := l.CommonCaps(); got != wire.CapsCurrent {
		t.Fatalf("fully-capable list: common caps %#x, want %#x", got, uint64(wire.CapsCurrent))
	}
	l.Observe("b") // known peer, unknown build
	if got := l.CommonCaps(); got != 0 {
		t.Fatalf("an unknown-build peer must empty the common set, got %#x", got)
	}
	l.ObserveAnnounce("b", wire.CapsCurrent&^wire.CapBudget, false)
	if got := l.CommonCaps(); got != wire.CapsCurrent&^wire.CapBudget {
		t.Fatalf("a peer lacking one bit must remove exactly that bit, got %#x", got)
	}
	l.ObserveAnnounce("b", 0, false) // rolled back to a baseline build
	if got := l.CommonCaps(); got != 0 {
		t.Fatalf("a known-baseline peer must empty the common set, got %#x", got)
	}
}
