package core

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/space/naive"
	"tiamat/space/persist"
	"tiamat/transport/memnet"
	"tiamat/tuple"
)

// A stored out's space entry is its lease's live state (paper §2.5): the
// manager counts the out as a reservation, the entry keeps its expiry and
// its removal report ends it. These tests pin the accounting that follows:
// the manager's active outs and bytes are the space's residents, across a
// restart too, with one space-info tuple per space.

// node boots instances at one address over one space kind, on one virtual
// clock; a persist node reopens the same log at every boot.
type node struct {
	t    *testing.T
	kind string
	log  string
	clk  *clock.Virtual
	net  *memnet.Network
	inst *Instance
}

func newNode(t *testing.T, kind string) *node {
	clk := clock.NewVirtual(epoch)
	n := &node{t: t, kind: kind, log: filepath.Join(t.TempDir(), "a.log"), clk: clk,
		net: memnet.New(memnet.WithClock(clk))}
	t.Cleanup(func() {
		if n.inst != nil {
			n.inst.Close()
		}
		n.net.Close()
	})
	n.boot()
	return n
}

// boot closes the running instance, if any, and starts another.
func (n *node) boot() *Instance {
	t := n.t
	if n.inst != nil {
		n.inst.Close()
	}
	ep, err := n.net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Endpoint: ep, Clock: n.clk, Persistent: n.kind == "persist"}
	switch n.kind {
	case "naive":
		cfg.Space = naive.New(n.clk)
	case "persist":
		if cfg.Space, err = persist.Open(n.log, store.New(store.WithClock(n.clk)), n.clk); err != nil {
			t.Fatal(err)
		}
	}
	if n.inst, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	return n.inst
}

// infoTuples returns the space-info tuples resident at i.
func infoTuples(i *Instance) []tuple.Tuple {
	var infos []tuple.Tuple
	for _, t := range i.LocalSpace().Snapshot() {
		if s, _ := t.StringAt(0); s == SpaceInfoName {
			infos = append(infos, t)
		}
	}
	return infos
}

// checkConserved asserts that the manager's active leases and held bytes
// are i's resident outs and their bytes: every resident but the
// space-info tuple, which never expires and holds no lease. It reads the
// space first, so a lazy space reclaims what expired before the manager
// is read.
func checkConserved(t *testing.T, what string, i *Instance, outs int) {
	t.Helper()
	sp := i.LocalSpace()
	infos := infoTuples(i)
	residents, bytes := sp.Count()-len(infos), sp.Bytes()
	for _, info := range infos {
		bytes -= info.Size()
	}
	if residents != outs {
		t.Fatalf("%s: %d outs resident, want %d", what, residents, outs)
	}
	if st := i.LeaseManager().Stats(); st.Active != residents || st.BytesHeld != bytes {
		t.Fatalf("%s: Active %d, BytesHeld %d; the space holds %d outs of %d B",
			what, st.Active, st.BytesHeld, residents, bytes)
	}
}

// TestOutLeasesAreTheSpaceResidents: after outs, takes, a revocation and
// expiries, on every space, the lease manager holds exactly what the space
// does; and a persistent node restarted over its log holds its replayed
// outs under lease, so MaxActive, the byte pool and revocation reach them.
func TestOutLeasesAreTheSpaceResidents(t *testing.T) {
	hour := lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 10})
	minute := lease.Flexible(lease.Terms{Duration: time.Minute, MaxBytes: 1 << 10})
	for _, kind := range []string{"store", "naive", "persist"} {
		t.Run(kind, func(t *testing.T) {
			n := newNode(t, kind)
			a := n.inst
			for k := int64(0); k < 12; k++ {
				if err := a.Out(req(k), hour); err != nil {
					t.Fatal(err)
				}
			}
			for k := int64(100); k < 104; k++ {
				if err := a.Out(req(k), minute); err != nil {
					t.Fatal(err)
				}
			}
			checkConserved(t, "16 outs", a, 16)
			for k := int64(0); k < 2; k++ {
				if _, ok, err := a.Inp(context.Background(), tuple.TemplateOf(req(k)), nil); err != nil || !ok {
					t.Fatalf("Inp %d: %v %v", k, ok, err)
				}
			}
			checkConserved(t, "two taken", a, 14)
			if got := a.LeaseManager().Revoke(1); got != 1 {
				t.Fatalf("revoked %d", got)
			}
			checkConserved(t, "one revoked", a, 13)
			if _, ok, _ := a.Rdp(context.Background(), tuple.TemplateOf(req(0)), nil); ok {
				t.Fatal("a taken tuple is back")
			}
			n.clk.Advance(2 * time.Minute)
			checkConserved(t, "the minute outs expired", a, 10)
			for k := int64(100); k < 104; k++ {
				if _, ok, _ := a.Rdp(context.Background(), tuple.TemplateOf(req(k)), nil); ok {
					t.Fatalf("%v outlived its lease", req(k))
				}
			}
			if kind != "persist" {
				return
			}
			a = n.boot()
			checkConserved(t, "restarted over the log", a, 10)
			if got := a.LeaseManager().Revoke(1); got != 1 {
				t.Fatalf("revoked %d replayed outs", got)
			}
			checkConserved(t, "a replayed out revoked", a, 9)
		})
	}
}

// TestRevokedOutStaysGoneAcrossRestart: a persistent node revokes an out
// an hour before its lease ends and restarts within that hour. The log
// holds the revocation, so replay brings back the space-info tuple alone.
func TestRevokedOutStaysGoneAcrossRestart(t *testing.T) {
	n := newNode(t, "persist")
	if err := n.inst.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	if got := n.inst.LeaseManager().Revoke(1); got != 1 {
		t.Fatalf("revoked %d", got)
	}
	a := n.boot()
	if c := a.LocalSpace().Count(); c != 1 || len(infoTuples(a)) != 1 {
		t.Fatalf("%d residents after the restart %v, want the space-info tuple alone", c, a.LocalSpace().Snapshot())
	}
	checkConserved(t, "restarted after the revocation", a, 0)
}

// TestSpaceInfoSeededOncePerSpace: a persistent space replays the
// space-info tuple an earlier boot seeded, and New keeps it instead of
// adding one per boot (paper §2.4: a space holds one info tuple).
func TestSpaceInfoSeededOncePerSpace(t *testing.T) {
	n := newNode(t, "persist")
	for boot := 1; boot <= 4; boot++ {
		if boot > 1 {
			n.boot()
		}
		infos := infoTuples(n.inst)
		if len(infos) != 1 {
			t.Fatalf("boot %d: %d space-info tuples %v, want 1", boot, len(infos), infos)
		}
		if p, _ := infos[0].BoolAt(2); !p {
			t.Fatalf("boot %d: info tuple %v does not say persistent", boot, infos[0])
		}
	}
}

// armCounter is a virtual clock that counts the runtime timers asked of it.
type armCounter struct {
	*clock.Virtual
	arms atomic.Int64
}

func (c *armCounter) AfterFunc(d time.Duration, f func()) func() bool {
	c.arms.Add(1)
	return c.Virtual.AfterFunc(d, f)
}

// TestPlacedTupleArmsOnlyTheJanitor: an Out's one deadline is its entry's
// expiry, a janitor entry on the node's one queue: the first Out at a
// fresh node arms no timer, since the orphan sweep's pending one already
// covers it, and schedules nothing for the lease manager. Its reservation
// ends when the tuple goes, taken or reclaimed, with no lease expiring.
func TestPlacedTupleArmsOnlyTheJanitor(t *testing.T) {
	clk := &armCounter{Virtual: clock.NewVirtual(epoch)}
	net := memnet.New(memnet.WithClock(clk.Virtual))
	defer net.Close()
	ep, err := net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Endpoint: ep, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	minute := lease.Flexible(lease.Terms{Duration: time.Minute, MaxBytes: 1 << 10})
	before := clk.arms.Load()
	if err := a.Out(req(1), minute); err != nil {
		t.Fatal(err)
	}
	if got := clk.arms.Load() - before; got != 0 {
		t.Fatalf("the first Out armed %d timers, want 0: the node's queue is armed already", got)
	}
	if _, ok, _ := a.Inp(context.Background(), reqTmpl(), nil); !ok {
		t.Fatal("Inp missed")
	}
	if err := a.Out(req(2), minute); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute + time.Second)
	if a.LocalSpace().Count() != 1 {
		t.Fatal("the second out was not reclaimed")
	}
	st := a.LeaseManager().Stats()
	if st.Active != 0 || st.BytesHeld != 0 || st.Expired != 0 || st.Granted != 2 || st.Cancelled != 2 {
		t.Fatalf("stats %+v: want two outs granted and ended with their tuples, none expired by the manager", st)
	}
}
