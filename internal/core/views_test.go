package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

// reportCounters names the counter behind every counted field of the five
// reports; reportLive lists the fields that are live state, read where it
// lives. A field in neither fails TestReportViewsReadTheNodeRegistry: a
// report gains a number only by gaining its one producer.
var reportCounters = map[string]string{
	"GovernorReport.ShedProbes":   trace.CtrGovShedProbes,
	"GovernorReport.ShedWaits":    trace.CtrGovShedWaits,
	"GovernorReport.ShedOuts":     trace.CtrGovShedOuts,
	"GovernorReport.QuotaSheds":   trace.CtrGovQuotaSheds,
	"GovernorReport.QueueSheds":   trace.CtrGovQueueSheds,
	"GovernorReport.Shrinks":      trace.CtrGovShrinks,
	"GovernorReport.ShrunkBytes":  trace.CtrGovShrunkBytes,
	"GovernorReport.Revokes":      trace.CtrGovRevokes,
	"GovernorReport.GrantClamps":  trace.CtrGovClamps,
	"GovernorReport.DeadlineCuts": trace.CtrGovDeadlineCuts,
	"GovernorReport.Queued":       trace.CtrGovQueued,

	"MobilityReport.Rearms":       trace.CtrRearms,
	"MobilityReport.OrphanWaits":  trace.CtrOrphanWaits,
	"MobilityReport.OrphanHolds":  trace.CtrOrphanHolds,
	"MobilityReport.OrphanProbes": trace.CtrOrphanProbes,
	"MobilityReport.VisJoins":     trace.CtrVisJoins,
	"MobilityReport.VisLeaves":    trace.CtrVisLeaves,

	"GrayReport.Hedges":          trace.CtrHedges,
	"GrayReport.HedgeWins":       trace.CtrHedgeWins,
	"GrayReport.HedgeSuppressed": trace.CtrHedgeSuppressed,

	"ReplicationReport.Writes":        trace.CtrReplWrites,
	"ReplicationReport.FailoverTakes": trace.CtrReplFailoverTakes,
	"ReplicationReport.Repairs":       trace.CtrReplRepairs,
	"ReplicationReport.FencedHolds":   trace.CtrReplFencedHolds,
	"ReplicationReport.StaleReads":    trace.CtrReplStaleReads,
	"ReplicationReport.WriteRefusals": trace.CtrReplWriteRefused,
}

var reportLive = map[string]bool{
	"GovernorReport.QueueDelay":         true,
	"GrayReport.HedgeDelay":             true,
	"GrayReport.Degraded":               true,
	"ReplicationReport.Outs":            true,
	"ReplicationReport.Copies":          true,
	"ReplicationReport.Fences":          true,
	"ReplicationReport.UnderReplicated": true,
}

// countedFields walks i's four reports and calls f with every counted
// field's name, value and counter.
func countedFields(t *testing.T, i *Instance, f func(field string, v int64, ctr string)) {
	t.Helper()
	for _, rep := range []any{i.Governor(), i.Mobility(), i.Gray(), i.Replication()} {
		rv := reflect.ValueOf(rep)
		for k := 0; k < rv.NumField(); k++ {
			field := rv.Type().Name() + "." + rv.Type().Field(k).Name
			ctr, ok := reportCounters[field]
			if !ok {
				if !reportLive[field] {
					t.Errorf("%s is neither a view of a counter nor declared live state", field)
				}
				continue
			}
			v := rv.Field(k)
			if v.CanUint() {
				f(field, int64(v.Uint()), ctr)
			} else {
				f(field, v.Int(), ctr)
			}
		}
	}
}

// TestReportViewsReadTheNodeRegistry: two instances handed one
// Config.Metrics each count into a registry of their own. Sheds, a join,
// a replica write, a hedge and a re-arm are driven on a alone, by scripted raw peers b never hears of: b's registry
// and reports stay at zero, every counted report field of a is its
// counter in a.Metrics(), and the shared registry reads the two nodes'
// sum.
func TestReportViewsReadTheNodeRegistry(t *testing.T) {
	shared := &trace.Metrics{}
	// The network counts into a registry of its own, so shared holds what
	// the two instances counted and nothing else.
	net := memnet.New()
	defer net.Close()
	boot := func(addr wire.Addr) *Instance {
		ep, err := net.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := New(Config{
			Endpoint: ep, Metrics: shared, Replicas: 2,
			ContactTimeout: 25 * time.Millisecond,
			Governor:       GovernorConfig{MaxPeerWaits: 2, MaxTotalWaits: 4, ShedWatermark: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		return inst
	}
	a, b := boot("a"), boot("b")
	raw := func(addr wire.Addr) *inbox {
		ep, err := net.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		net.SetVisible("a", addr, true)
		return &inbox{ep: ep}
	}
	send := func(from *inbox, m *wire.Message) {
		t.Helper()
		m.From = from.ep.Addr()
		if err := from.ep.Send("a", m); err != nil {
			t.Fatal(err)
		}
	}
	z, y, late := raw("z"), raw("y"), raw("late")
	raw("w") // a silent responder for the hedge to go to

	// A join: z announces itself at the wire floor.
	send(z, &wire.Message{Type: wire.TAnnounce, Caps: wire.CapsCurrent})
	eventually(t, "a listed z", func() bool { return a.list.Contains("z") })

	// A replica write: z is the ring's one backup for a's out, and never
	// acks it.
	if err := a.Out(tuple.T(tuple.String("cfg"), tuple.Int(1)), nil); err != nil {
		t.Fatal(err)
	}

	// Sheds. Two registered waits are half the wait table, which is the
	// shed watermark: a probe is refused on pressure, and a third wait
	// from z is admitted under a clamped grant, then refused on z's quota.
	send(z, opFrame("z", 1, wire.OpIn, time.Hour))
	send(z, opFrame("z", 2, wire.OpIn, time.Hour))
	eventually(t, "two waits registered", func() bool { return waitsLen(a) == 2 })
	send(y, opFrame("y", 3, wire.OpInp, time.Hour))
	send(z, opFrame("z", 4, wire.OpIn, time.Hour))
	eventually(t, "probe shed, wait refused on quota", func() bool {
		g := a.Governor()
		return g.ShedProbes == 1 && g.QuotaSheds == 1 && g.GrantClamps >= 1
	})

	// A hedge and a re-arm: a's blocking rd finds z and w silent, hedges
	// from the one to the other, and is answered by late, which walks into
	// range only then.
	a.list.Observe("w")
	got := make(chan error, 1)
	go func() {
		_, err := a.Rd(context.Background(), reqTmpl(), opLease(10*time.Second))
		got <- err
	}()
	eventually(t, "hedge fired", func() bool { return a.Gray().Hedges >= 1 })
	go func() {
		for m := range late.ep.Recv() {
			if m.Type == wire.TOp {
				_ = late.ep.Send("a", &wire.Message{Type: wire.TResult, ID: m.ID, From: "late", Found: true, Tuple: req(1)})
			}
		}
	}()
	send(late, &wire.Message{Type: wire.TAnnounce, Caps: wire.CapsCurrent})
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("rd: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed rd never answered")
	}

	// Nothing counts from here on.
	a.Close()
	b.Close()

	am, bm := a.Metrics(), b.Metrics()
	driven := map[string]bool{}
	countedFields(t, a, func(field string, v int64, ctr string) {
		if own := am.Get(ctr); v != own {
			t.Errorf("a: %s = %d, a.Metrics().Get(%q) = %d", field, v, ctr, own)
		}
		driven[field] = v > 0
	})
	for _, field := range []string{
		"GovernorReport.ShedProbes", "GovernorReport.QuotaSheds", "GovernorReport.GrantClamps",
		"MobilityReport.Rearms", "MobilityReport.VisJoins", "GrayReport.Hedges",
		"ReplicationReport.Writes",
	} {
		if !driven[field] {
			t.Errorf("a: %s read 0 after its event was driven", field)
		}
	}
	countedFields(t, b, func(field string, v int64, ctr string) {
		if v != 0 || bm.Get(ctr) != 0 {
			t.Errorf("b: %s = %d, b.Metrics().Get(%q) = %d after events on a alone", field, v, ctr, bm.Get(ctr))
		}
	})
	for name, sum := range shared.Snapshot() {
		if own := am.Get(name) + bm.Get(name); sum != own {
			t.Errorf("shared %s = %d, a + b = %d", name, sum, own)
		}
	}
}
