package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// outLease grants the byte and remote budget an out with write-through
// replication spends.
func outLease() lease.Requester {
	return lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 16, MaxRemotes: 100})
}

// These tests cover the leased replica sets (DESIGN.md §13): write-through
// on out, reads and failover takes from the replica store after node
// loss, invalidation and fencing, and the anti-entropy repair sweep.
// The rig's virtual clock never advances on its own, so every path
// exercised here is event-driven (acks, synchronous unreachable errors)
// or invoked directly (repairSweep).

// replRig builds a fully-visible cluster with replication on and waits
// for the boot hellos to settle membership, so ring placement is
// deterministic before the first out.
func replRig(t *testing.T, mutate func(*Config), addrs ...wire.Addr) *rig {
	t.Helper()
	r := newRig(t, addrs, func(c *Config) {
		c.Replicas = 2
		if mutate != nil {
			mutate(c)
		}
	})
	r.net.ConnectAll()
	// Boot announces fire before the rig connects visibility, so seed the
	// responder lists directly — deterministic membership means
	// deterministic ring placement. Seeding goes through ObserveAnnounce
	// with the full capability set: the ring only places copies on peers
	// that advertised the replica protocol (DESIGN.md §14).
	for _, a := range addrs {
		for _, b := range addrs {
			if a != b {
				r.inst[a].list.ObserveAnnounce(b, wire.CapsCurrent, false)
			}
		}
	}
	return r
}

func copiesAcross(r *rig, p tuple.Template) int {
	n := 0
	for _, inst := range r.inst {
		n += inst.ReplicaCopies(p)
	}
	return n
}

// copyHolder returns the one instance (other than origin) holding a
// replica copy matching p.
func copyHolder(t *testing.T, r *rig, origin wire.Addr, p tuple.Template) (wire.Addr, *Instance) {
	t.Helper()
	for a, inst := range r.inst {
		if a != origin && inst.ReplicaCopies(p) > 0 {
			return a, inst
		}
	}
	t.Fatal("no replica copy holder found")
	return "", nil
}

func TestWriteThroughReplicates(t *testing.T) {
	r := replRig(t, nil, "a", "b", "c")
	a := r.inst["a"]
	if err := a.Out(req(1), outLease()); err != nil {
		t.Fatal(err)
	}
	// Out waits for the backup ack, so the copy is placed on return.
	if n := copiesAcross(r, reqTmpl()); n != 1 {
		t.Fatalf("copies after out = %d, want 1 (R=2 means one backup)", n)
	}
	rep := a.Replication()
	if rep.Writes == 0 || rep.Outs != 1 || rep.UnderReplicated != 0 {
		t.Fatalf("origin report = %+v, want acked single out", rep)
	}
	// The origin still serves the tuple authoritatively.
	res, ok, err := r.inst["b"].Inp(context.Background(), reqTmpl(), outLease())
	if err != nil || !ok || res.From != "a" {
		t.Fatalf("Inp = %+v %v %v, want authoritative serve from a", res, ok, err)
	}
}

// typeGate holds every frame of one type an endpoint is asked to send at
// gate.
type typeGate struct {
	transport.Endpoint
	typ  wire.Type
	gate func()
}

func (e typeGate) Send(to wire.Addr, m *wire.Message) error {
	if m.Type == e.typ {
		pass(e.gate)
	}
	return e.Endpoint.Send(to, m)
}

// TestReplicatedOutRacingCloseNotAcknowledged: an Out at a replicated node
// whose Close began before the write-through returned is acknowledged only
// if a backup acked a copy — the node's own copy goes with it. Close lands
// at two instants: after the space stored the tuple but before its
// out-lease record, which is then never made (and used to read as "taken
// by a local taker"), and before the replicate leaves, which then fails
// (and used to settle the wait over no target, a coin toss between that
// and the teardown). Each edge runs sixteen times.
func TestReplicatedOutRacingCloseNotAcknowledged(t *testing.T) {
	for _, edge := range []string{"before the lease record", "before the replicate"} {
		t.Run(edge, func(t *testing.T) {
			for round := 0; round < 16; round++ {
				gate, reached, open := stop()
				sp := &stoppableSpace{}
				var a *Instance
				r := replRig(t, func(c *Config) {
					switch {
					case c.Endpoint.Addr() != "a":
					case edge == "before the lease record":
						sp.Space = store.New(store.WithClock(c.Clock), store.WithMetrics(c.Metrics),
							store.WithRemovalHook(func(id uint64) { a.releaseOutLease(id) }))
						c.Space = sp
					default:
						c.Endpoint = typeGate{c.Endpoint, wire.TOut, gate} // a's only TOuts are replicates
					}
				}, "a", "b", "c")
				a = r.inst["a"]
				sp.afterOut = gate // set after New, whose space-info Out must pass
				done := make(chan error, 1)
				go func() { done <- a.Out(req(int64(round)), outLease()) }()
				<-reached
				a.Close()
				close(open)
				if err := <-done; !errors.Is(err, ErrClosed) {
					t.Fatalf("round %d: Out raced by Close = %v, want ErrClosed", round, err)
				}
			}
		})
	}
}

func TestReplicaServesReadAfterOriginLoss(t *testing.T) {
	r := replRig(t, nil, "a", "b", "c")
	a := r.inst["a"]
	if err := a.Out(req(7), outLease()); err != nil {
		t.Fatal(err)
	}
	holder, h := copyHolder(t, r, "a", reqTmpl())
	a.Close()

	// Any other node's read is answered from the surviving copy.
	var reader *Instance
	for addr, inst := range r.inst {
		if addr != "a" && addr != holder {
			reader = inst
		}
	}
	res, ok, err := reader.Rdp(context.Background(), reqTmpl(), outLease())
	if err != nil || !ok || !res.Tuple.Equal(req(7)) {
		t.Fatalf("Rdp after origin loss = %+v %v %v", res, ok, err)
	}
	if h.Replication().StaleReads == 0 {
		t.Fatal("stale read not counted on the copy holder")
	}
	// A read is non-destructive: the copy stays.
	if h.ReplicaCopies(reqTmpl()) != 1 {
		t.Fatal("read consumed the replica copy")
	}
}

func TestFailoverTakeExactlyOnce(t *testing.T) {
	r := replRig(t, nil, "a", "b", "c")
	a := r.inst["a"]
	if err := a.Out(req(3), outLease()); err != nil {
		t.Fatal(err)
	}
	if copiesAcross(r, reqTmpl()) != 1 {
		t.Fatal("tuple not replicated before kill")
	}
	a.Close()

	// The first attempt after the kill arms the holder's failover grace
	// and refuses — in-flight invalidations get one ContactTimeout to
	// land before a copy may be surrendered.
	if _, ok, _ := r.inst["b"].Inp(context.Background(), reqTmpl(), outLease()); ok {
		t.Fatal("take won before the failover grace elapsed")
	}
	r.clk.Advance(300 * time.Millisecond)

	// Both survivors race to take; exactly one may win.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		got  []Result
		errs []error
	)
	for _, addr := range []wire.Addr{"b", "c"} {
		inst := r.inst[addr]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, ok, err := inst.Inp(context.Background(), reqTmpl(), outLease())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
			} else if ok {
				got = append(got, res)
			}
		}()
	}
	wg.Wait()
	if len(errs) != 0 {
		t.Fatalf("failover takes errored: %v", errs)
	}
	if len(got) != 1 || !got[0].Tuple.Equal(req(3)) {
		t.Fatalf("failover takes won = %d (%v), want exactly 1", len(got), got)
	}
	var takes, fences uint64
	for addr, inst := range r.inst {
		if addr == "a" {
			continue
		}
		rep := inst.Replication()
		takes += rep.FailoverTakes
		fences += uint64(rep.Fences)
	}
	if takes != 1 {
		t.Fatalf("failover takes counted = %d, want 1", takes)
	}
	if fences == 0 {
		t.Fatal("consumed identity not fenced on the holder")
	}
	if copiesAcross(r, reqTmpl()) != 0 {
		t.Fatal("replica copy survived the failover take")
	}
	// Nothing left: later takes find nothing.
	if _, ok, _ := r.inst["b"].Inp(context.Background(), reqTmpl(), outLease()); ok {
		t.Fatal("second take matched a consumed tuple")
	}
}

func TestFailoverRefusedWhileOriginAlive(t *testing.T) {
	r := replRig(t, nil, "a", "b", "c")
	a := r.inst["a"]
	if err := a.Out(req(4), outLease()); err != nil {
		t.Fatal(err)
	}
	_, h := copyHolder(t, r, "a", reqTmpl())
	// Serve the take normally: the origin is alive and answers first, so
	// no failover take may be counted anywhere even though every
	// destructive contact carries the flag.
	res, ok, err := r.inst["b"].Inp(context.Background(), reqTmpl(), outLease())
	if err != nil || !ok || res.From != "a" {
		t.Fatalf("Inp = %+v %v %v", res, ok, err)
	}
	for _, inst := range r.inst {
		if n := inst.Replication().FailoverTakes; n != 0 {
			t.Fatalf("failover take served while origin alive (%d)", n)
		}
	}
	// The requester-driven invalidation drains the now-stale copy.
	eventually(t, "stale copy invalidated after authoritative take", func() bool {
		return h.ReplicaCopies(reqTmpl()) == 0
	})
}

func TestTakeInvalidatesReplicas(t *testing.T) {
	r := replRig(t, nil, "a", "b", "c")
	a := r.inst["a"]
	if err := a.Out(req(5), outLease()); err != nil {
		t.Fatal(err)
	}
	// A local take at the origin consumes the authoritative tuple; the
	// removal hook tells the backups.
	if _, ok, err := a.Inp(context.Background(), reqTmpl(), outLease()); err != nil || !ok {
		t.Fatalf("local Inp failed: %v %v", ok, err)
	}
	eventually(t, "copies drained after origin-side take", func() bool {
		return copiesAcross(r, reqTmpl()) == 0
	})
}

func TestInvalidateFencesLateReplicate(t *testing.T) {
	r := replRig(t, nil, "b", "c")
	b := r.inst["b"]
	repl := &wire.Message{
		Type: wire.TOut, ID: 901, From: "c", TTL: time.Minute,
		Tuple: req(9), ReplOrigin: "c", ReplSeq: 9,
	}
	b.handleReplicate(repl)
	if b.ReplicaCopies(reqTmpl()) != 1 {
		t.Fatal("replicate not admitted")
	}
	b.replInvalidate(&wire.Message{
		Type: wire.TCancel, ID: 902, From: "c", ReplOrigin: "c", ReplSeq: 9,
	})
	if b.ReplicaCopies(reqTmpl()) != 0 {
		t.Fatal("invalidate did not drop the copy")
	}
	// A late re-delivery of the same identity must not resurrect it.
	b.handleReplicate(repl)
	rep := b.Replication()
	if b.ReplicaCopies(reqTmpl()) != 0 || rep.FencedHolds == 0 {
		t.Fatalf("fence did not refuse late replicate: %+v", rep)
	}
}

func TestLocalReplicaServesLastSurvivor(t *testing.T) {
	r := replRig(t, nil, "a", "b", "c")
	a := r.inst["a"]
	if err := a.Out(req(6), outLease()); err != nil {
		t.Fatal(err)
	}
	holder, h := copyHolder(t, r, "a", reqTmpl())
	// Kill everyone but the copy holder: the walk has nobody to ask, so
	// the holder must serve its own copy (supersede proof included).
	for addr, inst := range r.inst {
		if addr != holder {
			inst.Close()
		}
	}
	// First attempt arms the failover grace; the take wins once it
	// elapses.
	if _, ok, _ := h.Inp(context.Background(), reqTmpl(), outLease()); ok {
		t.Fatal("take won before the failover grace elapsed")
	}
	r.clk.Advance(300 * time.Millisecond)
	res, ok, err := h.Inp(context.Background(), reqTmpl(), outLease())
	if err != nil || !ok || !res.Tuple.Equal(req(6)) {
		t.Fatalf("last-survivor take = %+v %v %v", res, ok, err)
	}
	if h.Replication().FailoverTakes != 1 {
		t.Fatal("local failover take not counted")
	}
	if _, ok, _ := h.Inp(context.Background(), reqTmpl(), outLease()); ok {
		t.Fatal("tuple taken twice")
	}
}

func TestRepairReplacesLostBackup(t *testing.T) {
	r := replRig(t, nil, "a", "b", "c")
	for _, inst := range r.inst {
		inst.repl.repair.setEvery(time.Millisecond)
	}
	a := r.inst["a"]
	if err := a.Out(req(8), outLease()); err != nil {
		t.Fatal(err)
	}
	holder, _ := copyHolder(t, r, "a", reqTmpl())
	r.inst[holder].Close()
	// Any walk that touches the dead holder evicts it (ErrUnreachable),
	// which is what re-keys the ring.
	_, _, _ = a.Rdp(context.Background(), tuple.Tmpl(tuple.String("nothing")), outLease())
	eventually(t, "dead holder evicted", func() bool {
		return len(a.list.Members()) == 1
	})
	// Drive the sweep directly: the virtual clock never fires its timer.
	r.clk.Advance(10 * time.Millisecond)
	a.repairSweep()
	var survivor *Instance
	for addr, inst := range r.inst {
		if addr != "a" && addr != holder {
			survivor = inst
		}
	}
	eventually(t, "copy re-placed on the survivor", func() bool {
		return survivor.ReplicaCopies(reqTmpl()) == 1
	})
	if a.Replication().Repairs == 0 {
		t.Fatal("repair not counted")
	}
	eventually(t, "out fully replicated again", func() bool {
		return a.Replication().UnderReplicated == 0
	})
}

func TestAdoptionRepairsDeadOriginCopies(t *testing.T) {
	r := replRig(t, nil, "a", "b", "c")
	for _, inst := range r.inst {
		inst.repl.repair.setEvery(time.Millisecond)
	}
	a := r.inst["a"]
	if err := a.Out(req(2), outLease()); err != nil {
		t.Fatal(err)
	}
	holder, h := copyHolder(t, r, "a", reqTmpl())
	a.Close()
	var survivor *Instance
	for addr, inst := range r.inst {
		if addr != "a" && addr != holder {
			survivor = inst
		}
	}
	// The holder's sweep probes the dead origin, adopts the copy, and
	// re-replicates it to the surviving chain — restoring R=2 without
	// the origin. That takes two sweeps: a sweep places by the ring it
	// snapshots on entry, and it is that sweep's own probe of the origin
	// that evicts it (Close sends no goodbye). The ring still ranks the
	// dead origin among the copy's first R places, so the first chain is
	// {origin, holder} and nothing goes to the survivor; the next sweep,
	// an interval later, sees the re-keyed ring. One manual sweep passed
	// only when the repair loop's own sweep, woken by the same clock
	// advance, had probed first. So drive clock and sweep until the copy
	// lands.
	eventually(t, "adopted copy placed on the survivor", func() bool {
		r.clk.Advance(10 * time.Millisecond)
		h.repairSweep()
		return survivor.ReplicaCopies(reqTmpl()) == 1
	})
	if h.Replication().Repairs == 0 {
		t.Fatal("adoption repair not counted")
	}
	// Quiesce before the take. Millisecond sweeps fill a node's per-peer
	// in-flight quota with replicate frames, and the failover take would
	// be answered busy behind them.
	for _, inst := range r.inst {
		inst.repl.repair.setEvery(time.Hour)
	}
	eventually(t, "no replicate admitted at either survivor", func() bool {
		return h.gov.idle() && survivor.gov.idle()
	})
	// Both survivors hold the same identity now; a take still happens
	// exactly once. The first attempt arms the failover grace.
	if _, ok, _ := survivor.Inp(context.Background(), reqTmpl(), outLease()); ok {
		t.Fatal("take won before the failover grace elapsed")
	}
	r.clk.Advance(300 * time.Millisecond)
	res, ok, err := survivor.Inp(context.Background(), reqTmpl(), outLease())
	if err != nil || !ok || !res.Tuple.Equal(req(2)) {
		t.Fatalf("take after adoption = %+v %v %v", res, ok, err)
	}
	eventually(t, "all copies gone after the take", func() bool {
		return copiesAcross(r, reqTmpl()) == 0
	})
	if _, ok, _ := h.Inp(context.Background(), reqTmpl(), outLease()); ok {
		t.Fatal("adopted tuple taken twice")
	}
}

func TestReplicationOffIsInert(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil) // default R=1
	r.net.ConnectAll()
	a := r.inst["a"]
	if err := a.Out(req(1), outLease()); err != nil {
		t.Fatal(err)
	}
	rep := a.Replication()
	if rep != (ReplicationReport{}) {
		t.Fatalf("R=1 replication report = %+v, want zero", rep)
	}
	if a.ReplicaCopies(reqTmpl()) != 0 {
		t.Fatal("replica store active at R=1")
	}
}

// TestWriteThroughRefusalCountsAsFailed pins the write-through ack
// accounting: a backup that answers the replicate frame with a NOT-OK
// ack has definitively refused the copy. The refusal must settle the
// synchronous wait at once (the rig's virtual clock never advances, so
// if Out returned by timeout this test would hang) and be counted as a
// failed target — never absorbed as if the copy had been placed.
func TestWriteThroughRefusalCountsAsFailed(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) { c.Replicas = 2 })
	a := r.inst["a"]
	b, err := r.net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("b") // advertises the replica capability: ring-eligible
	go func() {
		for m := range b.Recv() {
			if m.Type == wire.TOut && m.ReplSeq != 0 {
				_ = b.Send("a", &wire.Message{
					Type: wire.TAck, ID: m.ID, From: "b", OK: false, Err: "replica store full",
				})
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- a.Out(req(1), outLease()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Out never settled on the backup's refusal")
	}
	rep := a.Replication()
	if rep.WriteRefusals != 1 {
		t.Fatalf("write refusals = %d, want 1", rep.WriteRefusals)
	}
	if got := r.met.Get(trace.CtrReplWriteRefused); got != 1 {
		t.Fatalf("%s = %d, want 1", trace.CtrReplWriteRefused, got)
	}
	if a.ReplicaCopies(reqTmpl()) != 0 {
		t.Fatal("refused copy counted as placed")
	}
}

// TestWriteThroughSilentBackupCountsUnacked pins the other failure
// shape: a backup that never acks at all — a crashed peer, or a
// pre-replication decoder that rejected the frame with ErrFrame and
// said nothing. When the write-through window closes, the silent target
// must be counted as a failed write, not read as success.
func TestWriteThroughSilentBackupCountsUnacked(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
		c.Replicas = 2
		c.ContactTimeout = 50 * time.Millisecond
	})
	a := r.inst["a"]
	b, err := r.net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("b")
	go func() {
		for range b.Recv() {
			// Silence: the simulated backup drops everything.
		}
	}()
	done := make(chan error, 1)
	go func() { done <- a.Out(req(1), outLease()) }()
	// The wait timer runs on the virtual clock; advance until it fires.
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if got := r.met.Get(trace.CtrReplWriteUnacked); got != 1 {
				t.Fatalf("%s = %d, want 1", trace.CtrReplWriteUnacked, got)
			}
			return
		default:
			r.clk.Advance(10 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
}

// TestJoinCancelsFencedIdentities: a backup that served failover takes of
// an unreachable origin's two tuples sends the origin, on the join that
// brings it back, a cancel for each identity it fenced, and the origin
// withdraws both instead of serving them a second time. The repair sweep,
// an hour apart, has no part in it.
func TestJoinCancelsFencedIdentities(t *testing.T) {
	r := replRig(t, nil, "a", "b")
	a, b := r.inst["a"], r.inst["b"]
	for _, inst := range r.inst {
		inst.repl.repair.setEvery(time.Hour) // reconciliation must not wait for a sweep
	}
	ctx := context.Background()
	for k := int64(1); k <= 2; k++ {
		if err := a.Out(req(k), outLease()); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.ReplicaCopies(reqTmpl()); n != 2 {
		t.Fatalf("b holds %d copies, want 2", n)
	}
	r.net.SetVisible("a", "b", false)
	// The first attempt finds a unreachable (and drops it from b's list)
	// and arms the failover grace; the takes win once it has passed.
	if _, ok, _ := b.Inp(ctx, reqTmpl(), outLease()); ok {
		t.Fatal("take won before the failover grace elapsed")
	}
	r.clk.Advance(300 * time.Millisecond)
	for k := 0; k < 2; k++ {
		if _, ok, err := b.Inp(ctx, reqTmpl(), outLease()); err != nil || !ok {
			t.Fatalf("failover take %d: ok=%v err=%v", k, ok, err)
		}
	}
	if b.list.Contains("a") || b.Replication().Fences != 2 {
		t.Fatalf("setup: a listed at b %v, %d fences, want gone and 2", b.list.Contains("a"), b.Replication().Fences)
	}
	if n := a.LocalSpace().Count(); n != 3 {
		t.Fatalf("setup: a holds %d tuples, want both tokens and its info tuple", n)
	}

	// b's discovery round finds a back: a's announce is the join.
	r.net.SetVisible("a", "b", true)
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	_, _ = b.Spaces(sctx)
	eventually(t, "a withdrew both tokens taken while it was gone", func() bool {
		return a.LocalSpace().Count() == 1
	})
}

// baselineRig is three replicating nodes, a, b and c, that know one another
// as capable, and x, a pre-capability build with a decoder to match, known
// to all of them as such. mutate, when given, configures x.
func baselineRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	capable := []wire.Addr{"a", "b", "c"}
	r := newRig(t, append(capable, "x"), func(c *Config) {
		c.Replicas = 2
		if c.Endpoint.Addr() == "x" {
			c.CapsMask = wire.CapsCurrent
			if mutate != nil {
				mutate(c)
			}
		}
	})
	r.net.SetDecodeCaps("x", 0)
	r.net.ConnectAll()
	for _, p := range capable {
		for _, q := range capable {
			if p != q {
				r.inst[p].list.ObserveAnnounce(q, wire.CapsCurrent, false)
			}
		}
		r.inst[p].list.ObserveAnnounce("x", 0, false)
		r.inst["x"].list.ObserveAnnounce(p, 0, false)
	}
	return r
}

// noSecondTake asserts that no survivor of r can take a token matching p,
// from its space or a replica copy, locally or by failover — before and
// after the failover grace.
func noSecondTake(t *testing.T, r *rig, p tuple.Template, survivors ...wire.Addr) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, s := range survivors {
			if res, ok, _ := r.inst[s].Inp(context.Background(), p, outLease()); ok {
				t.Fatalf("%s took %v a second time, from %s", s, res.Tuple, res.From)
			}
		}
		r.clk.Advance(300 * time.Millisecond)
	}
}

// TestBaselineTakerOriginDiesBeforeAccept is the C6 duplicate. A baseline
// requester's blocking take, parked at a replicating origin, is handed a
// fresh out as a hold, and the origin dies after its found reply and
// before the accept lands. The requester keeps the token. The reply could
// not carry the replica identity to it, so it could not invalidate the
// copies: no second take of the token may succeed anywhere.
func TestBaselineTakerOriginDiesBeforeAccept(t *testing.T) {
	gate, reached, open := stop()
	r := baselineRig(t, func(c *Config) { c.Endpoint = typeGate{c.Endpoint, wire.TAccept, gate} })
	a, x := r.inst["a"], r.inst["x"]
	got := make(chan Result, 1)
	go func() {
		res, _ := x.InAt(context.Background(), "a", reqTmpl(), longLease())
		got <- res
	}()
	eventually(t, "x's take parked at a", func() bool { return waitCount(a) == 1 })
	if err := a.Out(req(1), outLease()); err != nil {
		t.Fatal(err)
	}
	<-reached // x has the found reply; its accept is on the way
	a.Close()
	close(open)
	if res := <-got; !res.Tuple.Equal(req(1)) {
		t.Fatalf("x's take returned %+v, want the token", res)
	}
	noSecondTake(t, r, reqTmpl(), "b", "c", "x")
}

// TestWithheldHoldReleasedIsReplicatedAgain: a hold withheld from its
// copies — a baseline requester's take — that is released goes back
// replicated, so the origin's death afterwards still loses nothing. With
// copies placed before the take, their identity is burned (the backup
// fenced it) and the tuple is stored afresh under a new one; with none
// placed yet, it comes back as the entry it was.
func TestWithheldHoldReleasedIsReplicatedAgain(t *testing.T) {
	for _, placed := range []bool{true, false} {
		t.Run(fmt.Sprintf("copies placed %v", placed), func(t *testing.T) {
			r := replRig(t, nil, "a", "b")
			a, b := r.inst["a"], r.inst["b"]
			x, err := r.net.Attach("x")
			if err != nil {
				t.Fatal(err)
			}
			r.net.SetVisible("a", "x", true) // and only a: x answers nobody
			op := wire.OpIn                  // parked before the out, so none is placed
			if placed {
				op = wire.OpInp
				if err := a.Out(req(1), outLease()); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.Send("a", &wire.Message{
				Type: wire.TOp, ID: 1, From: "x", Op: op, Template: reqTmpl(), TTL: time.Hour,
			}); err != nil {
				t.Fatal(err)
			}
			if !placed {
				eventually(t, "x's take parked at a", func() bool { return waitCount(a) == 1 })
				if err := a.Out(req(1), outLease()); err != nil {
					t.Fatal(err)
				}
			}
			var hold *wire.Message
			for hold == nil {
				select {
				case m := <-x.Recv():
					if m.Type == wire.TResult && m.Found {
						hold = m
					}
				case <-time.After(2 * time.Second):
					t.Fatal("x was never handed the token")
				}
			}
			if hold.ReplSeq != 0 {
				t.Fatal("the found reply carried the identity to a baseline requester")
			}
			eventually(t, "no copy servable while the hold is out", func() bool {
				return b.ReplicaCopies(reqTmpl()) == 0
			})
			if err := x.Send("a", &wire.Message{Type: wire.TRelease, ID: 1, From: "x", HoldID: hold.HoldID}); err != nil {
				t.Fatal(err)
			}
			eventually(t, "the released token replicated again", func() bool {
				r.clk.Advance(time.Millisecond)
				return b.ReplicaCopies(reqTmpl()) == 1
			})
			a.Close()
			if _, ok, _ := b.Inp(context.Background(), reqTmpl(), outLease()); ok {
				t.Fatal("take won before the failover grace elapsed")
			}
			r.clk.Advance(300 * time.Millisecond)
			if res, ok, err := b.Inp(context.Background(), reqTmpl(), outLease()); err != nil || !ok || !res.Tuple.Equal(req(1)) {
				t.Fatalf("the token did not survive its origin: %+v %v %v", res, ok, err)
			}
		})
	}
}

// TestFailoverRefusedToRequesterNotKnownCapable: a copy holder serves a
// failover take only to a requester it knows carries the replica
// identity. The found reply's identity is what lets the requester
// invalidate the other copies, and toward a peer not known to carry it the
// identity is stripped.
func TestFailoverRefusedToRequesterNotKnownCapable(t *testing.T) {
	r := replRig(t, nil, "a", "b")
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), outLease()); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// b's own first attempt finds a dead and arms the failover grace.
	if _, ok, _ := b.Inp(context.Background(), reqTmpl(), outLease()); ok {
		t.Fatal("take won before the failover grace elapsed")
	}
	r.clk.Advance(300 * time.Millisecond)
	x, err := r.net.Attach("x")
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetVisible("b", "x", true)
	if err := x.Send("b", &wire.Message{
		Type: wire.TOp, ID: 1, From: "x", Op: wire.OpInp, Template: reqTmpl(), TTL: time.Minute, Failover: true,
	}); err != nil {
		t.Fatal(err)
	}
	for answered := false; !answered; {
		select {
		case m := <-x.Recv():
			if answered = m.Type == wire.TResult; m.Found {
				t.Fatal("a copy was surrendered to a requester not known to carry its identity")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("b never answered")
		}
	}
	r.net.SetVisible("b", "x", false)
	if _, ok, _ := b.Inp(context.Background(), reqTmpl(), outLease()); !ok {
		t.Fatal("the copy was not servable by failover at all")
	}
}
