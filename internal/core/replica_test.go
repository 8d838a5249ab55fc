package core

import (
	"context"
	"errors"
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

// replicateGate holds every replicate frame an endpoint is asked to send
// at gate.
type replicateGate struct {
	transport.Endpoint
	gate func()
}

func (e replicateGate) Send(to wire.Addr, m *wire.Message) error {
	if m.Type == wire.TOut && m.ReplSeq != 0 {
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
						c.Endpoint = replicateGate{c.Endpoint, gate}
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
	r := replRig(t, func(c *Config) { c.RepairInterval = time.Millisecond }, "a", "b", "c")
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
	r := replRig(t, func(c *Config) { c.RepairInterval = time.Millisecond }, "a", "b", "c")
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
