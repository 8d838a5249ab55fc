package persist

// Crash-injection coverage for the WAL: the tests here kill the log at
// every byte (torn writes via direct truncation, and in-flight via the
// FaultFS write budget), corrupt it in place, and fail its syncs, then
// reopen and check tuple conservation: an acked out is never lost, an
// acked removal is never resurrected, and an unacked operation may land
// either way but must never corrupt neighbouring records.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/internal/store"
	"tiamat/space"
	"tiamat/space/spacetest"
	"tiamat/trace"
	"tiamat/tuple"
)

// parseRecords returns the end offset (exclusive) and body of every
// complete, checksum-valid record in a log image.
func parseRecords(t *testing.T, data []byte) (ends []int, bodies [][]byte) {
	t.Helper()
	if len(data) < headerLen || !bytes.Equal(data[:4], logMagic) {
		t.Fatalf("not a log image (%d bytes)", len(data))
	}
	off := headerLen
	for off < len(data) {
		n, used := binary.Uvarint(data[off:])
		if used <= 0 || len(data) < off+used+int(n)+4 {
			t.Fatalf("log image has a torn tail at %d", off)
		}
		body := data[off+used : off+used+int(n)]
		off += used + int(n) + 4
		ends = append(ends, off)
		bodies = append(bodies, body)
	}
	return ends, bodies
}

// expectedTuples replays record bodies logically: the multiset of tuples
// a correct recovery must yield from exactly these records.
func expectedTuples(t *testing.T, bodies [][]byte) []tuple.Tuple {
	t.Helper()
	var live []tuple.Tuple
	for _, body := range bodies {
		switch body[0] {
		case opOut:
			_, used := binary.Varint(body[1:])
			tp, _, err := tuple.DecodeTuple(body[1+used:])
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, tp)
		case opRemove:
			tp, _, err := tuple.DecodeTuple(body[1:])
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range live {
				if l.Equal(tp) {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		default:
			t.Fatalf("unknown opcode %q", body[0])
		}
	}
	return live
}

func sameMultiset(got, want []tuple.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	used := make([]bool, len(want))
outer:
	for _, g := range got {
		for i, w := range want {
			if !used[i] && g.Equal(w) {
				used[i] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// TestTruncateAtEveryOffset cuts a multi-record log at every byte offset
// and asserts that reopening (a) never errors and (b) yields exactly the
// state of the complete-record prefix — in particular a removal whose
// record survived the cut is never undone, and an out whose record
// survived is never lost.
func TestTruncateAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	s := open(t, full, nil)
	for v := int64(0); v < 5; v++ {
		if _, err := s.Out(item(v), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Inp(tuple.Tmpl(tuple.String("it"), tuple.Int(2))); !ok {
		t.Fatal("take failed")
	}
	if _, err := s.Out(item(5), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	ends, bodies := parseRecords(t, data)

	for cut := 0; cut <= len(data); cut++ {
		// Complete records that survive this cut.
		n := 0
		for n < len(ends) && ends[n] <= cut {
			n++
		}
		want := expectedTuples(t, bodies[:n])

		path := filepath.Join(dir, fmt.Sprintf("cut%04d.log", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(path, store.New(), nil)
		if err != nil {
			t.Fatalf("cut at %d: reopen errored: %v", cut, err)
		}
		got := s2.Snapshot()
		if !sameMultiset(got, want) {
			t.Fatalf("cut at %d: got %d tuples %v, want %d %v", cut, len(got), got, len(want), want)
		}
		rep := s2.Recovery()
		if rep.Replayed != n {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, rep.Replayed, n)
		}
		if cut >= headerLen && rep.TornTail != cut-boundaryBefore(ends, cut) {
			t.Fatalf("cut at %d: torn tail %d bytes, want %d", cut, rep.TornTail, cut-boundaryBefore(ends, cut))
		}
		s2.Close()
	}
}

// boundaryBefore returns the last record boundary at or before cut.
func boundaryBefore(ends []int, cut int) int {
	b := headerLen
	for _, e := range ends {
		if e <= cut {
			b = e
		}
	}
	return b
}

// sweepWorkload drives a fixed operation sequence against a durable
// space, recording which operations were acked before the injected
// crash. Returned slices describe the conservation obligations.
func sweepWorkload(sp *Space) (ackedOut, ackedRemoved []tuple.Tuple) {
	for v := int64(0); v < 6; v++ {
		if _, err := sp.Out(item(v), time.Time{}); err == nil {
			ackedOut = append(ackedOut, item(v))
		}
	}
	for _, v := range []int64{1, 4} {
		if got, ok := sp.Inp(tuple.Tmpl(tuple.String("it"), tuple.Int(v))); ok {
			ackedRemoved = append(ackedRemoved, got)
		}
	}
	if _, err := sp.Out(item(6), time.Time{}); err == nil {
		ackedOut = append(ackedOut, item(6))
	}
	return ackedOut, ackedRemoved
}

// TestKillPointSweep SIGKILL-drops the space at every byte of the WAL
// write stream — the FaultFS write budget tears the in-flight write and
// fails everything after it — then reopens with a healthy filesystem and
// asserts conservation: every acked out that was not acked-removed is
// present, and every acked removal stays removed.
func TestKillPointSweep(t *testing.T) {
	// Dry run to size the write stream.
	dryDir := t.TempDir()
	dry := NewFaultFS(nil)
	sp, err := OpenWith(filepath.Join(dryDir, "s.log"), store.New(), nil, Options{FS: dry})
	if err != nil {
		t.Fatal(err)
	}
	sweepWorkload(sp)
	sp.Close()
	total := dry.Faults.Written()
	if total < 64 {
		t.Fatalf("dry run wrote only %d bytes", total)
	}

	dir := t.TempDir()
	for budget := int64(0); budget <= total; budget++ {
		path := filepath.Join(dir, fmt.Sprintf("k%05d.log", budget))
		ffs := NewFaultFS(nil)
		ffs.Faults.CrashAfter(budget)
		var ackedOut, ackedRemoved []tuple.Tuple
		sp, err := OpenWith(path, store.New(), nil, Options{FS: ffs})
		if err == nil {
			ackedOut, ackedRemoved = sweepWorkload(sp)
			sp.Close()
		}
		// else: killed during Open's compaction — nothing was acked.

		s2, err := Open(path, store.New(), nil)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) && budget == 0 {
				continue // killed before the log file ever existed
			}
			t.Fatalf("budget %d: reopen errored: %v", budget, err)
		}
		for _, want := range ackedOut {
			removed := false
			for _, r := range ackedRemoved {
				if r.Equal(want) {
					removed = true
					break
				}
			}
			if removed {
				continue
			}
			if _, ok := s2.Rdp(tuple.TemplateOf(want)); !ok {
				t.Fatalf("budget %d: acked out %v lost", budget, want)
			}
		}
		for _, gone := range ackedRemoved {
			if _, ok := s2.Rdp(tuple.TemplateOf(gone)); ok {
				t.Fatalf("budget %d: acked removal %v resurrected", budget, gone)
			}
		}
		s2.Close()
	}
}

// TestBitFlipSalvagesRest flips one bit inside a middle record's body in
// transit (FaultFS) and asserts replay skips exactly that record, keeps
// everything after it, and reports the skip.
func TestBitFlipSalvagesRest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	rec := func(v int64) int { return len(appendRecord(nil, outRecord(item(v), time.Time{}))) }

	ffs := NewFaultFS(nil)
	// Write stream: 8-byte compaction header, then one record per out.
	// Target a body byte of the second record (skip its length prefix).
	ffs.Faults.FlipBit(int64(headerLen + rec(0) + 2))
	sp, err := OpenWith(path, store.New(), nil, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 3; v++ {
		if _, err := sp.Out(item(v), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	sp.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	rep := s2.Recovery()
	if rep.Replayed != 2 || rep.Skipped != 1 || rep.TornTail != 0 {
		t.Fatalf("report = %+v, want 2 replayed / 1 skipped / 0 torn", rep)
	}
	for _, v := range []int64{0, 2} {
		if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(v))); !ok {
			t.Fatalf("tuple %d after flipped neighbour lost", v)
		}
	}
	if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(1))); ok {
		t.Fatal("corrupted record replayed")
	}
}

// TestCorruptLengthPrefixTearsTail corrupts a record's length prefix in
// place: framing is gone, so replay must keep the prefix records and
// drop the rest as a torn tail.
func TestCorruptLengthPrefixTearsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := open(t, path, nil)
	for v := int64(0); v < 3; v++ {
		s.Out(item(v), time.Time{})
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends, _ := parseRecords(t, data)
	data[ends[0]] = 0xff // second record's length prefix → nonsense framing
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, path, nil)
	defer s2.Close()
	rep := s2.Recovery()
	if rep.Replayed != 1 || rep.TornTail == 0 {
		t.Fatalf("report = %+v, want 1 replayed and a torn tail", rep)
	}
	if s2.Count() != 1 {
		t.Fatalf("count = %d, want 1", s2.Count())
	}
}

// TestSyncFailureWedgesSpace: a failed fsync must fail the operation
// that needed it, reinstate a tentatively removed tuple, and wedge all
// later mutations (fail-stop), while earlier acked state stays durable.
func TestSyncFailureWedgesSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	ffs := NewFaultFS(nil)
	met := &trace.Metrics{}
	sp, err := OpenWith(path, store.New(), nil, Options{FS: ffs, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Out(item(1), time.Time{}); err != nil {
		t.Fatal(err)
	}

	ffs.Faults.FailSyncs(1)
	if _, ok := sp.Inp(itemTmpl()); ok {
		t.Fatal("take acked on a failed sync")
	}
	if _, ok := sp.Rdp(itemTmpl()); !ok {
		t.Fatal("tuple not reinstated after failed removal logging")
	}
	if _, err := sp.Out(item(2), time.Time{}); err == nil {
		t.Fatal("wedged space acked an out")
	}
	if met.Get(trace.CtrWALFailures) == 0 {
		t.Fatal("wedge not counted")
	}
	sp.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(1))); !ok {
		t.Fatal("pre-wedge acked out lost")
	}
}

// TestTakeLogFailureWithdraws: a parked Take whose removal record the log
// rejects is withdrawn, as Inp then reports no match: its sink gets no
// tuple and no hold, the tuple is back in the space, and a restart finds
// it once. A budget of one out record tears the removal before its first
// byte; one byte more lands part of it, which is compensated on disk.
func TestTakeLogFailureWithdraws(t *testing.T) {
	rec := int64(len(appendRecord(nil, outRecord(item(1), time.Time{}))))
	for _, budget := range []int64{rec, rec + 1} {
		path := filepath.Join(t.TempDir(), "s.log")
		ffs := NewFaultFS(nil)
		sp, err := OpenWith(path, store.New(), nil, Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		c := spacetest.Park(sp, itemTmpl(), space.Take)
		ffs.Faults.CrashAfter(budget)
		if _, err := sp.Out(item(1), time.Time{}); err != nil {
			t.Fatalf("budget %d: out: %v", budget, err)
		}
		select {
		case d := <-c.C:
			if d.H != nil {
				t.Fatalf("budget %d: take handed a tuple whose removal is not durable", budget)
			}
		default:
			t.Fatalf("budget %d: withdrawn take never told", budget)
		}
		if _, ok := sp.Rdp(itemTmpl()); !ok {
			t.Fatalf("budget %d: tuple not reinstated after failed removal logging", budget)
		}
		sp.Close()

		s2 := open(t, path, nil)
		if n := s2.Count(); n != 1 {
			t.Fatalf("budget %d: %d tuples after restart, want 1", budget, n)
		}
		s2.Close()
	}
}

// TestWedgedRetriesDoNotDuplicate: once the space is wedged, a retried
// take is refused by the sticky gate before anything reaches the file,
// so it must NOT append a compensating out record — the log has no
// matching removal to compensate, and replay would resurrect an extra
// copy of the reinstated tuple per retry.
func TestWedgedRetriesDoNotDuplicate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	ffs := NewFaultFS(nil)
	sp, err := OpenWith(path, store.New(), nil, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Out(item(1), time.Time{}); err != nil {
		t.Fatal(err)
	}

	ffs.Faults.FailSyncs(1)
	if _, ok := sp.Inp(itemTmpl()); ok {
		t.Fatal("take acked on a failed sync")
	}
	for i := 0; i < 3; i++ { // retries against the wedged space
		if _, ok := sp.Inp(itemTmpl()); ok {
			t.Fatal("wedged space acked a take")
		}
	}
	if _, ok := sp.Rdp(itemTmpl()); !ok {
		t.Fatal("tuple not reinstated")
	}
	sp.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	if n := s2.Count(); n != 1 {
		t.Fatalf("reopened count = %d, want exactly 1 (no duplicates from retried takes)", n)
	}
}

// TestOpenFailsLoudlyOnForeignFile: a file that is not a Tiamat WAL must
// fail Open with ErrBadLog, not silently start empty over it.
func TestOpenFailsLoudlyOnForeignFile(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "foreign.log")
	if err := os.WriteFile(foreign, []byte("definitely not a tuple log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(foreign, store.New(), nil); !errors.Is(err, ErrBadLog) {
		t.Fatalf("foreign file: err = %v, want ErrBadLog", err)
	}

	future := filepath.Join(dir, "future.log")
	if err := os.WriteFile(future, []byte{'T', 'W', 'A', 'L', 99, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(future, store.New(), nil); !errors.Is(err, ErrBadLog) {
		t.Fatalf("future version: err = %v, want ErrBadLog", err)
	}
}

// TestStaleTmpRemovedAtOpen: a crash between compaction's tmp write and
// rename leaves a half-written snapshot; Open must clear it.
func TestStaleTmpRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.log")
	if err := os.WriteFile(path+".tmp", []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, path, nil)
	defer s.Close()
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale tmp still present: %v", err)
	}
}

// TestSizeTriggeredCompaction: heavy churn under a small CompactAt must
// rotate segments online, keep the log bounded, and preserve state
// across a restart.
func TestSizeTriggeredCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	met := &trace.Metrics{}
	sp, err := OpenWith(path, store.New(), nil, Options{CompactAt: 512, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 200; round++ {
		if _, err := sp.Out(item(round), time.Time{}); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			if _, ok := sp.Inp(tuple.Tmpl(tuple.String("it"), tuple.Int(round))); !ok {
				t.Fatal("churn take failed")
			}
		}
	}
	if met.Get(trace.CtrWALCompactions) < 2 { // 1 at open + ≥1 online
		t.Fatalf("compactions = %d, want online rotation", met.Get(trace.CtrWALCompactions))
	}
	if sz := sp.LogSize(); sz > 64<<10 {
		t.Fatalf("log grew to %d bytes despite compaction", sz)
	}
	sp.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	if s2.Count() != 100 {
		t.Fatalf("count = %d after churn + restart, want 100", s2.Count())
	}
}

// TestHoldDefersCompaction: a tuple under a tentative hold is invisible
// to the snapshot, so compaction must wait for the hold to settle or the
// tuple would be lost across a rotation + release.
func TestHoldDefersCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	met := &trace.Metrics{}
	sp, err := OpenWith(path, store.New(), nil, Options{CompactAt: 256, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Out(item(999), time.Time{}); err != nil {
		t.Fatal(err)
	}
	h, ok := sp.Hold(tuple.Tmpl(tuple.String("it"), tuple.Int(999)))
	if !ok {
		t.Fatal("hold failed")
	}
	before := met.Get(trace.CtrWALCompactions)
	for round := int64(0); round < 100; round++ {
		sp.Out(item(round), time.Time{})
		sp.Inp(tuple.Tmpl(tuple.String("it"), tuple.Int(round)))
	}
	if got := met.Get(trace.CtrWALCompactions); got != before {
		t.Fatalf("compacted %d times while a hold was outstanding", got-before)
	}
	h.Release()
	if got := met.Get(trace.CtrWALCompactions); got == before {
		t.Fatal("deferred compaction did not run after the hold settled")
	}
	sp.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(999))); !ok {
		t.Fatal("held-then-released tuple lost across rotation + restart")
	}
}

// TestWaitedHoldDefersCompaction: a parked taker holds nothing, so it
// must not put compaction off — a farm node always has takers parked —
// but from the moment an Out hands it a hold, the hold does: it is as
// absent from the snapshot as any other.
func TestWaitedHoldDefersCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	met := &trace.Metrics{}
	sp, err := OpenWith(path, store.New(), nil, Options{CompactAt: 256, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	churn := func() {
		for round := int64(0); round < 100; round++ {
			sp.Out(item(round), time.Time{})
			sp.Inp(tuple.Tmpl(tuple.String("it"), tuple.Int(round)))
		}
	}
	w := spacetest.Park(sp, tuple.Tmpl(tuple.String("it"), tuple.Int(999)), space.Claim)
	before := met.Get(trace.CtrWALCompactions)
	churn()
	if got := met.Get(trace.CtrWALCompactions); got == before {
		t.Fatal("a parked taker put compaction off")
	}
	if id, err := sp.Out(item(999), time.Time{}); err != nil || id == 0 {
		t.Fatalf("Out to the parked taker = %d %v", id, err)
	}
	before = met.Get(trace.CtrWALCompactions)
	churn()
	if got := met.Get(trace.CtrWALCompactions); got != before {
		t.Fatalf("compacted %d times while a waited hold was outstanding", got-before)
	}
	var h space.Hold
	select {
	case d := <-w.C:
		h = d.H
	default:
		t.Fatal("no hold delivered inside the out")
	}
	h.Release()
	if got := met.Get(trace.CtrWALCompactions); got == before {
		t.Fatal("deferred compaction did not run after the hold settled")
	}
	sp.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(999))); !ok {
		t.Fatal("waited-then-released tuple lost across rotation + restart")
	}
}

// TestWaitedHoldsRaceCompaction: takers parked, fed, cancelled and
// settled while every operation wants to rotate the log. Whatever the
// interleaving of a delivery, a cancel and a compaction, the restarted
// space holds exactly the tuples that were released or never taken.
func TestWaitedHoldsRaceCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	sp, err := OpenWith(path, store.New(), nil, Options{Sync: SyncNever, CompactAt: 64})
	if err != nil {
		t.Fatal(err)
	}
	key := func(v int64) tuple.Template { return tuple.Tmpl(tuple.String("it"), tuple.Int(v)) }
	want := make(map[int64]bool)
	var wg sync.WaitGroup
	for v := int64(0); v < 300; v++ {
		w := spacetest.Park(sp, key(v), space.Claim)
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			if _, err := sp.Out(item(v), time.Time{}); err != nil {
				t.Errorf("Out(%d): %v", v, err)
			}
		}(v)
		// Churn on another key keeps asking for a rotation meanwhile.
		sp.Out(item(-1), time.Time{})
		sp.Inp(key(-1))
		if v%5 == 4 && w.Cancel() {
			// Gave up while the out was in flight and got in first: the
			// tuple ends up resident.
			want[v] = true
			continue
		}
		d := <-w.C
		if v%2 == 0 {
			d.H.Accept()
		} else {
			// A cancel that came second leaves the hold to be released.
			d.H.Release()
			want[v] = true
		}
	}
	wg.Wait()
	sp.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	for v := int64(0); v < 300; v++ {
		if _, ok := s2.Rdp(key(v)); ok != want[v] {
			t.Fatalf("tuple %d present=%v after restart, want %v", v, ok, want[v])
		}
	}
	if s2.Count() != len(want) {
		t.Fatalf("count after restart = %d, want %d", s2.Count(), len(want))
	}
}

// TestSyncIntervalPolicy: under SyncInterval, appends are acked before
// fsync and the background flush lands them once per interval; Sync()
// forces the flush.
func TestSyncIntervalPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	clk := clock.NewVirtual(epoch)
	met := &trace.Metrics{}
	sp, err := OpenWith(path, store.New(store.WithClock(clk)), clk, Options{
		Sync: SyncInterval, SyncEvery: 50 * time.Millisecond, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if _, err := sp.Out(item(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if met.Get(trace.CtrWALSyncs) != 0 {
		t.Fatal("interval policy synced inline")
	}
	clk.Advance(50 * time.Millisecond)
	if met.Get(trace.CtrWALSyncs) != 1 {
		t.Fatalf("syncs = %d after one interval, want 1", met.Get(trace.CtrWALSyncs))
	}
	sp.Out(item(2), time.Time{})
	if err := sp.Sync(); err != nil {
		t.Fatal(err)
	}
	if met.Get(trace.CtrWALSyncs) != 2 {
		t.Fatalf("syncs = %d after explicit Sync, want 2", met.Get(trace.CtrWALSyncs))
	}
}

// TestSyncNeverPolicy: appends are acked without fsync; durability comes
// from Close (and the OS). State still survives a clean restart.
func TestSyncNeverPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	met := &trace.Metrics{}
	sp, err := OpenWith(path, store.New(), nil, Options{Sync: SyncNever, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 10; v++ {
		if _, err := sp.Out(item(v), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if met.Get(trace.CtrWALSyncs) != 0 {
		t.Fatalf("syncs = %d under SyncNever", met.Get(trace.CtrWALSyncs))
	}
	sp.Close()
	s2 := open(t, path, nil)
	defer s2.Close()
	if s2.Count() != 10 {
		t.Fatalf("count = %d after clean restart, want 10", s2.Count())
	}
}

// consumedOut parks an in, feeds it one out of t and receives it: the
// tuple was stored, handed to the in as a hold and accepted, all inside
// the Out, and never became resident.
func consumedOut(t *testing.T, sp *Space, tup tuple.Tuple, between func()) {
	t.Helper()
	w := spacetest.Wait(sp, tuple.TemplateOf(tup), space.Take)
	if id, err := sp.Out(tup, time.Time{}); err != nil || id == 0 {
		t.Fatalf("out to a parked in: id=%d err=%v, want stored", id, err)
	}
	if between != nil {
		between()
	}
	if got := <-w.C; !got.Equal(tup) {
		t.Fatal("parked in not served")
	}
}

// TestConsumedOutLogsOneRemoval: out plus the accepted hold's removal are
// the two records that describe a tuple consumed at Out. A third — a
// removal of Out's own beside the hold's — is how
// TestConsumedOutKeepsItsTwin loses a tuple.
func TestConsumedOutLogsOneRemoval(t *testing.T) {
	met := &trace.Metrics{}
	sp, err := OpenWith(filepath.Join(t.TempDir(), "s.log"), store.New(), nil, Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	before := met.Get(trace.CtrWALAppends)
	consumedOut(t, sp, item(1), nil)
	if n := met.Get(trace.CtrWALAppends) - before; n != 2 {
		t.Fatalf("wal.appends = %d for one consumed out, want 2 (out, removal)", n)
	}
}

// TestConsumedOutKeepsItsTwin: replay removes by content, so the removal
// record of a tuple consumed at Out must be the only one — a second,
// landing after the next out of an equal tuple (a semaphore's token), took
// the resident twin with it across a restart.
func TestConsumedOutKeepsItsTwin(t *testing.T) {
	for name, pol := range map[string]SyncPolicy{"SyncNever": SyncNever, "SyncAlways": SyncAlways} {
		t.Run(name, func(t *testing.T) {
			// A few rounds, so that no schedule hides a late record.
			for round := 0; round < 8; round++ {
				path := filepath.Join(t.TempDir(), fmt.Sprintf("s%d.log", round))
				sp, err := OpenWith(path, store.New(), nil, Options{Sync: pol})
				if err != nil {
					t.Fatal(err)
				}
				token := tuple.T(tuple.String("token"))
				consumedOut(t, sp, token, func() {
					if id, err := sp.Out(token, time.Time{}); err != nil || id == 0 {
						t.Fatalf("second out: id=%d err=%v, want resident", id, err)
					}
				})
				if sp.Count() != 1 {
					t.Fatalf("live count = %d, want the resident twin", sp.Count())
				}
				sp.Close()
				s2 := open(t, path, nil)
				if n := s2.Count(); n != 1 {
					t.Fatalf("round %d: count after restart = %d, want 1: the twin went with the consumed tuple", round, n)
				}
				s2.Close()
			}
		})
	}
}

// TestLocalTakeKeepsItsTwinAcrossCompaction: a parked local in takes a
// token at its Out, and the Out of an equal twin crosses the compaction
// threshold. The in's removal record is its hold's Accept's, written
// inside the first Out while the outstanding hold keeps compaction out,
// so the snapshot never precedes a removal still to come. When a
// goroutine of the waiter's own wrote that record, it could land after
// the compaction, and replay took the twin with it.
func TestLocalTakeKeepsItsTwinAcrossCompaction(t *testing.T) {
	token := tuple.T(tuple.String("token"))
	// The twin's out record crosses: the first out plus its removal
	// record, one byte shorter, stay below.
	at := int64(headerLen + 2*len(appendRecord(nil, outRecord(token, time.Time{}))))
	for name, pol := range map[string]SyncPolicy{"SyncNever": SyncNever, "SyncAlways": SyncAlways} {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 200; round++ {
				met := &trace.Metrics{}
				path := filepath.Join(t.TempDir(), fmt.Sprintf("s%d.log", round))
				sp, err := OpenWith(path, store.New(), nil, Options{Sync: pol, CompactAt: at, Metrics: met})
				if err != nil {
					t.Fatal(err)
				}
				w := spacetest.Wait(sp, tuple.TemplateOf(token), space.Take)
				if _, err := sp.Out(token, time.Time{}); err != nil {
					t.Fatal(err)
				}
				before := met.Get(trace.CtrWALCompactions)
				if _, err := sp.Out(token, time.Time{}); err != nil {
					t.Fatal(err)
				}
				if met.Get(trace.CtrWALCompactions) == before {
					t.Fatalf("round %d: the twin's out did not compact", round)
				}
				if got := <-w.C; !got.Equal(token) {
					t.Fatalf("round %d: parked in got %v", round, got)
				}
				sp.Close()
				s2 := open(t, path, nil)
				n := s2.Count()
				s2.Close()
				if n != 1 {
					t.Fatalf("round %d: count after restart = %d, want the twin", round, n)
				}
			}
		})
	}
}
