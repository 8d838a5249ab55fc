package harness

// C1 is the crash-injection experiment: the storage twin of the network
// chaos runs (E2/E9/E10). It SIGKILL-drops a durable space at every byte
// of its WAL write stream, reopens, and checks tuple conservation; then
// it cycles a persistent node through shutdown → restart and measures
// how quickly the goodbye/hello lifecycle returns it to service.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tiamat/internal/core"
	"tiamat/internal/store"
	"tiamat/space/persist"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

// crashWorkload drives a fixed op sequence on sp — outs, two takes, one
// more out — recording each in l: the writer is "wal".
func crashWorkload(l *ledger, sp *persist.Space) {
	out := func(v int64) {
		issued := l.now()
		_, err := sp.Out(l.token(v), time.Time{})
		l.add(event{kind: evOut, token: v, node: "wal", issued: issued, err: err})
	}
	for v := int64(0); v < 8; v++ {
		out(v)
	}
	for _, v := range []int64{2, 5} {
		issued := l.now()
		if _, ok := sp.Inp(l.one(v)); ok {
			l.add(event{kind: evTake, token: v, node: "wal", from: "wal", issued: issued})
		}
	}
	out(8)
}

// killPointSweep crashes the WAL after every `stride` bytes of its write
// stream and reopens: the replayed space is what is resident. It returns
// the kill points tested, how many broke the take contract (an acked out
// lost, or an acked removal resurrected) or failed to reopen, and the
// first such failure.
func killPointSweep(dir string, stride int64) (points, violations int, err error) {
	dry := persist.NewFaultFS(nil)
	sp, err := persist.OpenWith(filepath.Join(dir, "dry.log"), store.New(), nil, persist.Options{FS: dry})
	if err != nil {
		return 0, 0, err
	}
	crashWorkload(newLedger("c"), sp)
	sp.Close()
	total := dry.Faults.Written()

	var first error
	for budget := int64(0); budget <= total; budget += stride {
		points++
		path := filepath.Join(dir, fmt.Sprintf("k%06d.log", budget))
		ffs := persist.NewFaultFS(nil)
		ffs.Faults.CrashAfter(budget)
		l := newLedger("c")
		if sp, err := persist.OpenWith(path, store.New(), nil, persist.Options{FS: ffs}); err == nil {
			crashWorkload(l, sp)
			sp.Close()
		}
		s2, err := persist.Open(path, store.New(), nil)
		if errors.Is(err, os.ErrNotExist) {
			continue // killed before the file existed; nothing acked
		}
		if err == nil {
			l.sweepSpace("replay", s2)
			s2.Close()
			err = l.check()
		}
		if err != nil {
			violations++
			if first == nil {
				first = fmt.Errorf("kill point at byte %d: %w", budget, err)
			}
		}
	}
	return points, violations, first
}

// rejoinTrial cycles a persistent node through out → shutdown → restart
// next to a live peer and returns how long the restarted node took to be
// back in the peer's responder list serving its replayed tuple.
func rejoinTrial(dir string, seq int64) (rejoin time.Duration, err error) {
	logPath := filepath.Join(dir, fmt.Sprintf("node%04d.log", seq))
	net := memnet.New()
	defer net.Close()

	boot := func() (*core.Instance, error) {
		ep, err := net.Attach("p")
		if err != nil {
			return nil, err
		}
		net.ConnectAll()
		sp, err := persist.Open(logPath, store.New(), nil)
		if err != nil {
			return nil, err
		}
		return core.New(core.Config{Endpoint: ep, Space: sp, Persistent: true})
	}

	epB, err := net.Attach("peer")
	if err != nil {
		return 0, err
	}
	peer, err := core.New(core.Config{Endpoint: epB})
	if err != nil {
		return 0, err
	}
	defer peer.Close()

	p, err := boot()
	if err != nil {
		return 0, err
	}
	probe := tuple.Tmpl(tuple.String("c"), tuple.FormalInt())
	if err := p.Out(tuple.T(tuple.String("c"), tuple.Int(seq)), nil); err != nil {
		return 0, err
	}
	if _, ok, _ := peer.Rdp(context.Background(), probe, nil); !ok {
		return 0, errors.New("pre-restart read failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	err = p.Shutdown(ctx)
	cancel()
	if err != nil {
		return 0, err
	}

	start := time.Now()
	p2, err := boot()
	if err != nil {
		return 0, err
	}
	defer p2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if res, ok, _ := peer.Rdp(context.Background(), probe, nil); ok && res.From == wire.Addr("p") {
			return time.Since(start), nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, errors.New("restarted node never served its replayed tuple")
}

// C1Crash runs the crash-injection suite: a WAL kill-point conservation
// sweep plus shutdown/restart/rejoin cycles through a live peer.
func C1Crash(scale Scale) (*Table, error) {
	stride := int64(7)
	trials := 3
	if scale == Full {
		stride = 1
		trials = 10
	}
	dir, err := os.MkdirTemp("", "tiamat-crash-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{
		ID:      "C1",
		Title:   "crash injection: WAL kill-point conservation and restart/rejoin",
		Columns: []string{"case", "trials", "violations", "mean ms"},
	}

	points, violations, sweepErr := killPointSweep(dir, stride)
	t.AddRow("kill-point sweep (SyncAlways)", fmtI(int64(points)), fmtI(int64(violations)), "-")

	var total time.Duration
	failures := 0
	for i := 0; i < trials; i++ {
		d, err := rejoinTrial(dir, int64(i))
		if err != nil {
			failures++
			continue
		}
		total += d
	}
	mean := "-"
	if ok := trials - failures; ok > 0 {
		mean = fmtF(float64(total.Milliseconds()) / float64(ok))
	}
	t.AddRow("shutdown -> restart -> rejoin", fmtI(int64(trials)), fmtI(int64(failures)), mean)

	t.AddNote("contract: at every kill point the replayed space holds every acked out not taken and no acked take (violations counts kill points that broke it or failed to reopen; must be 0)")
	t.AddNote("rejoin: the goodbye removes the node from its peer's responder list; the boot hello announce restores it without a discovery round — mean ms is restart to first successful remote read of a replayed tuple")
	if sweepErr != nil {
		return t, fmt.Errorf("C1: %w", sweepErr)
	}
	return t, nil
}
