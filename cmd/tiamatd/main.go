// Command tiamatd runs a standalone Tiamat node on a real network: TCP
// unicast for operations plus UDP-multicast or static-peer discovery.
// Other nodes (and the tsh shell) coordinate with it through the logical
// tuple space.
//
// Usage:
//
//	tiamatd [-listen 127.0.0.1:0] [-group 239.77.7.3:7703]
//	        [-peers host:port,host:port] [-persistent] [-data tiamatd.wal]
//	        [-fsync always|interval|never] [-stall-threshold 250ms]
//	        [-stats 10s] [-pda]
//	        [-max-peer-waits n] [-shed-watermark 0.75]
//	        [-replicas 1]
//
// The drain path prints a one-line capability summary: the local
// capability set (the wire floor) and how many announces from peers
// below it were not listed (DESIGN.md §14).
//
// -max-peer-waits and -shed-watermark tune the overload governor
// (DESIGN.md §9): the per-peer bound on served blocking waits and the
// pressure at which admission starts shedding. The drain path prints a
// one-line governance summary (sheds, shrinks, revocations) on exit,
// followed by a gray-failure line (hedges fired/won/suppressed, the
// current hedge delay, and whether the node is currently self-reporting
// degraded). -stall-threshold tunes the WAL fsync watchdog behind that
// self-report (DESIGN.md §11).
//
// The drain summary includes a mobility line (re-arms, orphaned
// waits/holds reconciled, visibility churn) alongside the governor's, and
// a line counting which of the node's recovery timers fired: contact
// timeouts, accept retransmissions, hold graces, suspicions and the
// transport's I/O timeouts (DESIGN.md §7, "Node timers").
//
// With -persistent the local space is backed by a write-ahead log at
// -data: tuples survive restarts (the log is replayed on boot and a
// recovery report printed), and the space-info tuple advertises the
// persistence truthfully. On SIGINT/SIGTERM the daemon drains
// gracefully: it announces its departure, settles in-flight work, and
// flushes the log before exiting.
//
// The daemon registers two demo eval functions, "echo" (returns its
// argument tuple tagged "echoed") and "sum" (sums its integer fields into
// ("sum", total)), so remote eval can be exercised out of the box.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tiamat"
	"tiamat/clock"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/space/persist"
	"tiamat/trace"
	"tiamat/transport/netudp"
	"tiamat/tuple"
	"tiamat/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address (the node's identity)")
	group := flag.String("group", "", "UDP multicast group for discovery, e.g. 239.77.7.3:7703")
	peers := flag.String("peers", "", "comma-separated static peer addresses (multicast fallback)")
	persistent := flag.Bool("persistent", false, "back the space with a write-ahead log and advertise it as persistent")
	data := flag.String("data", "tiamatd.wal", "write-ahead log path (with -persistent)")
	fsyncPolicy := flag.String("fsync", "always", "WAL fsync policy: always, interval, never")
	statsEvery := flag.Duration("stats", 0, "print stats at this interval (0 = off)")
	pda := flag.Bool("pda", false, "use constrained PDA-class lease capacities")
	stallThreshold := flag.Duration("stall-threshold", 0, "fsync duration past which the node self-reports degraded (0 = library default, negative disables; with -persistent)")
	maxPeerWaits := flag.Int("max-peer-waits", 0, "bound on blocking remote waits served per peer (0 = library default)")
	shedWatermark := flag.Float64("shed-watermark", 0, "pressure (0..1] at which admission starts shedding (0 = library default)")
	replicas := flag.Int("replicas", 1, "replica-set size R for leased replication (1 = off)")
	flag.Parse()

	if *shedWatermark < 0 || *shedWatermark > 1 {
		log.Fatalf("-shed-watermark %g out of range (0..1]", *shedWatermark)
	}

	var staticPeers []string
	if *peers != "" {
		staticPeers = strings.Split(*peers, ",")
	}
	// One registry for the node and its transport, so the drain summary
	// reads the transport's I/O timeouts beside the node's own timers.
	met := &trace.Metrics{}
	tr, err := netudp.New(netudp.Config{
		Listen:      *listen,
		Group:       *group,
		StaticPeers: staticPeers,
		Metrics:     met,
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := tiamat.Config{
		Endpoint:            tr,
		Metrics:             met,
		Persistent:          *persistent,
		ContinuousDiscovery: true,
		Replicas:            *replicas,
		Governor: tiamat.GovernorConfig{
			MaxPeerWaits:  *maxPeerWaits,
			ShedWatermark: *shedWatermark,
		},
	}
	if *pda {
		cfg.Leases = lease.ConstrainedCapacity()
	}
	// -persistent is only truthful if the space actually is: back it with
	// the write-ahead log so the advertisement matches reality.
	if *persistent {
		var policy persist.SyncPolicy
		switch *fsyncPolicy {
		case "always":
			policy = persist.SyncAlways
		case "interval":
			policy = persist.SyncInterval
		case "never":
			policy = persist.SyncNever
		default:
			log.Fatalf("unknown -fsync policy %q (want always, interval, or never)", *fsyncPolicy)
		}
		// The store, the log and the node share one deadline queue.
		clk := clock.NewQueue(clock.Real{})
		cfg.Clock = clk
		sp, err := persist.OpenWith(*data, store.New(store.WithClock(clk)), clk, persist.Options{Sync: policy, StallThreshold: *stallThreshold})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Space = sp
		if rep := sp.Recovery(); rep.Replayed+rep.Skipped+rep.TornTail > 0 {
			fmt.Printf("recovered %s: %d records replayed, %d skipped (corrupt), %d torn tail bytes dropped\n",
				*data, rep.Replayed, rep.Skipped, rep.TornTail)
		}
	}
	inst, err := tiamat.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer inst.Close()

	inst.RegisterEval("echo", func(_ context.Context, args tuple.Tuple) (tuple.Tuple, error) {
		return tuple.T(tuple.String("echoed"), tuple.Nested(args)), nil
	})
	inst.RegisterEval("sum", func(_ context.Context, args tuple.Tuple) (tuple.Tuple, error) {
		var total int64
		for i := 0; i < args.Arity(); i++ {
			if v, err := args.IntAt(i); err == nil {
				total += v
			}
		}
		return tuple.T(tuple.String("sum"), tuple.Int(total)), nil
	})

	fmt.Printf("tiamatd listening on %s", inst.Addr())
	if *group != "" {
		fmt.Printf(" (multicast %s)", *group)
	}
	if len(staticPeers) > 0 {
		fmt.Printf(" (peers %s)", *peers)
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-sig:
			fmt.Println("draining (goodbye announced; ^C again to force)")
			// One-line governance summary: how much load was queued for
			// the worker pool (a persist space's; 0 on any other), and how much
			// was refused, re-negotiated, or (last resort) revoked this run.
			g := inst.Governor()
			fmt.Printf("governor: queued=%d sheds=%d (probes=%d waits=%d outs=%d quota=%d queue=%d) shrinks=%d (%dB) clamps=%d deadline-cuts=%d revokes=%d\n",
				g.Queued, g.Sheds(), g.ShedProbes, g.ShedWaits, g.ShedOuts, g.QuotaSheds, g.QueueSheds,
				g.Shrinks, g.ShrunkBytes, g.GrantClamps, g.DeadlineCuts, g.Revokes)
			m := inst.Mobility()
			fmt.Printf("mobility: rearms=%d orphans{waits=%d holds=%d probes=%d} visibility{joins=%d leaves=%d}\n",
				m.Rearms, m.OrphanWaits, m.OrphanHolds, m.OrphanProbes, m.VisJoins, m.VisLeaves)
			gr := inst.Gray()
			fmt.Printf("gray: hedges=%d wins=%d suppressed=%d hedge-delay=%v degraded=%t\n",
				gr.Hedges, gr.HedgeWins, gr.HedgeSuppressed, gr.HedgeDelay, gr.Degraded)
			fmt.Printf("deadlines fired: contact-timeouts=%d accept-retransmits=%d hold-grace-expired=%d suspicions=%d io-timeouts=%d\n",
				met.Get(trace.CtrContactTimeouts), met.Get(trace.CtrAcceptRetransmits), met.Get(trace.CtrHoldGraceExpired),
				met.Get(trace.CtrSuspicions), met.Get(trace.CtrIOTimeouts))
			fmt.Printf("caps: local=%#x below-floor=%d\n", wire.CapsCurrent, met.Get(trace.CtrBelowFloor))
			if *replicas > 1 {
				rp := inst.Replication()
				fmt.Printf("repl: writes=%d failover-takes=%d repairs=%d fenced-holds=%d stale-reads=%d outs=%d copies=%d under-replicated=%d\n",
					rp.Writes, rp.FailoverTakes, rp.Repairs, rp.FencedHolds, rp.StaleReads,
					rp.Outs, rp.Copies, rp.UnderReplicated)
			}
			if p := inst.LastPanic(); p != "" {
				fmt.Printf("last recovered panic: %s\n", p)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			done := make(chan error, 1)
			go func() { done <- inst.Shutdown(ctx) }()
			select {
			case err := <-done:
				cancel()
				if err != nil {
					fmt.Printf("shutdown cut short: %v\n", err)
				}
			case <-sig:
				cancel()
				fmt.Println("forced")
			}
			return
		case <-tick:
			// granted leaves out ops answered on the spot, a peer's or a local hit.
			s := inst.LeaseManager().Stats()
			fmt.Printf("tuples=%d bytes=%d leases{active=%d granted=%d refused=%d expired=%d revoked=%d} responders=%d\n",
				inst.LocalSpace().Count(), inst.LocalSpace().Bytes(),
				s.Active, s.Granted, s.Refused, s.Expired, s.Revoked,
				len(inst.ResponderList()))
		}
	}
}
