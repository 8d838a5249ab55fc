// Command sensornet demonstrates Tiamat in the environment the paper
// targets: resource-limited devices that come and go. Battery-powered
// sensors publish readings with short out-leases (stale data self-
// destructs); a resource-rich aggregator computes summaries via eval;
// the monitor extension watches the visible set and adapts the sampling
// interval to churn; and a sensor "running out of battery" simply
// vanishes — nothing needs to be cleaned up.
//
//	go run ./examples/sensornet
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"tiamat"
	"tiamat/lease"
	"tiamat/monitor"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

const readingLease = 800 * time.Millisecond

func main() {
	netw := memnet.New()
	defer netw.Close()
	rng := rand.New(rand.NewSource(42))

	// The aggregator is a workstation-class node.
	aggEP, err := netw.Attach("hub")
	if err != nil {
		log.Fatal(err)
	}
	hub, err := tiamat.New(tiamat.Config{
		Endpoint:            aggEP,
		ContinuousDiscovery: true,
		RediscoverInterval:  50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer hub.Close()

	// Sensors are PDA-class: tiny lease capacities, so the middleware
	// itself enforces their resource limits (paper §2.5).
	var sensors []*tiamat.Instance
	for i := 0; i < 4; i++ {
		ep, err := netw.Attach(wire.Addr(fmt.Sprintf("sensor%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		s, err := tiamat.New(tiamat.Config{Endpoint: ep, Leases: lease.ConstrainedCapacity()})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		sensors = append(sensors, s)
	}
	netw.ConnectAll()

	// The hub registers the aggregation computation: an active tuple
	// that averages whatever readings are currently alive in its space.
	hub.RegisterEval("summarise", func(_ context.Context, _ tuple.Tuple) (tuple.Tuple, error) {
		var sum, n int64
		for _, t := range hub.LocalSpace().Snapshot() {
			if tag, err := t.StringAt(0); err != nil || tag != "reading" {
				continue
			}
			v, err := t.IntAt(2)
			if err != nil {
				continue
			}
			sum += v
			n++
		}
		if n == 0 {
			return tuple.T(tuple.String("summary"), tuple.Int(0), tuple.Int(0)), nil
		}
		return tuple.T(tuple.String("summary"), tuple.Int(sum/n), tuple.Int(n)), nil
	})

	publish := func(i int, s *tiamat.Instance) {
		value := 20 + rng.Int63n(10)
		reading := tuple.T(tuple.String("reading"), tuple.Int(int64(i)), tuple.Int(value))
		// Readings go straight to the hub's space (direct out, §2.4)
		// under a short lease: stale data expires by itself.
		err := s.OutAt("hub", reading, lease.Flexible(lease.Terms{
			Duration: readingLease, MaxRemotes: 2, MaxBytes: 128,
		}))
		if err != nil {
			fmt.Printf("  sensor%d publish refused: %v\n", i, err)
		}
	}

	mon := monitor.New(8)
	interval := monitor.NewAdaptiveInterval(50*time.Millisecond, 400*time.Millisecond)

	summarize := func(round int) {
		if err := hub.Eval("summarise", tuple.T(), nil); err != nil {
			log.Fatal(err)
		}
		res, err := hub.In(context.Background(),
			tuple.Tmpl(tuple.String("summary"), tuple.FormalInt(), tuple.FormalInt()),
			lease.Flexible(lease.Terms{Duration: time.Second}))
		if err != nil {
			log.Fatal(err)
		}
		avg, _ := res.Tuple.IntAt(1)
		n, _ := res.Tuple.IntAt(2)
		visible := netw.Neighbors("hub")
		mon.ObserveVisible(time.Now(), visible)
		iv := interval.Update(mon.Stability())
		fmt.Printf("round %d: %d live readings, avg %d°C, %d sensors visible, stability %.2f, sample interval %v\n",
			round, n, avg, len(visible), mon.Stability(), iv)
	}

	for round := 1; round <= 3; round++ {
		for i, s := range sensors {
			publish(i, s)
		}
		time.Sleep(30 * time.Millisecond)
		summarize(round)
		time.Sleep(100 * time.Millisecond)
	}

	// A sensor's battery dies mid-deployment: it just disappears. Its
	// last readings expire on their own lease — no tombstones, no
	// cleanup protocol (the paper's core resource-management argument).
	fmt.Println("sensor3 battery dies")
	sensors[3].Close()
	netw.Isolate("sensor3")

	for round := 4; round <= 5; round++ {
		for i, s := range sensors[:3] {
			publish(i, s)
		}
		time.Sleep(30 * time.Millisecond)
		summarize(round)
		time.Sleep(100 * time.Millisecond)
	}

	// Wait past the reading lease: the dead sensor's data is gone.
	time.Sleep(readingLease)
	count := 0
	for _, t := range hub.LocalSpace().Snapshot() {
		if tag, err := t.StringAt(0); err == nil && tag == "reading" {
			if id, _ := t.IntAt(1); id == 3 {
				count++
			}
		}
	}
	fmt.Printf("readings from dead sensor3 still in the space: %d (leases reclaimed them)\n", count)
	fmt.Println("sensornet example complete")
}
