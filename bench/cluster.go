package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/transport/netudp"
	"tiamat/wire"
)

// benchCapacity is every instance's lease capacity. With DefaultCapacity
// (1024 leases) a 1024-tuple prefill silently exhausts the manager and
// every later op is refused; the benchmark measures the op path, not
// admission refusals.
var benchCapacity = lease.Capacity{
	MaxActive:     1 << 20,
	MaxDuration:   time.Hour,
	MaxRemotes:    64,
	MaxBytes:      1 << 20,
	MaxTotalBytes: 1 << 30,
}

// Explicit requesters: the default terms (5 s) would expire resident
// tuples in the middle of a run.
var (
	reqOut      = lease.Flexible(lease.Terms{Duration: 30 * time.Second, MaxRemotes: 16, MaxBytes: 64 << 10})
	reqResident = lease.Flexible(lease.Terms{Duration: time.Hour, MaxRemotes: 16, MaxBytes: 64 << 10})
	reqProbe    = lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 16})
	reqWait     = lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 16})
	// reqAbsent leases a probe for a key known to be absent. Its answer
	// is "not found" whether a reply or the expiry ends it, so a short
	// term cannot turn a slow op into a wrong one; it only bounds what a
	// lost reply costs (README, findings: the not-found re-probe race).
	reqAbsent = lease.Flexible(lease.Terms{Duration: 100 * time.Millisecond, MaxRemotes: 16})
)

const (
	transportMemnet = "memnet"
	transportNetudp = "netudp"
	// closeLimit bounds cluster teardown: a repeat that cannot close
	// fails instead of hanging the run.
	closeLimit = 5 * time.Second
)

// cluster is n instances over one transport, sharing one metrics
// registry so a snapshot difference covers the whole cluster.
type cluster struct {
	transport string
	met       *trace.Metrics
	net       *memnet.Network
	eps       []transport.Endpoint // as handed to the instances
	inst      []*core.Instance
	addrs     []wire.Addr
	rec       *recorder // nil when untraced
}

// reservePorts finds n free loopback ports by listening on :0 and
// closing again, so every netudp transport can be given the full
// StaticPeers list when it is created.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		addrs = append(addrs, ln.Addr().String())
		if err := ln.Close(); err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
	}
	return addrs, nil
}

func newNetudpEndpoints(n int, met *trace.Metrics) ([]transport.Endpoint, error) {
	var lastErr error
	// Another process can take a reserved port between the close and the
	// re-listen; reserve again rather than fail the repeat.
	for attempt := 0; attempt < 5; attempt++ {
		peers, err := reservePorts(n)
		if err != nil {
			return nil, err
		}
		eps := make([]transport.Endpoint, 0, n)
		for _, a := range peers {
			// No multicast group: discovery is a unicast probe of the
			// static peer set, so the run needs nothing but loopback TCP.
			t, err := netudp.New(netudp.Config{Listen: a, StaticPeers: peers, Metrics: met})
			if err != nil {
				lastErr = err
				break
			}
			eps = append(eps, t)
		}
		if len(eps) == n {
			return eps, nil
		}
		for _, e := range eps {
			_ = e.Close() // nothing was sent on it yet
		}
	}
	return nil, lastErr
}

// newCluster builds the transports first and the instances second: every
// boot hello then finds its peers listening, and no instance spends its
// start-up in dial retries.
func newCluster(kind string, n int, traced bool) (*cluster, error) {
	c := &cluster{transport: kind, met: &trace.Metrics{}}
	var raw []transport.Endpoint
	switch kind {
	case transportMemnet:
		c.net = memnet.New(memnet.WithMetrics(c.met))
		for i := 0; i < n; i++ {
			ep, err := c.net.Attach(wire.Addr(fmt.Sprintf("n%d", i)))
			if err != nil {
				c.net.Close()
				return nil, err
			}
			raw = append(raw, ep)
		}
		c.net.ConnectAll()
	case transportNetudp:
		var err error
		if raw, err = newNetudpEndpoints(n, c.met); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", kind)
	}
	for _, ep := range raw {
		c.addrs = append(c.addrs, ep.Addr())
	}
	if traced {
		c.rec = newRecorder(c.addrs)
	}
	for _, ep := range raw {
		if traced {
			ep = newTracedEndpoint(ep, c.rec)
		}
		c.eps = append(c.eps, ep)
	}
	for _, ep := range c.eps {
		inst, err := core.New(core.Config{Endpoint: ep, Metrics: c.met, Leases: benchCapacity})
		if err != nil {
			_ = c.close()
			return nil, err
		}
		c.inst = append(c.inst, inst)
	}
	if err := c.learnPeers(); err != nil {
		_ = c.close()
		return nil, err
	}
	return c, nil
}

// learnPeers runs one discovery round on every instance and waits until
// each responder list holds every peer with its capability set known, so
// the first timed op walks a full list and acks already coalesce.
func (c *cluster) learnPeers() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for _, inst := range c.inst {
		if _, err := inst.Spaces(ctx); err != nil {
			return fmt.Errorf("discovery from %s: %w", inst.Addr(), err)
		}
	}
	for {
		known := true
		for _, inst := range c.inst {
			if len(inst.ResponderList()) != len(c.inst)-1 {
				known = false
			}
			for _, a := range c.addrs {
				if _, ok := inst.PeerCaps(a); a != inst.Addr() && !ok {
					known = false
				}
			}
		}
		if known {
			return nil
		}
		if ctx.Err() != nil {
			return errors.New("peers not learned within 3s")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// close tears the cluster down within closeLimit.
func (c *cluster) close() error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, inst := range c.inst {
			_ = inst.Close() // always nil
		}
		// Endpoints whose instance was never created still need closing.
		for _, ep := range c.eps[len(c.inst):] {
			_ = ep.Close()
		}
		if c.net != nil {
			c.net.Close()
		}
	}()
	select {
	case <-done:
		return nil
	case <-time.After(closeLimit):
		return fmt.Errorf("cluster close did not finish within %v", closeLimit)
	}
}

// leaseStats sums the lease managers' counters over the cluster.
func (c *cluster) leaseStats() lease.Stats {
	var sum lease.Stats
	for _, inst := range c.inst {
		s := inst.LeaseManager().Stats()
		sum.Active += s.Active
		sum.Granted += s.Granted
		sum.Refused += s.Refused
	}
	return sum
}

// resident is the number of live tuples over the cluster, space-info
// tuples included (one per instance).
func (c *cluster) resident() int {
	n := 0
	for _, inst := range c.inst {
		n += inst.LocalSpace().Count()
	}
	return n
}

// settleResident waits for the cluster to hold exactly want tuples:
// accepts still in flight when the load stops land within milliseconds.
func (c *cluster) settleResident(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		got := c.resident()
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}
