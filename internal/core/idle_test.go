package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tiamat/tuple"
	"tiamat/wire"
)

// An idle node is its receive loop, a serve pool if its space may block,
// and one deadline queue:
// every background job (the orphan and repair sweeps) is an entry on that
// queue, and every watch over a lease (a served wait's, an eval's) is the
// lease's end hook. These tests hold a node to that, by goroutine and by
// timer.

// coreGoroutines is a census of the goroutines whose stacks sit in this
// package's code, test code apart: each one's entry function by goroutine
// ID, what the instances alive in the process keep running. A goroutine
// not yet run shows only the wrapper its go statement compiled to, so the
// census waits for every one of ours to have started.
func coreGoroutines() map[string]string {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		census, started := takeCensus()
		if started || time.Now().After(deadline) {
			return census
		}
	}
}

func takeCensus() (census map[string]string, started bool) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	census, started = make(map[string]string), true
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "_test.go:") {
			continue // a test, or a goroutine a test started
		}
		lines := strings.Split(g, "\n")
		id, entry, ours := strings.Fields(lines[0])[1], "", false // "goroutine 7 [running]:"
		for _, line := range lines[1:] {
			if strings.HasPrefix(line, "created by ") {
				break
			}
			if line == "" || strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "runtime.goexit") {
				continue // a frame's file and line, or where the goroutine returns to
			}
			entry = line[:strings.LastIndexByte(line, '(')]
			ours = ours || strings.HasPrefix(line, "tiamat/internal/core.")
		}
		if ours {
			census[id] = entry
			started = started && !strings.Contains(entry, ".gowrap")
		}
	}
	return census, started
}

// grown counts, by entry, the goroutines a census after holds that the one
// before did not. One that ended in between is not counted: it may be an
// earlier test's, winding down.
func grown(before, after map[string]string) map[string]int {
	d := make(map[string]int)
	for id, e := range after {
		if _, ok := before[id]; !ok {
			d[e]++
		}
	}
	return d
}

// TestIdleNodeGoroutines: a replicating node that nobody talks to runs its
// receive loop, nothing else, when its space never blocks; a persist node
// runs the serve pool beside it.
func TestIdleNodeGoroutines(t *testing.T) {
	const loop, worker = "tiamat/internal/core.(*Instance).loop", "tiamat/internal/core.(*governor).worker"
	for _, tc := range []struct {
		name    string
		persist bool
		want    map[string]int
	}{
		{"store", false, map[string]int{loop: 1}},
		{"persist", true, map[string]int{loop: 1, worker: serveWorkers}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := coreGoroutines()
			r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
				c.Replicas = 2
				if tc.persist {
					c.Space = openSpace(t, c, "persist")
				}
			})
			if d := grown(before, coreGoroutines()); fmt.Sprint(d) != fmt.Sprint(tc.want) {
				t.Fatalf("an idle node runs %v, want %v", d, tc.want)
			}
			r.clk.Advance(10 * time.Second) // ten sweeps of each kind start nothing
			if d := grown(before, coreGoroutines()); fmt.Sprint(d) != fmt.Sprint(tc.want) {
				t.Fatalf("after ten sweep intervals an idle node runs %v, want %v", d, tc.want)
			}
		})
	}
}

// TestIdleNodeHoldsOneTimer: on a virtual clock an idle replicating node
// holds one pending timer, its deadline queue's, across ten sweep
// intervals — the orphan and repair sweeps are two entries under it.
func TestIdleNodeHoldsOneTimer(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) { c.Replicas = 2 })
	a := r.inst["a"]
	for k := 0; k <= 10; k++ {
		// A sweep run on a goroutine of its own would re-arm its timer
		// asynchronously: give one time to, so the count is the settled one.
		time.Sleep(5 * time.Millisecond)
		if n := r.clk.Pending(); n != 1 {
			t.Fatalf("after %d sweep intervals the idle node holds %d timers, want 1", k, n)
		}
		if n := a.deadlines.Len(); n != 2 {
			t.Fatalf("after %d sweep intervals %d entries on the queue, want the two sweeps", k, n)
		}
		r.clk.Advance(time.Second)
	}
}

// TestBusyNodeHoldsOneTimer: on a virtual clock a node with a walk in
// flight (its lease live), a leased stored tuple and a pending hold grace
// (on the tuple's twin) holds one pending timer, its queue's. The walk's contact timeout, the
// lease's expiry, the janitor's reclaim, the grace and the orphan sweep
// are five entries under it: the lease manager and the store the node
// built schedule on the node's queue, not on queues of their own.
func TestBusyNodeHoldsOneTimer(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	z, err := r.net.Attach("z") // a peer that never answers
	if err != nil {
		t.Fatal(err)
	}
	zin := &inbox{ep: z}
	r.net.ConnectAll()
	r.seedCaps("z")
	job := func(k int64) tuple.Tuple { return tuple.T(tuple.String("job"), tuple.Int(k)) }
	for k := int64(1); k <= 2; k++ {
		if err := a.Out(job(k), hourLease()); err != nil {
			t.Fatal(err)
		}
	}
	h, ok := a.LocalSpace().Hold(tuple.Tmpl(tuple.String("job"), tuple.FormalInt()))
	if !ok {
		t.Fatal("setup: hold failed")
	}
	a.registerHold(h, time.Minute, waitKey{from: "z", id: 1}, a.clk.Now())
	go func() { _, _, _ = a.Inp(context.Background(), reqTmpl(), opLease(time.Hour)) }()
	eventually(t, "the walk reached z", func() bool { return len(zin.ofType(wire.TOp)) == 1 })
	// The walk schedules its deadline just after its frame leaves.
	for until := time.Now().Add(2 * time.Second); a.deadlines.Len() < 5 && time.Now().Before(until); {
		time.Sleep(time.Millisecond)
	}
	if n := r.clk.Pending(); n != 1 {
		t.Fatalf("the busy node holds %d timers, want 1", n)
	}
	if n := a.deadlines.Len(); n != 5 {
		t.Fatalf("%d entries on the node's queue, want 5: sweep, walk, lease, janitor, grace", n)
	}
}
