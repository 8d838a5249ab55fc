package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tiamat/wire"
)

// An idle node is its receive loop, its serve pool and one deadline queue:
// every background job (the orphan and repair sweeps) is an entry on that
// queue, and every watch over a lease (a served wait's, an eval's) is the
// lease's end hook. These tests hold a node to that, by goroutine and by
// timer.

// coreGoroutines is a census of the goroutines whose stacks sit in this
// package's code, test code apart, by entry function: what the instances
// alive in the process keep running. A goroutine not yet run shows only
// the wrapper its go statement compiled to, so the census waits for every
// one of ours to have started.
func coreGoroutines() map[string]int {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		census, started := takeCensus()
		if started || time.Now().After(deadline) {
			return census
		}
	}
}

func takeCensus() (census map[string]int, started bool) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	census, started = make(map[string]int), true
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "_test.go:") {
			continue // a test, or a goroutine a test started
		}
		entry, ours := "", false
		for _, line := range strings.Split(g, "\n")[1:] {
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
			census[entry]++
			started = started && !strings.Contains(entry, ".gowrap")
		}
	}
	return census, started
}

// grown is what a census after holds beyond the one before, by entry.
func grown(before, after map[string]int) map[string]int {
	d := make(map[string]int)
	for e, n := range after {
		if n != before[e] {
			d[e] = n - before[e]
		}
	}
	for e, n := range before {
		if _, ok := after[e]; !ok {
			d[e] = -n
		}
	}
	return d
}

// TestIdleNodeGoroutines: a replicating node that nobody talks to runs its
// receive loop and the serve pool, nothing else.
func TestIdleNodeGoroutines(t *testing.T) {
	before := coreGoroutines()
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) { c.Replicas = 2 })
	want := map[string]int{
		"tiamat/internal/core.(*Instance).loop":   1,
		"tiamat/internal/core.(*governor).worker": serveWorkers,
	}
	if d := grown(before, coreGoroutines()); fmt.Sprint(d) != fmt.Sprint(want) {
		t.Fatalf("an idle node runs %v, want %v", d, want)
	}
	r.clk.Advance(10 * time.Second) // ten sweeps of each kind start nothing
	if d := grown(before, coreGoroutines()); fmt.Sprint(d) != fmt.Sprint(want) {
		t.Fatalf("after ten sweep intervals an idle node runs %v, want %v", d, want)
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
