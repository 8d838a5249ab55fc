package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestAddIncGet(t *testing.T) {
	var m Metrics
	if m.Get("x") != 0 {
		t.Fatal("absent counter should read 0")
	}
	m.Inc("x")
	m.Add("x", 4)
	if got := m.Get("x"); got != 5 {
		t.Fatalf("x = %d, want 5", got)
	}
	m.Set("x", 2)
	if got := m.Get("x"); got != 2 {
		t.Fatalf("after Set, x = %d", got)
	}
}

func TestSnapshotAndDiff(t *testing.T) {
	var m Metrics
	m.Add("a", 10)
	snap := m.Snapshot()
	m.Add("a", 5)
	m.Add("b", 3)
	d := m.Diff(snap)
	if d["a"] != 5 || d["b"] != 3 {
		t.Fatalf("diff = %v", d)
	}
	// Snapshot must be a copy.
	snap["a"] = 999
	if m.Get("a") != 15 {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestReset(t *testing.T) {
	var m Metrics
	m.Add("a", 7)
	m.Reset()
	if m.Get("a") != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestStringSorted(t *testing.T) {
	var m Metrics
	m.Add("zeta", 1)
	m.Add("alpha", 2)
	s := m.String()
	if !strings.HasPrefix(s, "alpha=2") || !strings.Contains(s, "zeta=1") {
		t.Fatalf("String = %q", s)
	}
}

func TestConcurrent(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Inc("c")
				_ = m.Get("c")
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := m.Get("c"); got != 8000 {
		t.Fatalf("c = %d, want 8000", got)
	}
}

// A node registry keeps its own values and forwards every write to its
// parent under the same name; two nodes of one parent sum in it.
func TestNodeForwardsToParent(t *testing.T) {
	var root Metrics
	a, b := NewNode(&root), NewNode(&root)
	a.Inc("x")
	a.Add("x", 2)
	b.Add("x", 4)
	a.Set("g", 7)
	if a.Get("x") != 3 || b.Get("x") != 4 || root.Get("x") != 7 {
		t.Fatalf("x: a=%d b=%d root=%d, want 3/4/7", a.Get("x"), b.Get("x"), root.Get("x"))
	}
	if a.Get("g") != 7 || root.Get("g") != 7 || b.Get("g") != 0 {
		t.Fatalf("g: a=%d b=%d root=%d, want 7/0/7", a.Get("g"), b.Get("g"), root.Get("g"))
	}
	// A write to the parent is the parent's alone.
	root.Inc("x")
	if a.Get("x") != 3 || root.Get("x") != 8 {
		t.Fatalf("after root.Inc: a=%d root=%d, want 3/8", a.Get("x"), root.Get("x"))
	}
	// Without a parent a node is a plain registry.
	lone := NewNode(nil)
	lone.Inc("x")
	if lone.Get("x") != 1 {
		t.Fatalf("lone x = %d", lone.Get("x"))
	}
}

// Snapshot, Diff and Reset concern the registry they are called on.
func TestNodeReadsAndResetsStayLocal(t *testing.T) {
	var root Metrics
	a := NewNode(&root)
	a.Add("x", 5)
	base := a.Snapshot()
	a.Add("x", 2)
	if d := a.Diff(base)["x"]; d != 2 {
		t.Fatalf("node diff = %d, want 2", d)
	}
	if d := root.Diff(base)["x"]; d != 2 {
		t.Fatalf("root diff against the node's snapshot = %d, want 2", d)
	}
	a.Reset()
	if a.Get("x") != 0 || root.Get("x") != 7 {
		t.Fatalf("after node reset: a=%d root=%d, want 0/7", a.Get("x"), root.Get("x"))
	}
	a.Inc("x")
	root.Reset()
	if a.Get("x") != 1 || root.Get("x") != 0 {
		t.Fatalf("after root reset: a=%d root=%d, want 1/0", a.Get("x"), root.Get("x"))
	}
	// The link outlives both resets.
	a.Inc("x")
	if a.Get("x") != 2 || root.Get("x") != 1 {
		t.Fatalf("after both resets: a=%d root=%d, want 2/1", a.Get("x"), root.Get("x"))
	}
	if _, ok := root.Snapshot()["only-root"]; ok {
		t.Fatal("unexpected counter")
	}
	root.Inc("only-root")
	if _, ok := a.Snapshot()["only-root"]; ok {
		t.Fatal("the parent's counter showed in the node's snapshot")
	}
}

func TestNodesConcurrentLoseNothing(t *testing.T) {
	var root Metrics
	nodes := []*Metrics{NewNode(&root), NewNode(&root)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(m *Metrics) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Inc("c")
				m.Add("d", 2)
				_ = m.Snapshot()
			}
		}(nodes[g%2])
	}
	wg.Wait()
	for k, m := range nodes {
		if m.Get("c") != 4000 || m.Get("d") != 8000 {
			t.Fatalf("node %d: c=%d d=%d, want 4000/8000", k, m.Get("c"), m.Get("d"))
		}
	}
	if root.Get("c") != 8000 || root.Get("d") != 16000 {
		t.Fatalf("root: c=%d d=%d, want 8000/16000", root.Get("c"), root.Get("d"))
	}
}

func TestNodeIncAllocatesNothing(t *testing.T) {
	var root Metrics
	a := NewNode(&root)
	a.Inc("x") // warm: the counter and its link to the parent's exist
	if n := testing.AllocsPerRun(1000, func() { a.Inc("x") }); n != 0 {
		t.Fatalf("Inc on a warm node allocates %v objects", n)
	}
}

// A handle is the counter its name names: it is listed at 0 from the
// moment it is resolved, its writes read back by name, here and up the
// chain, and it keeps working across resets.
func TestCounterHandle(t *testing.T) {
	var root Metrics
	a := NewNode(&root)
	c := a.Counter("x")
	for _, m := range []*Metrics{a, &root} {
		if v, ok := m.Snapshot()["x"]; !ok || v != 0 {
			t.Fatalf("a resolved handle lists as %d, %v; want 0, true", v, ok)
		}
	}
	c.Inc()
	c.Add(4)
	a.Inc("x")
	if a.Get("x") != 6 || root.Get("x") != 6 || c.Load() != 6 {
		t.Fatalf("a=%d root=%d handle=%d, want 6 each", a.Get("x"), root.Get("x"), c.Load())
	}
	if a.Counter("x") != c {
		t.Fatal("a second resolution made a second counter")
	}
	c.Set(2)
	if a.Get("x") != 2 || root.Get("x") != 2 {
		t.Fatalf("after Set: a=%d root=%d, want 2/2", a.Get("x"), root.Get("x"))
	}
	a.Reset()
	c.Inc()
	if a.Get("x") != 1 || root.Get("x") != 3 {
		t.Fatalf("after reset: a=%d root=%d, want 1/3", a.Get("x"), root.Get("x"))
	}
}
