package lease

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestExpHeapPopsInDeadlineOrder checks the hand-sifted heap against sort
// under random interleavings of push and pop, and after init over
// arbitrary contents (the compaction path in release).
func TestExpHeapPopsInDeadlineOrder(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h expHeap
		var want []time.Time // what h holds, kept sorted
		check := func() {
			t.Helper()
			if len(h) != len(want) {
				t.Fatalf("seed %d: heap holds %d entries, want %d", seed, len(h), len(want))
			}
			if len(h) > 0 && !h[0].at.Equal(want[0]) {
				t.Fatalf("seed %d: head %v, want %v", seed, h[0].at, want[0])
			}
		}
		for step := 0; step < 400; step++ {
			switch {
			case len(want) == 0 || rng.Intn(3) > 0:
				// Few distinct instants, so equal deadlines are common.
				at := base.Add(time.Duration(rng.Intn(64)) * time.Second)
				h.push(expEntry{at: at})
				want = append(want, at)
				sort.Slice(want, func(i, j int) bool { return want[i].Before(want[j]) })
			default:
				if got := h.pop().at; !got.Equal(want[0]) {
					t.Fatalf("seed %d step %d: popped %v, want %v", seed, step, got, want[0])
				}
				want = want[1:]
			}
			check()
		}
		rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
		h.init()
		for len(want) > 0 {
			check()
			h.pop()
			want = want[1:]
		}
	}
}

// TestGrantCancelAllocatesOnlyTheLease pins the serve path's lease cost at
// one object per grant. An earlier-expiring lease holds the head of the
// expiry heap, so the shared timer is never re-armed and every cancelled
// entry goes stale inside the heap, where compaction finds it.
func TestGrantCancelAllocatesOnlyTheLease(t *testing.T) {
	m := NewManager(DefaultCapacity(), nil)
	defer m.Close()
	if _, err := m.GrantTerms(OpIn, Terms{Duration: time.Minute}); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		l, err := m.GrantTerms(OpIn, Terms{Duration: 30 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		l.Cancel()
	}
	for i := 0; i < 256; i++ {
		cycle() // grow the heap's backing array to its steady size
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 1 {
		t.Fatalf("GrantTerms+Cancel: %v allocs, want 1 (the lease)", allocs)
	}

	// The pop side: a heap with room to spare moves entries by value.
	h := make(expHeap, 0, 8)
	at := time.Unix(1_000_000, 0)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.push(expEntry{at: at})
		h.push(expEntry{at: at.Add(-time.Second)})
		h.pop()
		h.pop()
	}); allocs != 0 {
		t.Fatalf("expHeap push+pop: %v allocs, want 0", allocs)
	}
}
