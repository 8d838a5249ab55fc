package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiamat/space"
	"tiamat/space/spacetest"
	"tiamat/tuple"
)

// TestStressConservation drives concurrent Out/Inp/Wait/Hold/Park
// across many goroutines and tag classes and asserts conservation: every
// tuple put into the space is consumed exactly once — never lost, never
// delivered to two takers — and the space drains to empty. Run under
// -race this exercises the sharded store's cross-shard delivery, the
// global (formal-lead) waiter path, hold accept/release, and parked
// takers whose Cancel races the Out that commits a hold to them.
func TestStressConservation(t *testing.T) {
	const (
		producers   = 8
		perProducer = 300
		total       = producers * perProducer
		tags        = 5 // one producer class per tag, rotating
	)
	s := New(WithShards(8))
	defer s.Close()

	tagOf := func(k int) string { return fmt.Sprintf("class-%d", k%tags) }

	// consumed collects each unique tuple ID exactly once; a duplicate
	// delivery would double-mark, a loss would leave the map short.
	var mu sync.Mutex
	consumed := make(map[int64]int)
	var nConsumed atomic.Int64
	record := func(tp tuple.Tuple) {
		id, err := tp.IntAt(1)
		if err != nil {
			t.Errorf("consumed tuple without ID: %v", tp)
			return
		}
		mu.Lock()
		consumed[id]++
		mu.Unlock()
		nConsumed.Add(1)
	}

	var wg sync.WaitGroup

	// Producers: unique-ID tuples across the tag classes, plus a sprinkle
	// of untagged tuples (int-lead) that land in the scan shard.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				id := int64(p*perProducer + k)
				var tp tuple.Tuple
				if k%7 == 3 {
					tp = tuple.T(tuple.Int(-1), tuple.Int(id))
				} else {
					tp = tuple.T(tuple.String(tagOf(k)), tuple.Int(id))
				}
				if _, err := s.Out(tp, time.Time{}); err != nil {
					t.Errorf("Out: %v", err)
					return
				}
			}
		}(p)
	}

	done := make(chan struct{})

	// Inp pollers: pinned templates per tag class plus the scan-shard class.
	for c := 0; c < tags+1; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var p tuple.Template
			if c == tags {
				p = tuple.Tmpl(tuple.Int(-1), tuple.FormalInt())
			} else {
				p = tuple.Tmpl(tuple.String(tagOf(c)), tuple.FormalInt())
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if tp, ok := s.Inp(p); ok {
					record(tp)
				}
			}
		}(c)
	}

	// Blocking takers on the global (formal-lead) path: these register on
	// the cross-shard waiter list and race the pollers for every class.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := tuple.Tmpl(tuple.Any(), tuple.FormalInt())
			for {
				select {
				case <-done:
					return
				default:
				}
				w := spacetest.Wait(s, p, space.Take)
				select {
				case tp := <-w.C:
					record(tp)
				case <-done:
					// A delivery may have raced the cancel; take it so
					// the tuple is not lost.
					if !w.Cancel() {
						record(<-w.C)
					}
					return
				}
			}
		}()
	}

	// Holders: tentative takes that flip a coin between accept (consume)
	// and release (reinstate); released tuples must be consumed by someone
	// else eventually.
	for h := 0; h < 3; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			n := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				p := tuple.Tmpl(tuple.String(tagOf(n)), tuple.FormalInt())
				n++
				hd, ok := s.Hold(p)
				if !ok {
					continue
				}
				if (n+h)%3 == 0 {
					hd.Release()
				} else {
					record(hd.Tuple())
					hd.Accept()
				}
			}
		}(h)
	}

	// Parked takers, pinned and formal-lead, settled by a call from
	// whichever producer's Out matches them. Half the time the taker gives
	// up at once, so its Cancel races whatever Out is in flight: true means
	// no call was or will be made, false that the hold is (or is about to
	// be) in the sink, to be settled like any other — by the same coin
	// between accept (consume) and release (reinstate, which may call the
	// next parked taker from inside this one's goroutine).
	for h := 0; h < 4; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(h)))
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				p := tuple.Tmpl(tuple.String(tagOf(n)), tuple.FormalInt())
				if h == 3 {
					p = tuple.Tmpl(tuple.Any(), tuple.FormalInt())
				}
				w := spacetest.Park(s, p, space.Claim)
				if rng.Intn(2) == 0 && w.Cancel() {
					continue
				}
				var d spacetest.Delivery
				select {
				case d = <-w.C:
				case <-done:
					if w.Cancel() {
						return
					}
					d = <-w.C
				}
				if rng.Intn(3) == 0 {
					d.H.Release()
				} else {
					record(d.T)
					d.H.Accept()
				}
				select {
				case d = <-w.C:
					t.Errorf("taker called twice, second time with %v", d.T)
				default:
				}
			}
		}(h)
	}

	// Readers: non-consuming traffic that must never affect conservation.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := tuple.Tmpl(tuple.Any(), tuple.FormalInt())
			for {
				select {
				case <-done:
					return
				default:
				}
				s.Rdp(p)
			}
		}()
	}

	// Wait until every produced tuple has been consumed (or time out).
	deadline := time.After(30 * time.Second)
	for nConsumed.Load() < total {
		select {
		case <-deadline:
			close(done)
			wg.Wait()
			t.Fatalf("timeout: consumed %d of %d (space holds %d)",
				nConsumed.Load(), total, s.Count())
		case <-time.After(time.Millisecond):
		}
	}
	close(done)
	wg.Wait()

	if len(consumed) != total {
		t.Fatalf("consumed %d distinct IDs, want %d", len(consumed), total)
	}
	for id, n := range consumed {
		if n != 1 {
			t.Fatalf("tuple %d consumed %d times", id, n)
		}
	}
	if got := s.Count(); got != 0 {
		t.Fatalf("space not drained: %d tuples left", got)
	}
}
