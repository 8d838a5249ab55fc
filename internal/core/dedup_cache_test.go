package core

import (
	"testing"
	"time"

	"tiamat/wire"
)

// TestServedCacheTTLExpiry verifies the dedup cache forgets replies once
// dedupTTL has passed: a lookup after the TTL misses, and the sweep
// on insert drops expired entries so a long-lived responder's memory is
// bounded by rate × TTL, not by lifetime.
func TestServedCacheTTLExpiry(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]

	key := waitKey{from: "peer", id: 1}
	a.recordServed(key, &wire.Message{Type: wire.TAck, ID: 1, From: a.Addr(), OK: true})

	now := r.clk.Now()
	a.mu.Lock()
	hit := a.servedLookupLocked(key, now)
	a.mu.Unlock()
	if hit == nil {
		t.Fatal("fresh entry missed")
	}

	r.clk.Advance(dedupTTL + time.Second)
	now = r.clk.Now()
	a.mu.Lock()
	hit = a.servedLookupLocked(key, now)
	a.mu.Unlock()
	if hit != nil {
		t.Fatal("expired entry still served")
	}

	// The next insert's sweep must drop every expired entry and its
	// order slot, not just the looked-up key.
	for id := uint64(2); id <= 10; id++ {
		a.recordServed(waitKey{from: "peer", id: id},
			&wire.Message{Type: wire.TAck, ID: id, From: a.Addr(), OK: true})
	}
	r.clk.Advance(dedupTTL + time.Second)
	a.recordServed(waitKey{from: "peer", id: 11},
		&wire.Message{Type: wire.TAck, ID: 11, From: a.Addr(), OK: true})
	a.mu.Lock()
	nEntries, nOrder := len(a.served), len(a.servedOrder)
	a.mu.Unlock()
	if nEntries != 1 || nOrder != 1 {
		t.Fatalf("after sweep: %d entries, %d order slots, want 1/1", nEntries, nOrder)
	}
}

// TestServedCacheReRecordKeepsFreshEntry guards the seq-stamp fix: when a
// key is deleted out of band (settleHold on release) and later
// re-recorded, the stale eviction slot left by the first recording must
// not evict the fresh entry when it reaches the head of the order.
func TestServedCacheReRecordKeepsFreshEntry(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]

	key := waitKey{from: "peer", id: 1}
	a.recordServed(key, &wire.Message{Type: wire.TResult, ID: 1, From: a.Addr(), HoldID: 5})

	// Out-of-band delete, as settleHold does on reinstatement.
	a.mu.Lock()
	delete(a.served, key)
	a.mu.Unlock()

	fresh := &wire.Message{Type: wire.TResult, ID: 1, From: a.Addr(), HoldID: 6}
	a.recordServed(key, fresh)

	// Fill the cache to exactly the size cap so the sweep pops the order
	// head (the stale slot for the first recording) without any live
	// entry deserving size-cap eviction.
	for id := uint64(2); id <= uint64(servedCacheMax); id++ {
		a.recordServed(waitKey{from: "peer", id: id},
			&wire.Message{Type: wire.TAck, ID: id, From: a.Addr(), OK: true})
	}

	now := r.clk.Now()
	a.mu.Lock()
	hit := a.servedLookupLocked(key, now)
	a.mu.Unlock()
	if hit == nil || hit.HoldID != 6 {
		t.Fatalf("fresh re-recorded entry lost (got %+v)", hit)
	}
}
