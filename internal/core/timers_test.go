package core

import (
	"fmt"
	"testing"
	"time"

	"tiamat/wire"
)

// TestTimersDeriveFromContactTimeout: at the default ContactTimeout every
// recovery timer reads what it read when each was a Config field of its
// own, and at any contact timeout and retry count the hold grace outlasts
// the accept's whole retransmission schedule — the owner never reinstates
// a tuple while the requester may still be sending its accept.
func TestTimersDeriveFromContactTimeout(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) { c.Replicas = 2 })
	a := r.inst["a"]
	for _, tc := range []struct {
		name      string
		got, want time.Duration
	}{
		{"retry backoff", a.tm.backoff, 50 * time.Millisecond},
		{"hold grace", a.tm.holdGrace, 2 * time.Second},
		{"orphan sweep", a.orphans.every, time.Second},
		{"orphan grace", a.tm.orphanGrace, 3 * time.Second},
		{"repair sweep", a.repl.repair.every, time.Second},
	} {
		if tc.got != tc.want {
			t.Errorf("%s at the default contact timeout = %v, want %v", tc.name, tc.got, tc.want)
		}
	}

	for _, contact := range []time.Duration{25 * time.Millisecond, 250 * time.Millisecond, time.Second} {
		for _, attempts := range []int{3, 4} {
			t.Run(fmt.Sprintf("%v/%d", contact, attempts), func(t *testing.T) {
				r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
					c.ContactTimeout, c.RetryAttempts = contact, attempts
				})
				a := r.inst["a"]
				// Transmission k waits at most ContactTimeout +
				// backoff·2^(k-1) plus a full backoff of jitter.
				var schedule time.Duration
				for k := 1; k <= attempts; k++ {
					schedule += contact + a.tm.backoff<<(k-1) + a.tm.backoff
				}
				if a.tm.holdGrace < schedule {
					t.Fatalf("hold grace %v is shorter than the %d-transmission accept schedule %v",
						a.tm.holdGrace, attempts, schedule)
				}
			})
		}
	}
}
