package core

import (
	"testing"
	"time"

	"tiamat/wire"
)

// TestHedgeDelayResistsOneLimper pins what paces hedges: a median over
// peers, not a percentile over replies. Four peers answer in about
// 100 µs and one limps at 60 ms, a tenth of all first-attempt replies.
// An upper percentile of the pooled replies lands on the limper's
// samples and would make every blocking walk wait 60 ms before hedging;
// the median of the peers' retransmission timeouts stays with the
// healthy majority.
func TestHedgeDelayResistsOneLimper(t *testing.T) {
	r := grayRig(t, []wire.Addr{"req"}, func(c *Config) { c.ContactTimeout = 100 * time.Millisecond })
	req0 := r.inst["req"]
	fast := []wire.Addr{"f0", "f1", "f2", "f3"}
	for _, a := range fast {
		req0.list.Observe(a)
	}
	req0.list.Observe("limper")
	for k := 0; k < 200; k++ {
		if k%10 == 9 {
			req0.noteReply("limper", 1, 60*time.Millisecond, true)
			continue
		}
		rtt := time.Duration(80+k%5*10) * time.Microsecond // 80–120 µs
		req0.noteReply(fast[k%len(fast)], 1, rtt, true)
	}
	if d := req0.hedgeDelay(); d >= 10*time.Millisecond {
		t.Fatalf("hedge delay %v with one limper among five peers, want under 10ms", d)
	}
}
