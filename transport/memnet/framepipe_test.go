package memnet

import (
	"testing"

	"tiamat/transport/transporttest"
)

// TestFramePipe runs the transport contract netudp also runs: the
// simulator delivers an ack the same way it delivers anything else.
func TestFramePipe(t *testing.T) {
	transporttest.FramePipe(t, func(t *testing.T) transporttest.Pair {
		n := New()
		t.Cleanup(n.Close)
		a, _ := n.Attach("a")
		b, _ := n.Attach("b")
		n.SetVisible("a", "b", true)
		return transporttest.Pair{A: a, B: b, Met: n.Metrics(), Dead: "ghost"}
	})
}
