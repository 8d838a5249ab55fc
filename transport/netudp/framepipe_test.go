package netudp

import (
	"testing"
	"time"

	"tiamat/trace"
	"tiamat/transport/transporttest"
)

// TestFramePipe runs the transport contract memnet also runs, over
// loopback TCP sessions: group commit may put concurrent frames into one
// write, never into one frame, and the one connection opens with its
// preamble.
func TestFramePipe(t *testing.T) {
	transporttest.FramePipe(t, func(t *testing.T) transporttest.Pair {
		met := &trace.Metrics{}
		a, err := New(Config{Metrics: met, SendBackoff: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return transporttest.Pair{A: a, B: b, Met: met, Dead: "127.0.0.1:1",
			Preamble: int64(len(appendPreamble(nil, a.Addr())))}
	})
}
