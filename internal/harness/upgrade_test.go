package harness

import "testing"

// TestC6RollingRestartSoak runs the C6 rolling-restart soak at Quick
// scale; the acceptance invariants (the take contract across every node's
// kill and restart, replication engaging before each kill, every
// restarted node listed again, no goroutine leaks) are asserted inside
// C6RollingRestart itself and surface here as an error.
func TestC6RollingRestartSoak(t *testing.T) {
	tab, err := C6RollingRestart(Quick)
	if tab != nil {
		render(t, tab)
	}
	if err != nil {
		t.Fatal(err)
	}
}
