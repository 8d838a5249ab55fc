// Package transport defines the abstraction Tiamat instances use to reach
// one another. The Tiamat model "does not depend on any particular
// implementation of visibility, only the concept of visibility" (paper
// §2.2); Endpoint is that concept's operational form: multicast reaches
// whoever is currently visible, unicast reaches a specific visible
// instance, and failures surface as ErrUnreachable.
//
// Two implementations exist: tiamat/transport/memnet (simulated network
// with an explicit visibility graph, used by tests and experiments) and
// tiamat/transport/netudp (UDP multicast discovery + TCP unicast for real
// deployments).
package transport

import (
	"errors"

	"tiamat/wire"
)

// Errors reported by transports.
var (
	// ErrUnreachable reports that the destination is not currently
	// visible (out of range, departed, or partitioned away).
	ErrUnreachable = errors.New("transport: unreachable")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: closed")
)

// Endpoint is one instance's attachment to the network.
type Endpoint interface {
	// Addr returns this endpoint's contact address.
	Addr() wire.Addr
	// Send unicasts a message to a visible instance.
	Send(to wire.Addr, m *wire.Message) error
	// Multicast sends a message to every currently visible instance
	// that m.Skip does not name. It returns the number of instances the
	// message was offered to, or -1 when the transport cannot know (e.g.
	// real UDP multicast, whose datagram reaches skipped ones too).
	Multicast(m *wire.Message) (int, error)
	// Recv returns the inbound message stream. The channel is closed
	// when the endpoint closes. A received message's From is always a
	// contact address: the sender's, stamped when the channel names it,
	// or the one a frame sent on another node's behalf carries.
	Recv() <-chan *wire.Message
	// Close detaches from the network.
	Close() error
}
