// Package tiamat is a Go implementation of Tiamat, the generative-
// communication (tuple space) middleware for pervasive, changing
// environments described in "Tiamat: Generative Communication in a
// Changing World" (McSorley & Evans, MIDDLEWARE 2003).
//
// # Model
//
// Every Tiamat instance owns a local tuple space and participates in an
// opportunistic logical tuple space: the union of its local space and the
// spaces of all instances currently visible on the network. There are no
// explicit connect/disconnect operations and no global consistency —
// instances may see different logical spaces, and visibility can change
// at any moment without affecting the semantics of ongoing operations.
//
// Every operation is leased: the application negotiates a budget (time,
// remote contacts, bytes) with the instance's lease manager before work
// begins. Expired out-leases make tuples reclaimable; expired blocking
// reads return ErrNoMatch.
//
// # Quickstart
//
//	net := memnet.New()                       // or netudp for real networks
//	epA, _ := net.Attach("a")
//	epB, _ := net.Attach("b")
//	net.ConnectAll()
//	a, _ := tiamat.New(tiamat.Config{Endpoint: epA})
//	b, _ := tiamat.New(tiamat.Config{Endpoint: epB})
//	defer a.Close()
//	defer b.Close()
//
//	_ = a.Out(tuple.T(tuple.String("greeting"), tuple.String("hello")), nil)
//	res, _, _ := b.Rdp(ctx, tuple.Tmpl(tuple.String("greeting"), tuple.FormalString()), nil)
//
// See the examples directory for complete applications (a web proxy
// coordination system and a fractal render farm, the two applications the
// paper ports onto Tiamat).
package tiamat

import (
	"tiamat/internal/core"
)

// Instance is one Tiamat node: lease manager, local tuple space, and
// communications manager (paper Figure 2). Create one with New.
type Instance = core.Instance

// Config configures an Instance; Endpoint is required.
type Config = core.Config

// Result is a tuple returned by a read/take along with the handle of the
// space it came from, usable with OutBack.
type Result = core.Result

// GovernorConfig tunes the overload governor on the serve path:
// admission quotas, queue depth, and the shed/shrink/revoke watermarks
// (DESIGN.md §9). The zero value uses the library defaults.
type GovernorConfig = core.GovernorConfig

// GovernorReport is a snapshot of the governor's lifetime counters,
// available via Instance.Governor.
type GovernorReport = core.GovernorReport

// GrayReport is a snapshot of the gray-failure counters — hedged
// contacts fired/won/suppressed and the adaptive hedge delay (DESIGN.md
// §11) — available via
// Instance.Gray. Instance.Degraded reports whether the node is
// currently advertising itself degraded (WAL fsync stalls or governor
// queue delay).
type GrayReport = core.GrayReport

// MobilityReport is a snapshot of the partition/mobility counters —
// join-event re-arms of in-flight blocking ops and orphaned remote
// wait/hold reconciliation (DESIGN.md §10) — available via
// Instance.Mobility.
type MobilityReport = core.MobilityReport

// SpaceInfo describes a visible space (handle + persistence flag).
type SpaceInfo = core.SpaceInfo

// EvalFunc is a registered active-tuple computation.
type EvalFunc = core.EvalFunc

// RoutePolicy selects OutBack behaviour when the destination is away.
type RoutePolicy = core.RoutePolicy

// OutBack routing policies (paper §2.4).
const (
	RouteLocal   = core.RouteLocal
	RouteAbandon = core.RouteAbandon
	RouteRelay   = core.RouteRelay
)

// Errors surfaced by instance operations.
var (
	ErrNoMatch       = core.ErrNoMatch
	ErrClosed        = core.ErrClosed
	ErrUnknownEval   = core.ErrUnknownEval
	ErrRemoteRefused = core.ErrRemoteRefused
	ErrAbandoned     = core.ErrAbandoned
)

// SpaceInfoName is the first field of every space-info tuple (§2.4).
const SpaceInfoName = core.SpaceInfoName

// New creates and starts an instance.
func New(cfg Config) (*Instance, error) { return core.New(cfg) }
