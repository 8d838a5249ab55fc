package harness

// The take contract of DESIGN.md §6, checked once for every soak. A ledger
// is one soak's client-side history on one clock: every out it issues,
// every take that returns a token, every fault it injects, and what the
// end-of-run sweep finds resident and where. It sees only what the harness
// sees, nothing a node recorded itself.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/space"
	"tiamat/tuple"
	"tiamat/wire"
)

type eventKind int

const (
	evOut eventKind = iota
	evTake
	evFault
	evResident
)

// event is one line of a history. Times are offsets from the ledger's
// start: issued is when an out or take was called, at when it returned,
// or when a fault was injected or a sweep found the token.
type event struct {
	kind       eventKind
	token      int64
	node       wire.Addr // out: issuer; take: taker; resident: holder
	from       wire.Addr // take: the space the token came from
	issued, at time.Duration
	err        error  // out: what it returned
	what       string // fault
}

func (e event) String() string {
	switch e.kind {
	case evOut:
		if e.err != nil {
			return fmt.Sprintf("out at %s, issued +%s, failed: %v", e.node, fmtD(e.issued), e.err)
		}
		return fmt.Sprintf("out at %s, issued +%s", e.node, fmtD(e.issued))
	case evTake:
		return fmt.Sprintf("taken by %s from %s, issued +%s", e.node, e.from, fmtD(e.issued))
	case evResident:
		return "resident at " + string(e.node)
	}
	return "fault: " + e.what
}

// fate is what a history says happened to one token.
type fate struct {
	acked           bool // an out of it returned nil
	takes, resident int
	late            bool // acked, and still untaken when drain gave up
}

// ledger records a soak whose tokens are (tag, v) for unique v.
type ledger struct {
	tag   string
	start time.Time
	// ctx ends the collectors; stop cancels it.
	ctx        context.Context
	stop       context.CancelFunc
	collectors sync.WaitGroup

	mu     sync.Mutex
	events []event // in the order of their at
	// late lists the acknowledged outs drain gave up on after lateBound.
	late      []int64
	lateBound time.Duration
}

func newLedger(tag string) *ledger {
	l := &ledger{tag: tag, start: time.Now()}
	l.ctx, l.stop = context.WithCancel(context.Background())
	return l
}

func (l *ledger) token(v int64) tuple.Tuple  { return tuple.T(tuple.String(l.tag), tuple.Int(v)) }
func (l *ledger) one(v int64) tuple.Template { return tuple.Tmpl(tuple.String(l.tag), tuple.Int(v)) }
func (l *ledger) any() tuple.Template        { return tuple.Tmpl(tuple.String(l.tag), tuple.FormalInt()) }

func (l *ledger) now() time.Duration { return time.Since(l.start) }

// add stamps e with the time it is recorded.
func (l *ledger) add(e event) {
	l.mu.Lock()
	e.at = l.now()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// fault records an injected fault: kill, restart, partition, heal, limp.
func (l *ledger) fault(format string, args ...any) {
	l.add(event{kind: evFault, what: fmt.Sprintf(format, args...)})
}

// out is inst.Out of token v, recorded.
func (l *ledger) out(inst *core.Instance, v int64, r lease.Requester) error {
	issued := l.now()
	err := inst.Out(l.token(v), r)
	l.add(event{kind: evOut, token: v, node: inst.Addr(), issued: issued, err: err})
	return err
}

// in is inst.In, with the token it returns recorded.
func (l *ledger) in(ctx context.Context, inst *core.Instance, p tuple.Template, r lease.Requester) (core.Result, error) {
	issued := l.now()
	res, err := inst.In(ctx, p, r)
	if err == nil {
		if v, verr := res.Tuple.IntAt(1); verr == nil {
			l.add(event{kind: evTake, token: v, node: inst.Addr(), from: res.From, issued: issued})
		}
	}
	return res, err
}

// collect starts a collector on inst: blocking takes of any token under
// short leases, so a take that expires inside a partition simply retries.
// It runs until the returned cancel, stopCollectors or drain ends it.
func (l *ledger) collect(inst *core.Instance) context.CancelFunc {
	ctx, cancel := context.WithCancel(l.ctx)
	l.collectors.Add(1)
	go func() {
		defer l.collectors.Done()
		terms := lease.Flexible(lease.Terms{Duration: 250 * time.Millisecond, MaxRemotes: 64})
		for ctx.Err() == nil {
			if _, err := l.in(ctx, inst, l.any(), terms); err != nil && !errors.Is(err, core.ErrNoMatch) {
				return // ctx cancelled or instance closed
			}
		}
	}()
	return cancel
}

// stopCollectors stops every collector and waits for them to return.
func (l *ledger) stopCollectors() {
	l.stop()
	l.collectors.Wait()
}

// holdSettle outlasts the hold grace a soak node derives from
// soakContactTimeout (8×): a hold whose accept was lost is back in its
// space before the sweep looks.
const holdSettle = 8*soakContactTimeout + 200*time.Millisecond

// drain waits up to bound for every acknowledged out to be taken, stops the
// collectors and lets holds settle. Tokens still untaken at the bound are
// reported by check. It returns how long the takes took.
func (l *ledger) drain(bound time.Duration) time.Duration {
	start := time.Now()
	var missing []int64
	for {
		missing = missing[:0]
		for v, f := range l.fates() {
			if f.acked && f.takes == 0 {
				missing = append(missing, v)
			}
		}
		if len(missing) == 0 || time.Since(start) > bound {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	took := time.Since(start)
	l.stopCollectors()
	l.mu.Lock()
	l.late, l.lateBound = missing, bound
	l.mu.Unlock()
	time.Sleep(holdSettle)
	return took
}

// sweep takes every token out of the local spaces of insts (nil entries
// are dead slots) and records where it was resident.
func (l *ledger) sweep(insts []*core.Instance) {
	for _, inst := range insts {
		if inst != nil {
			l.sweepSpace(inst.Addr(), inst.LocalSpace())
		}
	}
}

func (l *ledger) sweepSpace(node wire.Addr, sp space.Space) {
	for t, ok := sp.Inp(l.any()); ok; t, ok = sp.Inp(l.any()) {
		if v, err := t.IntAt(1); err == nil {
			l.add(event{kind: evResident, token: v, node: node})
		}
	}
}

// awaitReplicated waits up to bound until each token in [from, to) has a
// replica copy on some instance of insts other than origin — unless its
// out failed or it is already taken: the spaced-kill discipline that lets
// origin die at R=2 without taking its tokens with it.
func (l *ledger) awaitReplicated(origin *core.Instance, from, to int64, insts []*core.Instance, bound time.Duration) error {
	copied := func(v int64) bool {
		for _, inst := range insts {
			if inst != nil && inst != origin && inst.ReplicaCopies(l.one(v)) > 0 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(bound)
	for v := from; v < to; v++ {
		for f := l.fates()[v]; f.acked && f.takes == 0 && !copied(v); f = l.fates()[v] {
			if time.Now().After(deadline) {
				return fmt.Errorf("token %d never replicated off %s within %v\n%s", v, origin.Addr(), bound, l.timelines([]int64{v}))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func (l *ledger) fates() map[int64]fate {
	l.mu.Lock()
	defer l.mu.Unlock()
	fates := make(map[int64]fate)
	for _, e := range l.events {
		f := fates[e.token]
		switch e.kind {
		case evOut:
			f.acked = f.acked || e.err == nil
		case evTake:
			f.takes++
		case evResident:
			f.resident++
		default:
			continue
		}
		fates[e.token] = f
	}
	for _, v := range l.late {
		f := fates[v]
		f.late = true
		fates[v] = f
	}
	return fates
}

// tally counts the acknowledged outs and the tokens taken.
func (l *ledger) tally() (acked, taken int) {
	for _, f := range l.fates() {
		if f.acked {
			acked++
		}
		if f.takes > 0 {
			taken++
		}
	}
	return acked, taken
}

// maxTimelines caps how many offending tokens a violation prints.
const maxTimelines = 10

// check holds the history to the contract, three clauses per token:
//
//   - taken at most once;
//   - a taken token is resident nowhere once holds have settled;
//   - an acknowledged out is taken or still resident. An out that returned
//     an error (it raced a kill) is exempt from this clause only.
//
// and, when drain gave up, to its bound. It returns nil, or an error naming
// each clause broken with the tokens that broke it, followed by what
// happened to the first maxTimelines of those tokens.
func (l *ledger) check() error {
	fates := l.fates()
	l.mu.Lock()
	lateClause := fmt.Sprintf("acknowledged but not taken within %v", l.lateBound)
	l.mu.Unlock()
	clauses := []struct {
		name   string
		broken func(f fate) bool
	}{
		{"taken more than once", func(f fate) bool { return f.takes > 1 }},
		{"resident after its take", func(f fate) bool { return f.takes > 0 && f.resident > 0 }},
		{"acknowledged but neither taken nor resident", func(f fate) bool { return f.acked && f.takes == 0 && f.resident == 0 }},
		{lateClause, func(f fate) bool { return f.late }},
	}
	ids := make([]int64, 0, len(fates))
	for v := range fates {
		ids = append(ids, v)
	}
	sortIDs(ids)
	broken := make([][]int64, len(clauses))
	var offenders []int64
	for _, v := range ids {
		hit := false
		for k, c := range clauses {
			if c.broken(fates[v]) {
				broken[k] = append(broken[k], v)
				hit = true
			}
		}
		if hit {
			offenders = append(offenders, v)
		}
	}
	var verdicts []string
	for k, c := range clauses {
		if len(broken[k]) > 0 {
			verdicts = append(verdicts, fmt.Sprintf("%d %s (tokens %v)", len(broken[k]), c.name, broken[k]))
		}
	}
	if len(verdicts) == 0 {
		return nil
	}
	return fmt.Errorf("contract violated: %s\n%s", strings.Join(verdicts, "; "), l.timelines(offenders))
}

// timelines prints what happened to each token of ids, at most
// maxTimelines of them, with every fault interleaved.
func (l *ledger) timelines(ids []int64) string {
	var b strings.Builder
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range ids {
		if k == maxTimelines {
			fmt.Fprintf(&b, "(%d more tokens not shown)\n", len(ids)-k)
			break
		}
		fmt.Fprintf(&b, "token %d:\n", v)
		for _, e := range l.events {
			if e.kind == evFault || e.token == v {
				fmt.Fprintf(&b, "  %10s  %s\n", "+"+fmtD(e.at), e)
			}
		}
	}
	return b.String()
}

func sortIDs(ids []int64) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }
